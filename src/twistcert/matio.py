"""Matrix and certificate interchange formats.

Text matrices are language-neutral: a header line `rows cols`, then the
row-major entries as whitespace-separated `re im` pairs.  The binary variant
starts with the magic bytes TWC1 followed by two little-endian uint64 shape
fields and the interleaved little-endian float64 re/im entries.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .certify import Certificate, _integer

__all__ = [
    "MAGIC",
    "save_matrix_text",
    "save_matrix_binary",
    "load_matrix",
    "jsonable",
    "certificate_to_dict",
    "certificate_from_dict",
]

MAGIC = b"TWC1"


def save_matrix_text(path, m) -> None:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError("only 2-D matrices are supported")
    rows, cols = m.shape
    lines = [f"{rows} {cols}"]
    for r in range(rows):
        parts = []
        for c in range(cols):
            z = m[r, c]
            parts.append(f"{z.real:.17g} {z.imag:.17g}")
        lines.append(" ".join(parts))
    Path(path).write_text("\n".join(lines) + "\n")


def save_matrix_binary(path, m) -> None:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError("only 2-D matrices are supported")
    rows, cols = m.shape
    interleaved = np.empty((rows, cols, 2), dtype="<f8")
    interleaved[..., 0] = m.real
    interleaved[..., 1] = m.imag
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", rows, cols))
        fh.write(interleaved.tobytes())


def load_matrix(path) -> np.ndarray:
    """Load a matrix, sniffing the binary magic and falling back to text."""
    raw = Path(path).read_bytes()
    if raw[:4] == MAGIC:
        rows, cols = struct.unpack("<QQ", raw[4:20])
        data = np.frombuffer(raw[20:], dtype="<f8")
        if data.size != rows * cols * 2:
            raise ValueError(f"binary matrix in {path} has truncated payload")
        data = data.reshape(rows, cols, 2)
        return (data[..., 0] + 1j * data[..., 1]).astype(np.complex128)
    tokens = raw.decode("utf-8").split()
    if len(tokens) < 2:
        raise ValueError(f"matrix file {path} lacks a 'rows cols' header")
    rows, cols = int(tokens[0]), int(tokens[1])
    values = [float(t) for t in tokens[2:]]
    if len(values) != rows * cols * 2:
        raise ValueError(
            f"matrix file {path} has {len(values)} numbers, expected {rows * cols * 2}"
        )
    arr = np.asarray(values).reshape(rows, cols, 2)
    return (arr[..., 0] + 1j * arr[..., 1]).astype(np.complex128)


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and complex numbers into
    JSON-safe structures (complex z becomes {"re": ..., "im": ...})."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        if val != val or val in (float("inf"), float("-inf")):
            return repr(val)
        return val
    if isinstance(obj, (np.complexfloating, complex)):
        z = complex(obj)
        return {"re": z.real, "im": z.imag}
    return obj


def certificate_to_dict(cert: Certificate) -> dict:
    return jsonable(
        {
            "method": cert.method,
            "inputs": cert.inputs,
            "d_min": cert.d_min,
            "slack": cert.slack,
            "witness": cert.witness,
        }
    )


def certificate_from_dict(data: dict) -> Certificate:
    """Inverse of certificate_to_dict; a d_min that is not an int (a string,
    a bool or a float, even an integral one) raises ValueError."""
    return Certificate(
        d_min=_integer(data["d_min"], "d_min"),
        method=data["method"],
        inputs=data["inputs"],
        slack=data.get("slack"),
        witness=data.get("witness"),
    )
