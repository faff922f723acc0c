"""Command-line surface: figure-data sweeps, certification pipelines, and
report generation, with reproducible run manifests embedded in every output.
`check` re-validates a certificate with certify.verify_certificate, the one
reader of the witness layout; this module compares no certificate numbers.
`certify` measures in the operator norm only, whose values are proven upper
bounds: another unitarily invariant gauge gives epsilon and delta at least as
large, so it could only weaken a certificate.  Long options are never
abbreviated.

Exit codes: 0 success, 1 I/O or parse error, 2 precondition violation (for
example xi >= 1), 3 numerical failure or failed certificate re-validation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .certify import (
    Certificate,
    _sweep_delta,
    certify_double,
    certify_grid,
    certify_single,
    single_pair_threshold,
    verify_certificate,
    verify_double_witness,
)
from .linalg import NormSpec
from .matio import certificate_from_dict, certificate_to_dict, jsonable, load_matrix
from .minima import lambda_min
from .models import ModelSpec, clock_model, tensor_double_model
from .restriction import BandSpec, ground_symmetry, restrict_pair
from .shared_eig import shared_approx_eigenvector, shared_approx_eigenvector_normal

__all__ = ["main", "RunManifest", "single_pipeline", "double_pipeline"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3


class CliIOError(Exception):
    pass


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    stamp = int(epoch) if epoch is not None else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(stamp))


@dataclass
class RunManifest:
    """Provenance header embedded in every output file.  Identical manifests
    (fix the timestamp via SOURCE_DATE_EPOCH) give identical files."""

    command: str
    parameters: dict
    seed: int | None
    version: str
    timestamp: str

    @classmethod
    def build(cls, command: str, parameters: dict, seed: int | None = None):
        return cls(
            command=command,
            parameters=jsonable(parameters),
            seed=seed,
            version=__version__,
            timestamp=_timestamp(),
        )

    def header_line(self) -> str:
        return "# twistcert-manifest: " + json.dumps(
            asdict(self), sort_keys=True, separators=(",", ":")
        )


def _write_text(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _write_rows(out: str | None, manifest: RunManifest, header: str,
                rows: list[tuple], fmt: str = "csv") -> None:
    if fmt == "json":
        # JSON has no infinity: an infinite entry (minima's p = inf) is null
        cols = header.split(",")
        rows = [[None if isinstance(x, float) and math.isinf(x) else x for x in r]
                for r in rows]
        _write_json(out, manifest, {"columns": cols,
                                    "rows": [dict(zip(cols, r)) for r in rows]})
        return
    # every field to 17 significant digits: an int as is, inf as inf
    line = ",".join(["%.17g"] * len(header.split(",")))
    lines = [line % r for r in rows]
    _write_text(out, "\n".join([manifest.header_line(), header, *lines]))


def _write_json(out: str | None, manifest: RunManifest, payload: dict) -> None:
    doc = {"manifest": asdict(manifest), **jsonable(payload)}
    _write_text(out, json.dumps(doc, indent=2, sort_keys=True))


def _parse_grid(text: str) -> np.ndarray:
    try:
        a, b, n = text.split(":")
        lo, hi, n = float(a), float(b), int(n)
        if math.isinf(lo) or math.isinf(hi):
            problem = "bounds must be finite"
        elif n < 1:
            problem = "n must be at least 1"
        else:
            return np.linspace(lo, hi, n)
    except Exception as exc:
        raise CliIOError(f"bad grid spec {text!r}; expected a:b:n") from exc
    raise CliIOError(f"bad grid spec {text!r}; {problem}")


def _parse_p(text: str) -> float:
    if text in ("inf", "Inf", "INF", "op"):
        return math.inf
    return float(text)


def _parse_dims(text: str) -> list[int]:
    """The dimensions of a comma-separated --g list; at least one."""
    gs = [int(t) for t in text.split(",") if t]
    if not gs:
        raise ValueError("no dimension")
    return gs


def _parse_flag(flag: str, text: str, convert, expected: str):
    """convert(text), or CliIOError naming the flag when convert rejects it."""
    try:
        return convert(text)
    except ValueError as exc:
        raise CliIOError(f"bad {flag} value {text!r}; expected {expected}") from exc


def _load_json_file(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliIOError(f"cannot read JSON file {path}: {exc}") from exc


def _load_matrix_file(path: str) -> np.ndarray:
    try:
        return load_matrix(path)
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        raise CliIOError(f"cannot read matrix file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# minima sweep


def cmd_minima(args) -> int:
    gs = _parse_flag("--g", args.g, _parse_dims, "comma-separated integers")
    for g in gs:
        # checked before k is clamped to g, which would blame k for g < 1
        if g < 1:
            raise ValueError(f"dimension must be positive, got {g}")
    grid = _parse_grid(args.grid)
    p = _parse_flag("--p", args.p, _parse_p, "a number or inf")
    k = _parse_flag("--k", args.k, int, "an integer")
    rows = [(g, a, p, min(k, g), lambda_min(g, a, NormSpec(p, min(k, g))))
            for g in gs for a in grid.tolist()]
    manifest = RunManifest.build(
        "minima", {"g": gs, "grid": args.grid, "p": args.p, "k": k}
    )
    _write_rows(args.out, manifest, "g,alpha,p,k,lambda", rows, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# mountains sweep


def cmd_mountains(args) -> int:
    alphas = _parse_grid(args.alpha_grid)
    deltas = _parse_grid(args.delta_grid)
    cells = [(float(a), float(d)) for a in alphas for d in deltas]
    # reference rows: the worked example and the closed-form threshold points
    cells.append((0.25, 0.5))
    for d in range(2, 9):
        cells.append((1.0 / d, single_pair_threshold(d) - 1e-9))
    # the twist enters only through exp(2 pi i alpha): certify alpha mod 1
    dims = certify_grid([(alpha % 1.0, delta) for alpha, delta in cells])
    rows = [(alpha, delta, dim) for (alpha, delta), dim in zip(cells, dims)]
    manifest = RunManifest.build(
        "mountains", {"alpha_grid": args.alpha_grid, "delta_grid": args.delta_grid}
    )
    _write_rows(args.out, manifest, "alpha,delta,certified_dim", rows, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# certification pipelines


def single_pipeline(band: BandSpec, u, v, alpha: float) -> dict:
    """Measure, restrict, certify: the ambient route for one twisted pair.

    The certificate is driven by the proven restricted bound
    delta + 2 xi^2 + 4 f(xi^2) in the operator norm, so it is sound given
    only ambient data; the measured restricted value is reported alongside.
    """
    res = restrict_pair(u, v, band, alpha)
    cert = certify_single(alpha, _sweep_delta(res.delta_out_bound))
    return {
        "measured": {
            "eps_u": res.eps_u,
            "eps_v": res.eps_v,
            "delta": res.delta_in,
            "xi": res.xi,
            "delta_out_bound": res.delta_out_bound,
            "delta_out_measured": res.delta_out_measured,
        },
        "certificate": certificate_to_dict(cert),
    }


def double_pipeline(model) -> dict:
    """Restrict both twisted pairs of a tensor-double model to the band,
    measure the five restricted commutation values, and run both the
    closed-form two-pair certificate and the direct witness verification."""
    band = model.band
    d1, d2 = model.spec.g, model.spec.g2
    ground = [ground_symmetry(getattr(model, name), band)
              for name in ("u1", "u2", "v1", "v2")]
    ops = dict(zip(("u1", "u2", "v1", "v2"), (gs.on_band for gs in ground)))
    if d1 > d2:
        d1, d2 = d2, d1
        ops = {"u1": ops["u2"], "u2": ops["u1"], "v1": ops["v2"], "v2": ops["v1"]}
    report = verify_double_witness(ops["u1"], ops["u2"], ops["v1"], ops["v2"], d1, d2)
    cert = certify_double(d1, d2, report.gamma, report.delta)
    return {
        "measured": {
            "xi": max(gs.xi for gs in ground),
            "band_gamma": report.gamma,
            "band_delta": report.delta,
            "band_delta_parts": report.delta_parts,
        },
        "witness": {
            "threshold_lhs": report.threshold_lhs,
            "threshold_rhs": report.threshold_rhs,
            "gram_rank": report.gram_rank,
            "gram_min_eigenvalue": report.gram_min_eigenvalue,
            "independent": report.independent,
            "dim_assumption_ok": report.dim_assumption_ok,
            "failures": report.failures,
        },
        "certificate": certificate_to_dict(cert),
    }


def _model_from_manifest(path: str, command: str = "certify"):
    """The manifest's model; only certify takes a tensor-double one."""
    data = _load_json_file(path)
    try:
        spec = ModelSpec(**data)
    except (TypeError, ValueError) as exc:
        raise CliIOError(f"bad model manifest {path}: {exc}") from exc
    if spec.kind != "tensor-double":
        return clock_model(spec)
    if command != "certify":
        raise ValueError(f"{command} reports cover single-pair models")
    return tensor_double_model(spec)


def _reject_unread(args, route: str, reads=()) -> None:
    """Refuse the certify flags that `route` would silently ignore."""
    given = [f"--{name}" for name in ("hamiltonian", "projector", "u", "v", "alpha",
                                      "delta", "gap", "width")
             if name not in reads and getattr(args, name) is not None]
    if given:
        raise CliIOError(f"certify {route} does not read {', '.join(given)}")


def cmd_certify(args) -> int:
    if args.manifest is not None:
        _reject_unread(args, "--manifest")
        model = _model_from_manifest(args.manifest)
        spec = model.spec
        manifest = RunManifest.build(
            "certify", {"manifest": asdict(spec)}, seed=spec.seed
        )
        if spec.kind == "tensor-double":
            payload = double_pipeline(model)
        else:
            payload = single_pipeline(model.band, model.u, model.v, model.alpha)
    elif args.delta is not None:
        # direct route: certify a stated (alpha, delta) with no matrices
        _reject_unread(args, "--delta", reads=("alpha", "delta"))
        if args.alpha is None:
            raise CliIOError("--delta needs --alpha")
        cert = certify_single(float(args.alpha), float(args.delta))
        manifest = RunManifest.build(
            "certify", {"alpha": args.alpha, "delta": args.delta}
        )
        payload = {"certificate": certificate_to_dict(cert)}
    else:
        required = [args.hamiltonian, args.projector, args.u, args.v, args.alpha]
        if any(x is None for x in required):
            raise CliIOError(
                "certify needs either --manifest or all of "
                "--hamiltonian/--projector/--u/--v/--alpha"
            )
        h = _load_matrix_file(args.hamiltonian)
        p = _load_matrix_file(args.projector)
        u = _load_matrix_file(args.u)
        v = _load_matrix_file(args.v)
        band = BandSpec(h, p, gap=args.gap, width=args.width)
        manifest = RunManifest.build(
            "certify",
            {
                "hamiltonian": args.hamiltonian,
                "projector": args.projector,
                "u": args.u,
                "v": args.v,
                "alpha": args.alpha,
            },
        )
        payload = single_pipeline(band, u, v, float(args.alpha))
    _write_json(args.out, manifest, payload)
    return EXIT_OK


def cmd_restrict(args) -> int:
    model = _model_from_manifest(args.manifest, "restrict")
    spec, band = model.spec, model.band
    res = restrict_pair(model.u, model.v, band, model.alpha)
    payload = {
        "model": asdict(spec),
        "band": {"dim": band.dim, "rank": band.rank, "gap": band.gap,
                 "width": band.width},
        "restriction": {
            "xi": res.xi,
            "eps_u": res.eps_u,
            "eps_v": res.eps_v,
            "delta_in": res.delta_in,
            "delta_out_bound": res.delta_out_bound,
            "delta_out_measured": res.delta_out_measured,
        },
        "ground_symmetry_u": _gs_table(res.ground_u),
        "ground_symmetry_v": _gs_table(res.ground_v),
    }
    manifest = RunManifest.build("restrict", {"manifest": args.manifest},
                                 seed=spec.seed)
    _write_json(args.out, manifest, payload)
    return EXIT_OK


def _gs_table(gs) -> dict:
    return {
        "xi": gs.xi,
        "epsilon": gs.epsilon,
        "dist_full_measured": gs.dist_full_measured,
        "dist_full_bound": gs.dist_full_bound,
        "dist_band_measured": gs.dist_band_measured,
        "dist_band_bound": gs.dist_band_bound,
    }


def cmd_eigshare(args) -> int:
    model = _model_from_manifest(args.manifest, "eigshare")
    spec, h, u = model.spec, model.band.h, model.u
    evals = np.linalg.eigvalsh(h)
    seed = float(evals[int(np.argmin(np.abs(evals)))])
    general = shared_approx_eigenvector(h, u, seed)
    normal = shared_approx_eigenvector_normal(h, u, seed)
    payload = {
        "model": asdict(spec),
        "seed_eigenvalue": general.eigenvalue_a,
        "general": _eigshare_table(general),
        "normal_variant": _eigshare_table(normal),
    }
    manifest = RunManifest.build("eigshare", {"manifest": args.manifest},
                                 seed=spec.seed)
    _write_json(args.out, manifest, payload)
    return EXIT_OK


def _eigshare_table(res) -> dict:
    return {
        "epsilon": res.epsilon,
        "bound": res.bound,
        "residual_a": res.residual_a,
        "residual_b": res.residual_b,
        "eigenvalue_b": res.eigenvalue_b,
        "cluster_size": len(res.cluster.indices),
        "cluster_diameter": res.cluster.diameter,
        "a_block_deviation": res.a_block_deviation,
        "a_block_bound": res.a_block_bound,
        "b_offdiag_norm": res.b_offdiag_norm,
        "b_offdiag_bound": res.b_offdiag_bound,
    }


# ---------------------------------------------------------------------------
# certificate re-validation


def recheck_certificate(cert: Certificate) -> tuple[bool, str]:
    """(ok, message) for a certificate read from JSON: the verdict of
    certify.verify_certificate, which checks every kind from its own witness
    with no sweep.  Raises CliIOError when the certificate is malformed."""
    try:
        failure = verify_certificate(cert)
    except ValueError as exc:
        raise CliIOError(f"malformed certificate: {exc}") from exc
    return failure is None, failure or "certificate re-verified"


def cmd_check(args) -> int:
    """Re-validate a certificate JSON file from its witness
    (certify.verify_certificate): exit 0 and print "certificate re-verified",
    exit 3 and print why it fails, or exit 1 when it is malformed."""
    data = _load_json_file(args.certificate)
    if not isinstance(data, dict):
        raise CliIOError("malformed certificate: the file must hold a JSON object, "
                         f"got {type(data).__name__}")
    payload = data.get("certificate", data)
    try:
        cert = certificate_from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliIOError(f"malformed certificate: {exc}") from exc
    ok, message = recheck_certificate(cert)
    print(message)
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse_args call
    returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="twistcert",
        description="Twisted-commutator diagnostics and certified degeneracy bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_min = sub.add_parser("minima", help="closed-form minimum values as CSV")
    p_min.add_argument("--g", default="2,3,4,5", help="comma-separated dimensions")
    p_min.add_argument("--grid", default="0:1:201", help="alpha grid a:b:n")
    p_min.add_argument("--p", default="inf")
    p_min.add_argument("--k", default="1")
    p_min.add_argument("--format", choices=("csv", "json"), default="csv")
    p_min.add_argument("--out", default=None)
    p_min.set_defaults(func=cmd_minima)

    p_mnt = sub.add_parser("mountains", help="certified dimension sweep as CSV")
    p_mnt.add_argument("--alpha-grid", default="0.005:0.995:100")
    p_mnt.add_argument("--delta-grid", default="0.02:2.0:100")
    p_mnt.add_argument("--format", choices=("csv", "json"), default="csv")
    p_mnt.add_argument("--out", default=None)
    p_mnt.set_defaults(func=cmd_mountains)

    p_cert = sub.add_parser("certify", help="measure, restrict, and certify")
    p_cert.add_argument("--manifest", default=None, help="model manifest JSON")
    p_cert.add_argument("--hamiltonian", default=None)
    p_cert.add_argument("--projector", default=None)
    p_cert.add_argument("--u", default=None)
    p_cert.add_argument("--v", default=None)
    p_cert.add_argument("--alpha", type=float, default=None)
    p_cert.add_argument("--delta", type=float, default=None,
                        help="certify a stated twisted commutation value directly")
    p_cert.add_argument("--gap", type=float, default=None)
    p_cert.add_argument("--width", type=float, default=None)
    p_cert.add_argument("--out", default=None)
    p_cert.set_defaults(func=cmd_certify)

    p_res = sub.add_parser("restrict", help="band-restriction report")
    p_res.add_argument("--manifest", required=True)
    p_res.add_argument("--out", default=None)
    p_res.set_defaults(func=cmd_restrict)

    p_eig = sub.add_parser("eigshare", help="shared approximate eigenvector report")
    p_eig.add_argument("--manifest", required=True)
    p_eig.add_argument("--out", default=None)
    p_eig.set_defaults(func=cmd_eigshare)

    p_chk = sub.add_parser("check", help="re-validate a certificate JSON")
    p_chk.add_argument("certificate")
    p_chk.set_defaults(func=cmd_check)

    # no prefix matching: a removed flag such as certify's --p must fail, not
    # silently parse as --projector
    for p in (parser, *sub.choices.values()):
        p.allow_abbrev = False
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): point stdout at devnull,
        # as the SIGPIPE note of Python's signal docs does, so that the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except CliIOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    # LinAlgError (a non-converged factorization) subclasses ValueError
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
