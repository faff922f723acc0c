"""Command-line surface: figure-data sweeps, certification pipelines, and
report generation, with reproducible run manifests embedded in every output.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .certify import (
    _MIN_DELTA,
    Certificate,
    certify_double,
    certify_lambda_exclusion,
    certify_single,
    single_pair_threshold,
    verify_double_witness,
)
from .linalg import NormSpec, OPERATOR
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

# Certified bounds below the arc-sweep floor are rounded up to it before
# certification; certifying at a larger delta is always sound.
_CERT_DELTA_FLOOR = _MIN_DELTA


class CliIOError(Exception):
    pass


@functools.cache
def _version() -> str:
    """The installed package version; looked up once per process, because
    the metadata lookup scans every sys.path entry."""
    try:
        from importlib.metadata import version

        return version("twistcert")
    except Exception:
        return "0.1.0"


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
            version=_version(),
            timestamp=_timestamp(),
        )

    def header_line(self) -> str:
        return "# twistcert-manifest: " + json.dumps(
            asdict(self), sort_keys=True, separators=(",", ":")
        )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_text(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _write_rows(out: str | None, manifest: RunManifest, header: str,
                rows: list[str], fmt: str = "csv") -> None:
    if fmt == "json":
        cols = header.split(",")
        payload = {"columns": cols,
                   "rows": [dict(zip(cols, r.split(","))) for r in rows]}
        _write_json(out, manifest, payload)
        return
    _write_text(out, "\n".join([manifest.header_line(), header, *rows]))


def _write_json(out: str | None, manifest: RunManifest, payload: dict) -> None:
    doc = {"manifest": asdict(manifest), **jsonable(payload)}
    _write_text(out, json.dumps(doc, indent=2, sort_keys=True))


def _parse_grid(text: str) -> np.ndarray:
    try:
        a, b, n = text.split(":")
        lo, hi, n = float(a), float(b), int(n)
        if not (math.isinf(lo) or math.isinf(hi)):
            return np.linspace(lo, hi, n)
    except Exception as exc:
        raise CliIOError(f"bad grid spec {text!r}; expected a:b:n") from exc
    raise CliIOError(f"bad grid spec {text!r}; bounds must be finite")


def _parse_p(text: str) -> float:
    if text in ("inf", "Inf", "INF", "op"):
        return math.inf
    return float(text)


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


def _norm_spec(args, dim: int) -> NormSpec:
    kind = getattr(args, "norm", "op")
    if kind == "op":
        return OPERATOR
    if kind == "fro":
        return NormSpec(2.0, dim)
    if kind == "pk":
        return NormSpec(_parse_p(args.p), min(int(args.k), dim))
    raise CliIOError(f"unknown norm {kind!r}")


# ---------------------------------------------------------------------------
# minima sweep


def _minima_row(cell) -> str:
    g, alpha, p, k = cell
    lam = lambda_min(g, alpha, NormSpec(p, min(k, g)))
    p_txt = "inf" if math.isinf(p) else _fmt(p)
    return f"{g},{_fmt(alpha)},{p_txt},{min(k, g)},{_fmt(lam)}"


def cmd_minima(args) -> int:
    gs = [int(t) for t in args.g.split(",") if t]
    for g in gs:
        # checked before k is clamped to g, which would blame k for g < 1
        if g < 1:
            raise ValueError(f"dimension must be positive, got {g}")
    grid = _parse_grid(args.grid)
    p = _parse_p(args.p)
    k = int(args.k)
    cells = [(g, float(a), p, k) for g in gs for a in grid]
    rows = _map_cells(_minima_row, cells, args.workers)
    manifest = RunManifest.build(
        "minima", {"g": gs, "grid": args.grid, "p": args.p, "k": k}
    )
    _write_rows(args.out, manifest, "g,alpha,p,k,lambda", rows, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# mountains sweep


def _mountain_row(cell) -> str:
    alpha, delta = cell
    # the twist enters only through exp(2 pi i alpha): certify alpha mod 1
    cert = certify_single(alpha % 1.0, delta, compute_slack=False)
    return f"{_fmt(alpha)},{_fmt(delta)},{cert.d_min}"


def cmd_mountains(args) -> int:
    alphas = _parse_grid(args.alpha_grid)
    deltas = _parse_grid(args.delta_grid)
    cells = [(float(a), float(d)) for a in alphas for d in deltas]
    # reference rows: the worked example and the closed-form threshold points
    cells.append((0.25, 0.5))
    for d in range(2, 9):
        cells.append((1.0 / d, single_pair_threshold(d) - 1e-9))
    rows = _map_cells(_mountain_row, cells, args.workers)
    manifest = RunManifest.build(
        "mountains", {"alpha_grid": args.alpha_grid, "delta_grid": args.delta_grid}
    )
    _write_rows(args.out, manifest, "alpha,delta,certified_dim", rows, args.format)
    return EXIT_OK


def _map_cells(fn, cells, workers: int) -> list[str]:
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, cells, chunksize=64))
    return [fn(c) for c in cells]


# ---------------------------------------------------------------------------
# certification pipelines


def single_pipeline(band: BandSpec, u, v, alpha: float,
                    spec: NormSpec = OPERATOR) -> dict:
    """Measure, restrict, certify: the ambient route for one twisted pair.

    The certificate is driven by the proven restricted bound
    delta + 2 xi^2 + 4 f(xi^2), so it is sound given only ambient data; the
    measured restricted value is reported alongside.
    """
    res = restrict_pair(u, v, band, alpha, spec)
    bound = res.delta_out_bound
    if bound == 0.0:
        cert = certify_single(alpha, 0.0)
    else:
        cert = certify_single(alpha, max(bound, _CERT_DELTA_FLOOR))
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


def double_pipeline(model, tol: float = 1e-8) -> dict:
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
    report = verify_double_witness(ops["u1"], ops["u2"], ops["v1"], ops["v2"],
                                   d1, d2, tol=tol)
    cert = certify_double(d1, d2, report.gamma, report.delta)
    return {
        "measured": {
            "ambient_gamma": model.gamma,
            "ambient_deltas": model.deltas,
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


def _model_from_manifest(path: str):
    data = _load_json_file(path)
    try:
        spec = ModelSpec(**data)
    except (TypeError, ValueError) as exc:
        raise CliIOError(f"bad model manifest {path}: {exc}") from exc
    if spec.kind == "tensor-double":
        return spec, tensor_double_model(spec)
    return spec, clock_model(spec)


def cmd_certify(args) -> int:
    if args.manifest is None and args.delta is not None:
        # direct route: certify a stated (alpha, delta) with no matrices
        if args.alpha is None:
            raise CliIOError("--delta needs --alpha")
        cert = certify_single(float(args.alpha), float(args.delta))
        manifest = RunManifest.build(
            "certify", {"alpha": args.alpha, "delta": args.delta}
        )
        _write_json(args.out, manifest, {"certificate": certificate_to_dict(cert)})
        return EXIT_OK
    if args.manifest:
        spec, model = _model_from_manifest(args.manifest)
        manifest = RunManifest.build(
            "certify", {"manifest": json.loads(spec.to_json())}, seed=spec.seed
        )
        if spec.kind == "tensor-double":
            payload = double_pipeline(model, tol=args.tol)
        else:
            norm = _norm_spec(args, model.band.dim)
            payload = single_pipeline(model.band, model.u, model.v, model.alpha, norm)
            payload["measured"]["flagged"] = payload["measured"]["xi"] >= 1.0
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
        norm = _norm_spec(args, band.dim)
        manifest = RunManifest.build(
            "certify",
            {
                "hamiltonian": args.hamiltonian,
                "projector": args.projector,
                "u": args.u,
                "v": args.v,
                "alpha": args.alpha,
                "norm": args.norm,
            },
        )
        payload = single_pipeline(band, u, v, float(args.alpha), norm)
    _write_json(args.out, manifest, payload)
    return EXIT_OK


def cmd_restrict(args) -> int:
    spec, model = _model_from_manifest(args.manifest)
    if spec.kind == "tensor-double":
        raise CliIOError("restrict reports cover single-pair models")
    band = model.band
    res = restrict_pair(model.u, model.v, band, model.alpha)
    payload = {
        "model": json.loads(spec.to_json()),
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
    spec, model = _model_from_manifest(args.manifest)
    if spec.kind == "tensor-double":
        raise CliIOError("eigshare reports cover single-pair models")
    h, u = model.band.h, model.u
    evals = np.linalg.eigvalsh(h)
    seed = float(evals[int(np.argmin(np.abs(evals)))])
    general = shared_approx_eigenvector(h, u, seed)
    normal = shared_approx_eigenvector_normal(h, u, seed)
    payload = {
        "model": json.loads(spec.to_json()),
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


def _finite(value, name: str) -> float:
    """A certificate number as a finite float; a missing, non-numeric or
    non-finite value makes the certificate malformed."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise CliIOError(f"malformed certificate: {name} must be a finite number, "
                         f"got {value!r}")
    return x


def recheck_certificate(cert: Certificate) -> tuple[bool, str]:
    """Recompute the certificate's inequalities from its echoed inputs.
    Raises CliIOError when a number it needs is missing or not finite."""
    inputs = cert.inputs
    if not isinstance(inputs, dict):
        raise CliIOError("malformed certificate: inputs must be an object")

    def num(key: str, default=None) -> float:
        return _finite(inputs.get(key, default), f"inputs.{key}")

    slack = None if cert.slack is None else _finite(cert.slack, "slack")
    if {"d1", "d2", "gamma", "delta"} <= set(inputs):
        fresh = certify_double(int(num("d1")), int(num("d2")), num("gamma"), num("delta"))
    elif cert.method == "lambda-exclusion":
        fresh = certify_lambda_exclusion(
            num("alpha"), num("delta"),
            g_max=int(num("g_max", 64)),
            spec=NormSpec(_parse_p(str(inputs.get("p", "inf"))), int(num("k", 1))),
        )
    else:
        fresh = certify_single(num("alpha"), num("delta"))
    if fresh.d_min != cert.d_min or fresh.method != cert.method:
        return False, (
            f"recomputation gives d_min={fresh.d_min} via {fresh.method}, "
            f"certificate claims d_min={cert.d_min} via {cert.method}"
        )
    if slack is not None and fresh.slack is not None:
        if abs(slack - fresh.slack) > 1e-9 + 1e-6 * abs(fresh.slack):
            return False, f"slack mismatch: {cert.slack} vs {fresh.slack}"
    return True, "certificate re-verified"


def cmd_check(args) -> int:
    data = _load_json_file(args.certificate)
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
    p_min.add_argument("--workers", type=int, default=1)
    p_min.add_argument("--format", choices=("csv", "json"), default="csv")
    p_min.add_argument("--out", default=None)
    p_min.set_defaults(func=cmd_minima)

    p_mnt = sub.add_parser("mountains", help="certified dimension sweep as CSV")
    p_mnt.add_argument("--alpha-grid", default="0.005:0.995:100")
    p_mnt.add_argument("--delta-grid", default="0.02:2.0:100")
    p_mnt.add_argument("--workers", type=int, default=1)
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
    p_cert.add_argument("--norm", choices=("op", "fro", "pk"), default="op")
    p_cert.add_argument("--p", default="inf")
    p_cert.add_argument("--k", default="1")
    p_cert.add_argument("--tol", type=float, default=1e-8,
                        help="rank tolerance for the two-pair witness")
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

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliIOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
