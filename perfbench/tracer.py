"""Outside-in tracing of twistcert: spans around the public functions of each
module and a counter around every dense factorization numpy and scipy run.

Nothing in the program is changed.  `Tracer.install` rebinds each traced
function, in every twistcert module namespace that holds it, to a wrapper
that records a span; `Tracer.uninstall` puts the originals back.  Spans are
kept in memory as [name, start, end, parent, op, excluded, info, error] and
written out once, when the run ends.  A span's self time is its duration
minus the durations of its child spans and minus the benchmark's own work
done inside it (hashing factorization inputs), recorded as `excluded`.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# Public functions wrapped in a span, by layer (= twistcert module).
SPANNED = {
    "linalg": ("schatten_kyfan_norm", "polar_unitary", "eig_normal", "eig_general",
               "right_eigenvector", "haar_unitary", "is_unitary"),
    "models": ("clock_model", "tensor_double_model"),
    "restriction": ("ground_symmetry", "restrict_pair"),
    "certify": ("certify_single", "certify_double", "minimal_intervals",
                "greedy_transversal", "verify_double_witness"),
    "shared_eig": ("shared_approx_eigenvector", "shared_approx_eigenvector_normal"),
    "minima": ("brute_min",),
    "cli": ("main", "recheck_certificate"),
    "matio": ("jsonable", "certificate_to_dict", "certificate_from_dict", "load_matrix"),
}

FACTOR_KINDS = ("svd", "schur", "eigh", "eigvalsh", "qr", "eig", "eigvals")
# A descent-oracle restart "hits the floor" when it ends this close to it.
FLOOR_HIT = 1e-6
STAGES = ("models", "restriction", "certify", "shared_eig", "minima", "cli")
LAYERS = tuple(SPANNED)

# Span name -> self-time metric.  Spans not listed count only through their
# children and calls.
SELF_METRIC = {
    "linalg.factor": "linalg.factor_s",
    "models.clock_model": "models.generate_s",
    "models.tensor_double_model": "models.generate_s",
    "restriction.BandSpec": "restriction.bandspec_s",
    "restriction.band_basis": "restriction.band_basis_s",
    "restriction.ground_symmetry": "restriction.ground_symmetry_s",
    "restriction.restrict_pair": "restriction.restrict_pair_s",
    "certify.certify_single": "certify.single_s",
    "certify.minimal_intervals": "certify.sweep_s",
    "certify.greedy_transversal": "certify.sweep_s",
    "certify.verify_double_witness": "certify.witness_s",
    "shared_eig.shared_approx_eigenvector": "shared_eig.vector_s",
    "shared_eig.shared_approx_eigenvector_normal": "shared_eig.vector_s",
    "minima.brute_min": "minima.brute_min_s",
    "cli.main": "cli.self_s",
    "cli.recheck_certificate": "cli.recheck_s",
    "matio.jsonable": "matio.serialize_s",
    "matio.certificate_to_dict": "matio.serialize_s",
    "matio.certificate_from_dict": "matio.parse_s",
    "matio.load_matrix": "matio.parse_s",
}
for _name in SPANNED["linalg"]:
    SELF_METRIC[f"linalg.{_name}"] = "linalg.self_s"

# Every per-layer metric, in report order.  Keep in step with BENCHMARK.json.
PER_LAYER = (
    *(f"linalg.{k}_calls" for k in FACTOR_KINDS),
    "linalg.factor_s", "linalg.factor_flops", "linalg.factor_repeat_frac",
    "linalg.norm_calls", "linalg.polar_calls", "linalg.self_s",
    "models.generate_s",
    "restriction.bandspec_s", "restriction.band_basis_s", "restriction.ground_symmetry_s",
    "restriction.ground_symmetry_calls", "restriction.restrict_pair_s",
    "certify.single_s", "certify.sweep_s", "certify.sweeps_per_cert",
    "certify.intervals_per_sweep", "certify.witness_s",
    "shared_eig.vector_s",
    "minima.brute_min_s", "minima.retractions_per_query", "minima.floor_hit_frac",
    "minima.floor_gap_p50",
    "cli.self_s", "cli.recheck_s",
    "matio.serialize_s", "matio.parse_s", "matio.cert_bytes",
    *(f"{s}.factor_calls" for s in STAGES),
    *(f"{layer}.errors" for layer in LAYERS),
    "bench.trace_overhead_frac",
)


def _flops(kind: str, shape: tuple, is_complex: bool, vectors: bool) -> float:
    """Leading-order LAPACK operation count for one factorization of an
    (..., m, n) input (Golub and Van Loan, Matrix Computations, 4th ed.,
    section 8.6 and table 7.7.1), times 4 for complex arithmetic.  Computed
    from the shape, not measured."""
    if len(shape) < 2:
        return 0.0
    m, n = shape[-2], shape[-1]
    batch = math.prod(shape[:-2])
    k, big = min(m, n), max(m, n)
    if kind == "svd":
        real = (4 * big**2 * k + 8 * big * k**2 + 9 * k**3 if vectors
                else 4 * big * k**2 - 4 * k**3 / 3)
    elif kind == "eigh":
        real = 9 * n**3
    elif kind == "eigvalsh":
        real = 4 * n**3 / 3
    elif kind == "qr":
        real = 2 * n**2 * (m - n / 3) + 4 * (m**2 * n - m * n**2 + n**3 / 3)
    elif kind in ("schur", "eig"):
        real = 25 * n**3
    else:  # eigvals
        real = 10 * n**3
    return float(batch * real * (4 if is_complex else 1))


def _wants_vectors(kind: str, args, kwargs) -> bool:
    if kind == "svd":
        return bool(kwargs.get("compute_uv", args[2] if len(args) > 2 else True))
    return kind in ("eigh", "schur", "eig", "qr")


class Tracer:
    """Spans and factorization counts for the ops of one benchmark process."""

    def __init__(self):
        """Build the wrappers; twistcert must already be imported."""
        import numpy.linalg
        import scipy.linalg

        from twistcert import restriction

        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.seen: set[int] = set()
        self._patches: list[tuple] = []
        # original function -> its wrapper, rebound wherever a module holds it
        self._by_id: dict[int, object] = {}
        for layer, names in SPANNED.items():
            module = sys.modules[f"twistcert.{layer}"]
            for name in names:
                fn = module.__dict__[name]
                self._by_id[id(fn)] = self._span(f"{layer}.{name}", fn)
        band_spec = restriction.BandSpec
        basis = functools.cached_property(
            self._span("restriction.band_basis", band_spec.__dict__["band_basis"].func))
        basis.__set_name__(band_spec, "band_basis")
        # (owner, attribute, replacement) rebound in one place each
        self._fixed = [
            (band_spec, "__init__", self._span("restriction.BandSpec", band_spec.__init__)),
            (band_spec, "band_basis", basis),
        ]
        np_inner = getattr(numpy.linalg, "_linalg", None) or numpy.linalg.linalg
        for owner, kind in ((numpy.linalg, "svd"), (np_inner, "svd"), (numpy.linalg, "eigh"),
                            (numpy.linalg, "eigvalsh"), (numpy.linalg, "qr"),
                            (numpy.linalg, "eig"), (numpy.linalg, "eigvals"),
                            (scipy.linalg, "schur"), (scipy.linalg, "eig"),
                            (scipy.linalg, "eigvals")):
            self._fixed.append((owner, kind, self._factor(kind, owner.__dict__[kind])))

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, info=None) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, 0.0, info, False])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, failed: bool) -> None:
        rec = self.spans[sid]
        rec[2] = perf_counter()
        rec[7] = failed
        self.stack.pop()

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer._close(sid, True)
                raise
            tracer._close(sid, False)
            if name == "certify.minimal_intervals":
                tracer.spans[sid][6] = len(out)
            return out

        return wrapper

    def _factor(self, kind: str, fn):
        import numpy as np

        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            a = np.asarray(args[0] if args else kwargs["a"])
            key = hash((a.dtype.str, a.shape, a.tobytes()))
            repeat = key in tracer.seen
            tracer.seen.add(key)
            info = (kind, a.shape, _flops(kind, a.shape, np.iscomplexobj(a),
                                          _wants_vectors(kind, args, kwargs)), repeat)
            if tracer.stack:
                tracer.spans[tracer.stack[-1]][5] += perf_counter() - t0
            sid = tracer._open("linalg.factor", info)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer._close(sid, True)
                raise
            tracer._close(sid, False)
            return out

        return wrapper

    def begin_op(self, op: int) -> None:
        self.op = op
        self.seen.clear()

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every traced function in every loaded twistcert module."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".", 1)[0] == "twistcert":
                for attr, value in list(module.__dict__.items()):
                    wrapper = self._by_id.get(id(value))
                    if wrapper is not None:
                        self._set(module, attr, wrapper)
        for owner, attr, value in self._fixed:
            self._set(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export and aggregation --------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "excluded_s",
                                 "info", "error"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def totals(self) -> dict:
        """Sums over all recorded spans, to be merged across processes and
        turned into per-op metrics by `layer_metrics`."""
        spans = self.spans
        child = [0.0] * len(spans)
        stage = [""] * len(spans)
        for i, (name, t0, t1, parent, *_rest) in enumerate(spans):
            layer = name.split(".", 1)[0]
            if parent >= 0:
                child[parent] += t1 - t0
            if layer != "linalg":
                stage[i] = layer
            else:
                stage[i] = stage[parent] if parent >= 0 else "bench"
        out: dict = defaultdict(float)
        for i, (name, t0, t1, parent, _op, excluded, info, error) in enumerate(spans):
            layer = name.split(".", 1)[0]
            metric = SELF_METRIC.get(name)
            if metric:
                out[metric] += (t1 - t0) - child[i] - excluded
            out[f"calls:{name}"] += 1
            if error and (parent < 0 or spans[parent][0].split(".", 1)[0] != layer):
                out[f"{layer}.errors"] += 1
            if name == "linalg.factor":
                kind, _shape, flops, repeat = info
                out[f"linalg.{kind}_calls"] += 1
                out["linalg.factor_flops"] += flops
                out["factor_repeats"] += repeat
                out["factors"] += 1
                if stage[i] in STAGES:
                    out[f"{stage[i]}.factor_calls"] += 1
            elif name == "linalg.polar_unitary" and stage[i] == "minima":
                out["minima_retractions"] += 1
            elif name == "certify.minimal_intervals":
                out["intervals"] += info or 0
        return dict(out)


def merge(totals: list[dict]) -> dict:
    out: dict = defaultdict(float)
    for t in totals:
        for key, value in t.items():
            out[key] += value
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: dict, ops: int, overhead_frac: float,
                  floor_gaps: list[float] = ()) -> dict:
    """Per-op means of the merged totals `t` over `ops` traced ops.  A ratio
    whose base is zero on a workload (no certificate, no query) reads 0.
    `floor_gaps` holds, for every descent-oracle restart, how far above
    lambda_min it ended."""
    per_op = {name: _ratio(t.get(name, 0.0), ops) for name in PER_LAYER}
    per_op["linalg.factor_repeat_frac"] = _ratio(t.get("factor_repeats", 0), t.get("factors", 0))
    per_op["linalg.norm_calls"] = _ratio(t.get("calls:linalg.schatten_kyfan_norm", 0), ops)
    per_op["linalg.polar_calls"] = _ratio(t.get("calls:linalg.polar_unitary", 0), ops)
    per_op["restriction.ground_symmetry_calls"] = _ratio(
        t.get("calls:restriction.ground_symmetry", 0), ops)
    sweeps = t.get("calls:certify.minimal_intervals", 0)
    per_op["certify.sweeps_per_cert"] = _ratio(sweeps, t.get("calls:certify.certify_single", 0))
    per_op["certify.intervals_per_sweep"] = _ratio(t.get("intervals", 0), sweeps)
    per_op["minima.retractions_per_query"] = _ratio(
        t.get("minima_retractions", 0), t.get("calls:minima.brute_min", 0))
    per_op["minima.floor_hit_frac"] = _ratio(sum(gap <= FLOOR_HIT for gap in floor_gaps),
                                             len(floor_gaps))
    per_op["minima.floor_gap_p50"] = statistics.median(floor_gaps) if floor_gaps else 0.0
    per_op["matio.cert_bytes"] = _ratio(t.get("cert_bytes", 0), t.get("certs_written", 0))
    per_op["bench.trace_overhead_frac"] = overhead_frac
    return per_op
