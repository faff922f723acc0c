"""The four benchmark workloads: seeded inputs, one op each, and the
correctness gate every op must pass.

Inputs come from a quasi-random (R_d Kronecker) sequence whose start point is
drawn from the seed: op i of a run uses point frac(start + i * steps), and the
worker processes of one run take interleaved indices i.  Every stretch of
consecutive ops then covers each parameter range evenly, so the work in a run
of a few seconds varies little from seed to seed, while the marginal
distribution of each parameter is the stated one.  The program sees only the
manifests and queries built here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# Certify-sweep direct queries: delta is log-uniform on [DELTA_LO, DELTA_HI].
DELTA_LO, DELTA_HI = 1e-4, 2.0
# Mountains tiles: 10 x 10 cells over delta in [0.02, 2]; the CLI appends
# eight reference cells.
TILE_ROWS = 10 * 10 + 8
# Oracle parameters of the acceptance test for the descent oracle.
RESTARTS, ITERS = 50, 300
ORACLE_TOL = 1e-6


def lambda_min(g: int, alpha: float) -> float:
    """Closed-form minimum operator-norm twisted commutation value of g x g
    unitary pairs at twist alpha in [0, 1): 2 sin(pi |round(g a) - g a| / g).
    Written out here so the gate does not trust the code it checks."""
    x = g * alpha
    return 2.0 * math.sin(math.pi * abs(math.floor(x + 0.5) - x) / g)


def floor_violations(alpha: float, delta: float, d_min: int) -> list[int]:
    """Dimensions g < d_min that a g x g pair reaches at twisted commutation
    value delta; a sound certificate leaves none."""
    return [g for g in range(1, d_min) if not delta < lambda_min(g, alpha)]


def gate_certificate(doc: dict | None, check_rc: int, check_text: str, *,
                     query: tuple[float, float] | None = None,
                     band_rank: int | None = None,
                     expect_dim: int | None = None,
                     witness_clean: bool = False) -> str | None:
    """Why a certify + check op failed, or None when it passed.

    query     : (alpha, delta) of a single-pair certificate; the certificate
                must echo it and agree with the closed-form floor
    band_rank : true rank of the band the certificate is about
    expect_dim: the dimension the instance is built to certify
    """
    if doc is None:
        return "certify wrote no certificate"
    if check_rc != 0:
        return f"check exited {check_rc}: {check_text.strip()[:200]}"
    if "certificate re-verified" not in check_text:
        return "check did not report a re-verified certificate"
    cert = doc["certificate"]
    d_min = int(cert["d_min"])
    if band_rank is not None and d_min > band_rank:
        return f"d_min {d_min} exceeds the band rank {band_rank}"
    if expect_dim is not None and d_min != expect_dim:
        return f"d_min {d_min}, expected {expect_dim}"
    if query is not None:
        alpha, delta = query
        inputs = cert["inputs"]
        echoed = inputs.get("delta")
        if inputs.get("alpha") != alpha or not isinstance(echoed, float) or echoed < delta:
            return f"certificate inputs {inputs} do not cover the query {query}"
        bad = floor_violations(alpha, inputs["delta"], d_min)
        if bad:
            return f"d_min {d_min} beats the closed-form floor at g = {bad}"
    if witness_clean and doc.get("witness", {}).get("failures"):
        return f"witness failures: {doc['witness']['failures']}"
    return None


def gate_oracle(value: float, g: int, alpha: float, cli_floor: float | None) -> str | None:
    """Why a descent-oracle query failed, or None when it passed."""
    floor = lambda_min(g, alpha)
    if cli_floor is None or abs(cli_floor - floor) > 1e-12:
        return f"twistcert minima gave {cli_floor}, closed form {floor}"
    if not value >= floor - ORACLE_TOL:
        return f"oracle value {value!r} below the floor {floor!r}"
    return None


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run `twistcert <argv>` in-process; return its exit code and output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class Sequence:
    """R_d Kronecker sequence frac(start + i * a), a_k = phi_d^-(k+1), with
    phi_d the positive root of x^(d+1) = x + 1 (Roberts, 2018)."""

    def __init__(self, rng: random.Random, dim: int):
        phi = 2.0
        for _ in range(100):
            phi = (1.0 + phi) ** (1.0 / (dim + 1))
        self.steps = [phi ** -(k + 1) for k in range(dim)]
        self.start = [rng.random() for _ in range(dim)]

    def __call__(self, i: int) -> list[float]:
        return [(s + i * a) % 1.0 for s, a in zip(self.start, self.steps)]


def _pick(x: float, options):
    return options[min(int(x * len(options)), len(options) - 1)]


@dataclass
class Outcome:
    """One op as the client saw it."""

    op_s: float
    check_s: float | None
    failure: str | None
    cert_bytes: int | None = None
    # descent oracle only: the final pair of every restart, the twist and
    # the floor
    finals: list = field(default_factory=list)
    alpha: float = 0.0
    floor: float = 0.0


class Workload:
    name = ""
    warmup = 1

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(f"{self.name}:{seed}")
        self.seq = Sequence(rng, self.dims)
        self.base_seed = rng.getrandbits(62)
        self.tmp = tmp

    def model_seed(self, i: int) -> int:
        return (self.base_seed + i) % 2**62


def certify_and_check(cli, argv: list[str], cert: Path, **expected) -> Outcome:
    """`twistcert <argv> --out <cert>`, then `twistcert check <cert>`, gated
    by gate_certificate(**expected)."""
    cert.unlink(missing_ok=True)
    t0 = perf_counter()
    rc, text = call_cli(cli, [*argv, "--out", str(cert)])
    t1 = perf_counter()
    check_rc, check_text = call_cli(cli, ["check", str(cert)])
    t2 = perf_counter()
    if rc != 0:
        return Outcome(t2 - t0, t2 - t1, f"certify exited {rc}: {text.strip()[:200]}")
    doc = read_json(cert)
    size = cert.stat().st_size if doc is not None else None
    return Outcome(t2 - t0, t2 - t1, gate_certificate(doc, check_rc, check_text, **expected),
                   size)


class _Pipeline(Workload):
    """certify --manifest, then check; subclasses give manifest(i) and the
    gate's expectations for it, expected(spec)."""

    def run(self, i: int, cli) -> Outcome:
        spec = self.manifest(i)
        manifest = self.tmp / "model.json"
        manifest.write_text(json.dumps(spec))
        return certify_and_check(cli, ["certify", "--manifest", str(manifest)],
                                 self.tmp / "cert.json", **self.expected(spec))


class PipelineSingle(_Pipeline):
    """Clock-block and flat-band models at n = 300, code dimension g in 3..6."""

    name = "pipeline-single"
    dims = 4
    N = 300

    def manifest(self, i: int) -> dict:
        x = self.seq(i)
        g = _pick(x[0], (3, 4, 5, 6))
        return {
            "kind": _pick(x[1], ("clock-block", "flat-band")),
            "g": g,
            "n_excited": (self.N - g) // g * g,
            "gap": 1.0,
            "width": 0.05 * x[2],
            "perturbation_strength": 0.002 + 0.018 * x[3],
            "seed": self.model_seed(i),
        }

    def expected(self, spec: dict) -> dict:
        g = spec["g"]
        return {"query": (1.0 / g, 0.0), "band_rank": g, "expect_dim": g}


class PipelineDouble(_Pipeline):
    """Tensor-double models at n of about 150 with tiny perturbations, so the
    two-pair threshold holds and the witness certifies d1 * d2."""

    name = "pipeline-double"
    dims = 2
    warmup = 2
    N = 150

    def manifest(self, i: int) -> dict:
        x = self.seq(i)
        d1, d2 = _pick(x[0], ((2, 2), (2, 3), (3, 3), (2, 4)))
        code = d1 * d2
        return {
            "kind": "tensor-double",
            "g": d1,
            "g2": d2,
            "n_excited": (self.N - code) // code * code,
            "gap": 1.0,
            "perturbation_strength": 10.0 ** (-9.0 + 2.0 * x[1]),
            "seed": self.model_seed(i),
        }

    def expected(self, spec: dict) -> dict:
        code = spec["g"] * spec["g2"]
        return {"band_rank": code, "expect_dim": code, "witness_clean": True}


# Reduced fractions p/q in (0, 1) with q <= 12.
RATIONALS = sorted({Fraction(p, q) for q in range(2, 13) for p in range(1, q)})


class CertifySweep(Workload):
    """Direct certify --alpha --delta with slack, then check; every tenth op
    a 10 x 10 mountains tile without slack.  Even ops take a generic alpha,
    odd ones a rational: the expensive queries (generic alpha, small delta)
    then depend on one coordinate of the sequence only, which keeps their
    share of a run steady."""

    name = "certify-sweep"
    dims = 2
    warmup = 10

    def query(self, i: int) -> tuple[float, float]:
        x = self.seq(i)
        if i % 2:
            alpha = float(_pick(x[0], RATIONALS))
        else:
            alpha = 0.01 + 0.98 * x[0]
        delta = DELTA_LO * (DELTA_HI / DELTA_LO) ** x[1]
        return alpha, delta

    def run(self, i: int, cli) -> Outcome:
        if i % 10 == 9:
            return self._tile(i, cli)
        alpha, delta = self.query(i)
        return certify_and_check(cli, ["certify", "--alpha", repr(alpha), "--delta", repr(delta)],
                                 self.tmp / "cert.json", query=(alpha, delta))

    def _tile(self, i: int, cli) -> Outcome:
        a0 = 0.005 + 0.89 * self.seq(i)[0]
        out = self.tmp / "tile.csv"
        out.unlink(missing_ok=True)
        t0 = perf_counter()
        rc, text = call_cli(cli, ["mountains", "--alpha-grid", f"{a0!r}:{a0 + 0.1!r}:10",
                                  "--delta-grid", "0.02:2.0:10", "--out", str(out)])
        t1 = perf_counter()
        if rc != 0:
            return Outcome(t1 - t0, None, f"mountains exited {rc}: {text.strip()[:200]}")
        return Outcome(t1 - t0, None, gate_tile(out.read_text()))


def gate_tile(csv_text: str) -> str | None:
    rows = [line.split(",") for line in csv_text.splitlines()
            if line and not line.startswith("#") and not line.startswith("alpha")]
    if len(rows) != TILE_ROWS:
        return f"mountains tile has {len(rows)} rows, expected {TILE_ROWS}"
    for alpha, delta, dim in rows:
        bad = floor_violations(float(alpha), float(delta), int(dim))
        if bad:
            return f"tile cell ({alpha}, {delta}) certifies {dim}, floor reached at g = {bad}"
    return None


class DescentOracle(Workload):
    """minima.brute_min on g x g pairs, then the closed-form floor from
    twistcert minima as its check."""

    name = "descent-oracle"
    dims = 2

    def query(self, i: int) -> tuple[int, float]:
        x = self.seq(i)
        return _pick(x[0], (2, 3, 4)), 0.025 + 0.95 * x[1]

    def run(self, i: int, cli) -> Outcome:
        from twistcert import linalg, minima

        g, alpha = self.query(i)
        out = self.tmp / "floor.csv"
        out.unlink(missing_ok=True)
        t0 = perf_counter()
        value, finals = minima.brute_min(g, alpha, linalg.OPERATOR, restarts=RESTARTS,
                                         seed=self.model_seed(i), iters=ITERS, trace=True)
        t1 = perf_counter()
        rc, text = call_cli(cli, ["minima", "--g", str(g), "--grid", f"{alpha!r}:{alpha!r}:1",
                                  "--out", str(out)])
        t2 = perf_counter()
        cli_floor = None
        if rc == 0:
            row = out.read_text().splitlines()[-1].split(",")
            cli_floor = float(row[-1])
        return Outcome(t2 - t0, t2 - t1, gate_oracle(value, g, alpha, cli_floor),
                       finals=finals, alpha=alpha, floor=lambda_min(g, alpha))


WORKLOADS = {w.name: w for w in (PipelineSingle, PipelineDouble, CertifySweep, DescentOracle)}
