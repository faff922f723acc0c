"""Self-tests of the benchmark: the correctness gate counts tampered outputs
as failed ops, and the tracer counts each factorization exactly once.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import twistcert.cli as cli  # noqa: E402
import workloads  # noqa: E402
from run import tail  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    CertifySweep,
    DescentOracle,
    PipelineSingle,
    gate_certificate,
    gate_oracle,
    lambda_min,
)


def _tamper_after_certify(monkeypatch, path_of):
    """Make every `certify` call claim one dimension more than it proved."""
    real = workloads.call_cli

    def call(cli_module, argv):
        rc, text = real(cli_module, argv)
        if argv[0] == "certify":
            cert = path_of(argv)
            doc = json.loads(cert.read_text())
            doc["certificate"]["d_min"] += 1
            cert.write_text(json.dumps(doc))
        return rc, text

    monkeypatch.setattr(workloads, "call_cli", call)


def test_sweep_op_passes_and_tampered_certificate_fails(tmp_path, monkeypatch):
    wl = CertifySweep(seed=3, tmp=tmp_path)
    assert wl.run(0, cli).failure is None
    _tamper_after_certify(monkeypatch, lambda argv: Path(argv[-1]))
    failure = wl.run(0, cli).failure
    assert failure is not None and "check exited 3" in failure


def test_pipeline_certificate_with_d_min_plus_one_fails(tmp_path, monkeypatch):
    class Small(PipelineSingle):
        N = 24  # same op at desk-check size

    wl = Small(seed=3, tmp=tmp_path)
    assert wl.run(0, cli).failure is None
    _tamper_after_certify(monkeypatch, lambda argv: Path(argv[-1]))
    assert wl.run(0, cli).failure is not None


def test_gate_rejects_d_min_above_rank_and_floor_even_if_check_passes():
    g = 4
    doc = {"certificate": {"d_min": g + 1, "inputs": {"alpha": 1.0 / g, "delta": 0.01}}}
    ok = "certificate re-verified\n"
    assert "band rank" in gate_certificate(doc, 0, ok, query=(1.0 / g, 0.0), band_rank=g)
    assert "floor" in gate_certificate(doc, 0, ok, query=(1.0 / g, 0.0))
    doc["certificate"]["d_min"] = g
    assert gate_certificate(doc, 0, ok, query=(1.0 / g, 0.0), band_rank=g,
                            expect_dim=g) is None


def test_oracle_value_below_floor_fails(tmp_path, monkeypatch):
    wl = DescentOracle(seed=3, tmp=tmp_path)
    g, alpha = wl.query(0)
    floor = lambda_min(g, alpha)
    monkeypatch.setattr("twistcert.minima.brute_min",
                        lambda *a, **k: (floor - 1e-3, []))
    failure = wl.run(0, cli).failure
    assert failure is not None and "below the floor" in failure
    assert gate_oracle(floor + 1e-4, g, alpha, floor) is None


def test_each_factorization_is_counted_once():
    a = np.random.default_rng(0).standard_normal((5, 5))
    tracer = Tracer()
    originals = (np.linalg.svd, scipy.linalg.eigvals, cli.main)
    tracer.install()
    try:
        tracer.begin_op(0)
        np.linalg.norm(a, 2)          # an SVD inside numpy.linalg
        np.linalg.svd(a)
        scipy.linalg.eigvals(a)       # calls scipy.linalg.eig internally
        np.linalg.norm(a)             # Frobenius: no factorization
    finally:
        tracer.uninstall()
    assert (np.linalg.svd, scipy.linalg.eigvals, cli.main) == originals
    m = layer_metrics(tracer.totals(), 1, 0.0)
    assert m["linalg.svd_calls"] == 2
    assert m["linalg.eigvals_calls"] == 1
    assert m["linalg.eig_calls"] == 0
    # the second and third factorizations take the same input as the first
    assert m["linalg.factor_repeat_frac"] == pytest.approx(2 / 3)
    assert m["linalg.factor_flops"] > 0


@pytest.mark.parametrize("n, q, beyond", [(1000, 99, 10), (95, 89, 10), (12, 50, 6)])
def test_tail_percentile_keeps_ten_samples_beyond(n, q, beyond):
    got_q, value, got_beyond = tail([float(i) for i in range(n)])
    assert (got_q, got_beyond) == (q, beyond)
    assert value == float(n - 1 - beyond)


def test_benchmark_json_lists_every_per_layer_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == list(PER_LAYER)
