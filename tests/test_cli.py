"""End-to-end command-line tests: CSV sweeps with embedded manifests,
certification pipelines from model manifests and from matrix files,
re-validation, and exit codes."""

import json

import numpy as np
import pytest
import scipy.linalg

from twistcert import ModelSpec, clock_model, ground_symmetry
from twistcert.cli import main
from twistcert.matio import save_matrix_text


@pytest.fixture(autouse=True)
def fixed_timestamp(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def read_csv(path):
    lines = path.read_text().splitlines()
    manifest_lines = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return manifest_lines, body[0], body[1:]


class TestMinima:
    def test_csv_contents(self, tmp_path):
        out = tmp_path / "minima.csv"
        rc = main(["minima", "--g", "4,5", "--grid", "0:1:5", "--p", "inf",
                   "--k", "1", "--out", str(out)])
        assert rc == 0
        manifest, header, rows = read_csv(out)
        assert header == "g,alpha,p,k,lambda"
        assert len(manifest) == 1 and "twistcert-manifest" in manifest[0]
        assert len(rows) == 10
        # g = 4 at alpha = 0.25 sits at an exact twist: lambda = 0
        row = [r for r in rows if r.startswith("4,0.25")][0]
        assert float(row.split(",")[-1]) == 0.0

    def test_alpha_independent_bound(self, tmp_path):
        out = tmp_path / "minima.csv"
        main(["minima", "--g", "5", "--grid", "0:0.99:40", "--out", str(out)])
        _, _, rows = read_csv(out)
        bound = 2.0 * np.sin(np.pi / 10.0)
        for row in rows:
            assert float(row.split(",")[-1]) <= bound + 1e-12

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["minima", "--g", "3", "--grid", "0:1:7"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_successive_calls_share_no_options(self, tmp_path, capsys):
        # the parser is built once per process; each call parses afresh
        out = tmp_path / "minima.csv"
        args = ["minima", "--g", "3", "--grid", "0:1:3"]
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert printed == out.read_text()
        assert "g,alpha,p,k,lambda" in printed

    def test_json_format(self, tmp_path):
        out = tmp_path / "minima.json"
        rc = main(["minima", "--g", "4", "--grid", "0:1:5", "--format", "json",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["g", "alpha", "p", "k", "lambda"]
        assert len(doc["rows"]) == 5
        assert doc["manifest"]["command"] == "minima"

    @pytest.mark.parametrize("gs", ["0", "3,-2"])
    def test_bad_dimension_named(self, capsys, gs):
        rc = main(["minima", "--g", gs, "--grid", "0:1:3"])
        assert rc == 2
        bad = gs.split(",")[-1]
        assert capsys.readouterr().err.strip() == (
            f"precondition violated: dimension must be positive, got {bad}")

    def test_non_finite_alpha_named(self, capsys):
        rc = main(["minima", "--g", "3", "--grid", "nan:nan:1"])
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            "precondition violated: alpha must be finite, got nan")

    @pytest.mark.parametrize("grid", ["inf:inf:1", "0:-inf:3", "0:1e400:3"])
    def test_infinite_grid_bound_rejected(self, capsys, grid):
        rc = main(["minima", "--g", "3", "--grid", grid])
        assert rc == 1
        assert capsys.readouterr().err.strip() == (
            f"error: bad grid spec {grid!r}; bounds must be finite")

    def test_version_looked_up_once(self, monkeypatch):
        import importlib.metadata

        from twistcert import cli

        calls = []
        monkeypatch.setattr(importlib.metadata, "version",
                            lambda name: calls.append(name) or "9.9")
        cli._version.cache_clear()
        try:
            versions = {cli.RunManifest.build("minima", {}).version for _ in range(3)}
        finally:
            cli._version.cache_clear()
        assert versions == {"9.9"}
        assert calls == ["twistcert"]

    def test_worker_pool_matches_serial(self, tmp_path):
        serial, pooled = tmp_path / "s.csv", tmp_path / "p.csv"
        args = ["minima", "--g", "2,3", "--grid", "0:1:9"]
        main(args + ["--out", str(serial)])
        main(args + ["--workers", "2", "--out", str(pooled)])
        assert serial.read_text() == pooled.read_text()


class TestMountains:
    def test_reference_rows_present(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["mountains", "--alpha-grid", "0.1:0.9:5",
                   "--delta-grid", "0.1:2:5", "--out", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == "alpha,delta,certified_dim"
        assert any(r.startswith("0.25,0.5,") and r.endswith(",3") for r in rows)

    def test_trivial_rows_and_monotonicity(self, tmp_path):
        out = tmp_path / "m.csv"
        main(["mountains", "--alpha-grid", "0.13:0.81:4",
              "--delta-grid", "0.05:2.2:12", "--out", str(out)])
        _, _, rows = read_csv(out)
        parsed = [r.split(",") for r in rows]
        for alpha, delta, dim in parsed:
            if float(delta) >= 2.0:
                assert dim == "1"
        # per-alpha monotone non-increase along the delta grid
        by_alpha = {}
        for alpha, delta, dim in parsed[:48]:  # grid rows only
            by_alpha.setdefault(alpha, []).append((float(delta), int(dim)))
        for pairs in by_alpha.values():
            dims = [d for _, d in sorted(pairs)]
            assert dims == sorted(dims, reverse=True)

    def test_alpha_grid_through_one(self, tmp_path):
        # alpha = 1 is the twist alpha = 0; the sweep must not stop there
        out = tmp_path / "m.csv"
        rc = main(["mountains", "--alpha-grid", "0:1:3", "--delta-grid", "0.1:2:5",
                   "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        dims = {}
        for alpha, delta, dim in (r.split(",") for r in rows):
            dims.setdefault(alpha, {})[delta] = dim
        assert len(dims["1"]) == 5
        assert dims["1"] == dims["0"]


class TestCertify:
    def test_exact_model_manifest(self, tmp_path):
        spec = ModelSpec(kind="clock-block", g=3, n_excited=6, gap=1.0, seed=5)
        manifest = tmp_path / "model.json"
        manifest.write_text(spec.to_json())
        out = tmp_path / "cert.json"
        rc = main(["certify", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["certificate"]["d_min"] == 3
        assert doc["measured"]["delta"] <= 1e-12
        assert doc["manifest"]["command"] == "certify"

    def test_perturbed_model_manifest(self, tmp_path):
        spec = ModelSpec(kind="clock-block", g=3, n_excited=6, gap=1.0, seed=6,
                         perturbation_strength=0.004)
        manifest = tmp_path / "model.json"
        manifest.write_text(spec.to_json())
        out = tmp_path / "cert.json"
        rc = main(["certify", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["certificate"]["d_min"] == 3

    def test_matrix_files(self, tmp_path):
        model = clock_model(
            ModelSpec(kind="clock-block", g=3, n_excited=6, gap=1.0, seed=7)
        )
        paths = {}
        for name, m in (("h", model.band.h), ("p", model.band.p),
                        ("u", model.u), ("v", model.v)):
            paths[name] = tmp_path / f"{name}.mat"
            save_matrix_text(paths[name], m)
        out = tmp_path / "cert.json"
        rc = main(["certify", "--hamiltonian", str(paths["h"]),
                   "--projector", str(paths["p"]), "--u", str(paths["u"]),
                   "--v", str(paths["v"]), "--alpha", str(1.0 / 3.0),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["certificate"]["d_min"] == 3

    def test_tensor_double_manifest(self, tmp_path):
        spec = ModelSpec(kind="tensor-double", g=2, g2=2, n_excited=4, gap=1.0,
                         seed=8)
        manifest = tmp_path / "model.json"
        manifest.write_text(spec.to_json())
        out = tmp_path / "cert.json"
        rc = main(["certify", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["certificate"]["d_min"] == 4
        assert doc["witness"]["gram_rank"] == 4

    def test_xi_too_large_exits_2(self, tmp_path):
        spec = ModelSpec(kind="clock-block", g=2, n_excited=4, gap=1.0, seed=9,
                         perturbation_strength=0.8)
        model = clock_model(spec)
        assert model.flagged  # construction premise of this test
        manifest = tmp_path / "model.json"
        manifest.write_text(spec.to_json())
        rc = main(["certify", "--manifest", str(manifest),
                   "--out", str(tmp_path / "cert.json")])
        assert rc == 2

    def test_direct_alpha_delta_route(self, tmp_path):
        out = tmp_path / "direct.json"
        rc = main(["certify", "--alpha", "0.25", "--delta", "0.5",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["certificate"]["d_min"] == 3
        assert main(["check", str(out)]) == 0

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_exits_2(self, tmp_path, capsys, delta):
        out = tmp_path / "direct.json"
        rc = main(["certify", "--alpha", "0.3", "--delta", delta, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert err == f"precondition violated: delta must be finite, got {delta}"

    def test_missing_file_exits_1(self, tmp_path):
        rc = main(["certify", "--manifest", str(tmp_path / "nope.json")])
        assert rc == 1

    @pytest.mark.parametrize("name", ["gap", "width"])
    def test_non_finite_stated_band_value_exits_2(self, tmp_path, capsys, name):
        paths = {}
        for key, m in (("h", np.diag([0.0, 0.0, 1.0, 1.0])),
                       ("p", np.diag([1.0, 1.0, 0.0, 0.0])),
                       ("u", np.eye(4)), ("v", np.eye(4))):
            paths[key] = tmp_path / f"{key}.mat"
            save_matrix_text(paths[key], m)
        rc = main(["certify", "--hamiltonian", str(paths["h"]),
                   "--projector", str(paths["p"]), "--u", str(paths["u"]),
                   "--v", str(paths["v"]), "--alpha", "0.5", f"--{name}", "nan"])
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            f"precondition violated: {name} must be finite, got nan")

    def test_malformed_matrix_exits_1(self, tmp_path):
        bad = tmp_path / "bad.mat"
        bad.write_text("2 2\n1 0\n")
        rc = main(["certify", "--hamiltonian", str(bad), "--projector", str(bad),
                   "--u", str(bad), "--v", str(bad), "--alpha", "0.5"])
        assert rc == 1


def count_factorizations(monkeypatch, n):
    """Counters of n x n SVD, eigh and eigvalsh calls and of Schur calls of
    any shape, patched into numpy and scipy for the rest of the test."""
    counts = {"svd": 0, "eigh": 0, "eigvalsh": 0, "schur": 0}

    def counting(kind, fn, square_only):
        def wrapper(a, *args, **kwargs):
            if not square_only or np.shape(a) == (n, n):
                counts[kind] += 1
            return fn(a, *args, **kwargs)
        return wrapper

    svd = counting("svd", np.linalg.svd, square_only=True)
    inner = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    monkeypatch.setattr(inner, "svd", svd)  # reached by np.linalg.norm(x, 2)
    monkeypatch.setattr(np.linalg, "svd", svd)
    for kind in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, kind,
                            counting(kind, getattr(np.linalg, kind), square_only=True))
    monkeypatch.setattr(scipy.linalg, "schur",
                        counting("schur", scipy.linalg.schur, square_only=False))
    return counts


class TestFactorizationBudget:
    def test_single_pair_certify(self, tmp_path, monkeypatch):
        """certify --manifest on a single pair runs at most four dense n x n
        SVDs (perturbation scale, two epsilons, ambient delta), the model's
        one eigh, no eigvalsh and no Schur reduction."""
        n = 63
        spec = ModelSpec(kind="clock-block", g=3, n_excited=n - 3, gap=1.0, seed=9,
                         width=0.02, perturbation_strength=0.01)
        manifest = tmp_path / "model.json"
        manifest.write_text(spec.to_json())
        counts = count_factorizations(monkeypatch, n)
        rc = main(["certify", "--manifest", str(manifest),
                   "--out", str(tmp_path / "cert.json")])
        assert rc == 0
        assert counts["svd"] <= 4
        assert counts["eigh"] == 1
        assert counts["eigvalsh"] == 0
        assert counts["schur"] == 0

    def test_tensor_double_certify(self, tmp_path, monkeypatch):
        """The two-pair pipeline diagonalizes H once, inside the model's
        BandSpec."""
        n = 66
        spec = ModelSpec(kind="tensor-double", g=2, g2=3, n_excited=n - 6, gap=1.0,
                         seed=9, perturbation_strength=0.005)
        manifest = tmp_path / "model.json"
        manifest.write_text(spec.to_json())
        counts = count_factorizations(monkeypatch, n)
        rc = main(["certify", "--manifest", str(manifest),
                   "--out", str(tmp_path / "cert.json")])
        assert rc == 0
        assert counts["eigh"] == 1
        assert counts["eigvalsh"] == 0


class TestReports:
    def test_restrict_report(self, tmp_path):
        spec = ModelSpec(kind="clock-block", g=3, n_excited=6, gap=1.0, seed=10,
                         perturbation_strength=0.01)
        manifest = tmp_path / "model.json"
        manifest.write_text(spec.to_json())
        out = tmp_path / "restrict.json"
        rc = main(["restrict", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        r = doc["restriction"]
        assert r["delta_out_measured"] <= r["delta_out_bound"] + 1e-8
        model = clock_model(spec)
        for key, op in (("ground_symmetry_u", model.u), ("ground_symmetry_v", model.v)):
            table = doc[key]
            assert table["dist_full_measured"] <= table["dist_full_bound"] + 1e-9
            assert table["dist_band_measured"] <= table["dist_band_bound"] + 1e-9
            fresh = ground_symmetry(op, model.band)
            assert table == {name: getattr(fresh, name) for name in (
                "xi", "epsilon", "dist_full_measured", "dist_full_bound",
                "dist_band_measured", "dist_band_bound")}

    def test_eigshare_report(self, tmp_path):
        spec = ModelSpec(kind="clock-block", g=3, n_excited=6, gap=1.0, seed=11,
                         perturbation_strength=0.02)
        manifest = tmp_path / "model.json"
        manifest.write_text(spec.to_json())
        out = tmp_path / "eigshare.json"
        rc = main(["eigshare", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        for variant in ("general", "normal_variant"):
            table = doc[variant]
            assert table["residual_a"] <= table["bound"] + 1e-10
            assert table["residual_b"] <= table["bound"] + 1e-10
            assert table["b_offdiag_norm"] <= table["b_offdiag_bound"] + 1e-10


class TestCheck:
    def test_valid_certificate_passes(self, tmp_path):
        spec = ModelSpec(kind="clock-block", g=3, n_excited=6, gap=1.0, seed=12,
                         perturbation_strength=0.004)
        manifest = tmp_path / "model.json"
        manifest.write_text(spec.to_json())
        out = tmp_path / "cert.json"
        main(["certify", "--manifest", str(manifest), "--out", str(out)])
        assert main(["check", str(out)]) == 0

    def test_tampered_certificate_fails(self, tmp_path):
        spec = ModelSpec(kind="clock-block", g=3, n_excited=6, gap=1.0, seed=13)
        manifest = tmp_path / "model.json"
        manifest.write_text(spec.to_json())
        out = tmp_path / "cert.json"
        main(["certify", "--manifest", str(manifest), "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["certificate"]["d_min"] += 1
        out.write_text(json.dumps(doc))
        assert main(["check", str(out)]) == 3

    @pytest.mark.parametrize("mutate", [
        lambda cert: cert["inputs"].pop("alpha"),
        lambda cert: cert.update(slack="wide"),
        lambda cert: cert["inputs"].update(delta="nan"),
    ], ids=["missing-alpha", "non-numeric-slack", "nan-delta"])
    def test_malformed_certificate_exits_1(self, tmp_path, capsys, mutate):
        out = tmp_path / "direct.json"
        assert main(["certify", "--alpha", "0.25", "--delta", "0.5",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["certificate"]["slack"] is not None
        mutate(doc["certificate"])
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: malformed certificate: ")
