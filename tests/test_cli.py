"""End-to-end command-line tests: CSV sweeps with embedded manifests,
certification pipelines from model manifests and from matrix files,
re-validation, and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import twistcert.linalg
from twistcert import (
    ModelSpec,
    certify_double,
    certify_single,
    clock_model,
    ground_symmetry,
    restrict_pair,
)
from twistcert import certify as certify_module
from twistcert import cli as cli_module
from twistcert.cli import main
from twistcert.config import NORM_SVD_BELOW
from twistcert.matio import certificate_to_dict, save_matrix_text


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
        # JSON has no infinity: p = inf is null in the rows, as in no other output
        assert doc["rows"][1] == {"g": 4, "alpha": 0.25, "p": None, "k": 1, "lambda": 0.0}

    @pytest.mark.parametrize("gs", ["0", "3,-2"])
    def test_bad_dimension_named(self, capsys, gs):
        rc = main(["minima", "--g", gs, "--grid", "0:1:3"])
        assert rc == 2
        bad = gs.split(",")[-1]
        assert capsys.readouterr().err.strip() == (
            f"precondition violated: dimension must be positive, got {bad}")

    @pytest.mark.parametrize("flag, value, expected", [
        ("--g", "abc", "comma-separated integers"),
        ("--g", "3,4.5", "comma-separated integers"),
        ("--g", ",,", "comma-separated integers"),
        ("--g", "", "comma-separated integers"),
        ("--p", "abc", "a number or inf"),
        ("--k", "abc", "an integer"),
        ("--k", "1.5", "an integer"),
    ])
    def test_malformed_flag_named(self, capsys, flag, value, expected):
        rc = main(["minima", "--grid", "0:1:3", flag, value])
        assert rc == 1
        assert capsys.readouterr().err.strip() == (
            f"error: bad {flag} value {value!r}; expected {expected}")

    def test_non_finite_alpha_named(self, capsys):
        rc = main(["minima", "--g", "3", "--grid", "nan:nan:1"])
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            "precondition violated: alpha must be finite, got nan")

    def test_huge_twist_row(self, capsys):
        assert main(["minima", "--g", "2", "--grid", "1e308:1e308:1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == ["g,alpha,p,k,lambda", "2,1e+308,inf,1,0"]

    @pytest.mark.parametrize("grid", ["inf:inf:1", "0:-inf:3", "0:1e400:3"])
    def test_infinite_grid_bound_rejected(self, capsys, grid):
        rc = main(["minima", "--g", "3", "--grid", grid])
        assert rc == 1
        assert capsys.readouterr().err.strip() == (
            f"error: bad grid spec {grid!r}; bounds must be finite")

    @pytest.mark.parametrize("argv", [
        ["minima", "--grid", "0:1:0"],
        ["minima", "--grid", "0:1:-2"],
        ["mountains", "--alpha-grid", "0:1:0"],
        ["mountains", "--delta-grid", "0.1:2:0"],
    ], ids=["minima", "minima-negative", "mountains-alpha", "mountains-delta"])
    def test_grid_without_points_rejected(self, capsys, argv):
        rc = main(argv)
        assert rc == 1
        assert capsys.readouterr().err.strip() == (
            f"error: bad grid spec {argv[-1]!r}; n must be at least 1")

    def test_version_has_one_source(self):
        import tomllib

        assert cli_module.RunManifest.build("minima", {}).version == twistcert.__version__
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == twistcert.__version__


# each writes well over a pipe's 64 KiB buffer, so a write fails once the
# reader has closed the pipe
@pytest.mark.parametrize("argv", [["minima", "--grid", "0:1:2001"], ["mountains"]],
                         ids=["minima", "mountains"])
def test_closed_stdout_exits_quietly(argv):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "twistcert.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"# twistcert-manifest: ")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["mountains", "--alpha-grid", "0.3819660112501051:0.4819660112501051:10",
     "--delta-grid", "0.02:2.0:10"],
    ["minima", "--g", "1,2,3,4,5", "--grid", "0:1:21", "--p", "inf"],
])
def test_csv_rows_are_the_17_digit_fields(tmp_path, monkeypatch, argv):
    # the CSV body is byte for byte the rows formatted one field at a time
    write_rows, seen = cli_module._write_rows, []

    def spy(out, manifest, header, rows, fmt="csv"):
        seen.append(rows)
        write_rows(out, manifest, header, rows, fmt)

    monkeypatch.setattr(cli_module, "_write_rows", spy)
    out = tmp_path / "rows.csv"
    assert main([*argv, "--out", str(out)]) == 0
    (rows,) = seen
    _, _, body = read_csv(out)
    assert body == [",".join(f"{x:.17g}" for x in r) for r in rows]
    assert out.read_text().endswith("\n")


class TestMountains:
    def test_reference_rows_present(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["mountains", "--alpha-grid", "0.1:0.9:5",
                   "--delta-grid", "0.1:2:5", "--out", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == "alpha,delta,certified_dim"
        # the worked example: 3 by the arcs, 4 by the determinant floor
        assert any(r.startswith("0.25,0.5,") and r.endswith(",4") for r in rows)

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

    def test_json_rows_hold_numbers(self, tmp_path):
        grid = ["--alpha-grid", "0.1:0.9:3", "--delta-grid", "0.1:2:3"]
        csv_out, json_out = tmp_path / "m.csv", tmp_path / "m.json"
        assert main(["mountains", *grid, "--out", str(csv_out)]) == 0
        assert main(["mountains", *grid, "--format", "json", "--out", str(json_out)]) == 0
        _, _, rows = read_csv(csv_out)
        doc = json.loads(json_out.read_text())
        assert len(doc["rows"]) == len(rows)
        for text, row in zip(rows, doc["rows"]):
            alpha, delta, dim = text.split(",")
            assert type(row["alpha"]) is float and row["alpha"] == float(alpha)
            assert type(row["delta"]) is float and row["delta"] == float(delta)
            assert type(row["certified_dim"]) is int and row["certified_dim"] == int(dim)


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
        assert set(doc["measured"]) == {"xi", "band_gamma", "band_delta",
                                        "band_delta_parts"}

    def test_tensor_double_manifest_swaps_pairs(self, tmp_path):
        """g > g2: the pipeline passes the pairs to the witness and the
        certificate in ascending order of their twist denominators."""
        spec = ModelSpec(kind="tensor-double", g=3, g2=2, n_excited=54, gap=1.0,
                         seed=4, perturbation_strength=1e-6)
        manifest = tmp_path / "model.json"
        manifest.write_text(spec.to_json())
        out = tmp_path / "cert.json"
        rc = main(["certify", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        cert = doc["certificate"]
        assert (cert["d_min"], cert["method"]) == (6, "double-pair")
        assert (cert["inputs"]["d1"], cert["inputs"]["d2"]) == (2, 3)
        assert doc["witness"]["failures"] == []
        assert main(["check", str(out)]) == 0

    def test_xi_too_large_exits_2(self, tmp_path):
        spec = ModelSpec(kind="clock-block", g=2, n_excited=4, gap=1.0, seed=9,
                         perturbation_strength=0.8)
        model = clock_model(spec)
        with pytest.raises(ValueError, match="xi"):  # construction premise of this test
            restrict_pair(model.u, model.v, model.band, model.alpha)
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
        assert doc["certificate"]["d_min"] == 4
        assert doc["certificate"]["method"] == "determinant-floor"
        assert main(["check", str(out)]) == 0

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_exits_2(self, tmp_path, capsys, delta):
        out = tmp_path / "direct.json"
        rc = main(["certify", "--alpha", "0.3", "--delta", delta, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert err == f"precondition violated: delta must be finite, got {delta}"

    def test_linalg_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        spec = ModelSpec(kind="clock-block", g=3, n_excited=6, gap=1.0, seed=5)
        manifest = tmp_path / "model.json"
        manifest.write_text(spec.to_json())

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        monkeypatch.setattr(scipy.linalg, "eigh", no_convergence)
        out = tmp_path / "cert.json"
        rc = main(["certify", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == ["numerical failure: Eigenvalues did not converge"]

    def test_missing_file_exits_1(self, tmp_path):
        rc = main(["certify", "--manifest", str(tmp_path / "nope.json")])
        assert rc == 1

    @pytest.mark.parametrize("field, value", [
        ("perturbation_strength", float("nan")), ("gap", float("inf")),
        ("seed", 1.5), ("seed", -1), ("g", 3.0), ("n_excited", 6.0), ("g2", 2.0),
    ])
    def test_malformed_model_field_exits_1(self, tmp_path, capsys, field, value):
        fields = {"kind": "tensor-double", "g": 3, "g2": 2, "n_excited": 6,
                  "gap": 1.0, "seed": 1}  # a valid manifest but for `field`
        manifest = tmp_path / "model.json"
        manifest.write_text(json.dumps({**fields, field: value}))
        out = tmp_path / "cert.json"
        rc = main(["certify", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "Traceback" not in err[0]
        assert err[0].startswith(f"error: bad model manifest {manifest}: {field} ")

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

    @pytest.mark.parametrize("argv, flag", [
        (["--delta", "0.5"], "--delta"),
        (["--alpha", "0.25"], "--alpha"),
        (["--gap", "3"], "--gap"),
        (["--width", "0.1"], "--width"),
        (["--u", "u.mat"], "--u"),
    ])
    def test_manifest_route_rejects_unread_flag(self, tmp_path, capsys, argv, flag):
        spec = ModelSpec(kind="clock-block", g=3, n_excited=6, gap=1.0, seed=5)
        manifest = tmp_path / "model.json"
        manifest.write_text(spec.to_json())
        out = tmp_path / "cert.json"
        rc = main(["certify", "--manifest", str(manifest), *argv, "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: certify --manifest does not read {flag}"]

    @pytest.mark.parametrize("argv, flag", [
        (["--gap", "3"], "--gap"),
        (["--width", "0.1"], "--width"),
        (["--hamiltonian", "h.mat"], "--hamiltonian"),
        (["--projector", "p.mat"], "--projector"),
    ])
    def test_direct_route_rejects_unread_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "direct.json"
        rc = main(["certify", "--alpha", "0.25", "--delta", "0.5", *argv,
                   "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: certify --delta does not read {flag}"]

    def test_malformed_matrix_exits_1(self, tmp_path):
        bad = tmp_path / "bad.mat"
        bad.write_text("2 2\n1 0\n")
        rc = main(["certify", "--hamiltonian", str(bad), "--projector", str(bad),
                   "--u", str(bad), "--v", str(bad), "--alpha", "0.5"])
        assert rc == 1


def count_factorizations(monkeypatch, n):
    """Counters of n x n SVD, eigvalsh and Cholesky (zpotrf) calls, of n x n
    eigh calls split into full ones (numpy, or scipy without a subset) and
    subset ones (scipy's subset_by_index), of norm_upper's SVD fallbacks on
    n x n inputs, and of Schur calls of any shape, patched into numpy, scipy
    and twistcert.linalg for the rest of the test."""
    counts = {"svd": 0, "eigh": 0, "eigh_subset": 0, "eigvalsh": 0, "cholesky": 0,
              "svd_fallback": 0, "schur": 0}

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
    scipy_eigh = scipy.linalg.eigh

    def eigh(a, *args, **kwargs):
        if np.shape(a) == (n, n):
            counts["eigh_subset" if kwargs.get("subset_by_index") is not None else "eigh"] += 1
        return scipy_eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", eigh)
    monkeypatch.setattr(scipy.linalg.lapack, "zpotrf",
                        counting("cholesky", scipy.linalg.lapack.zpotrf, square_only=True))
    monkeypatch.setattr(twistcert.linalg, "_svd_estimate",
                        counting("svd_fallback", twistcert.linalg._svd_estimate,
                                 square_only=True))
    monkeypatch.setattr(scipy.linalg, "schur",
                        counting("schur", scipy.linalg.schur, square_only=False))
    return counts


class TestFactorizationBudget:
    # above config.NORM_SVD_BELOW, where norm_upper estimates by Lanczos
    N = 108

    def test_single_pair_certify(self, tmp_path, monkeypatch):
        """certify --manifest on a single pair runs no dense n x n SVD beyond
        norm_upper's counted fallbacks, one Cholesky proof for each of its
        four norms (perturbation scale, two epsilons, ambient delta), no full
        eigh, the model's one subset eigensolve, no eigvalsh and no Schur
        reduction."""
        n = self.N
        assert n >= NORM_SVD_BELOW
        spec = ModelSpec(kind="clock-block", g=3, n_excited=n - 3, gap=1.0, seed=9,
                         width=0.02, perturbation_strength=0.01)
        manifest = tmp_path / "model.json"
        manifest.write_text(spec.to_json())
        counts = count_factorizations(monkeypatch, n)
        rc = main(["certify", "--manifest", str(manifest),
                   "--out", str(tmp_path / "cert.json")])
        assert rc == 0
        assert counts["svd"] == counts["svd_fallback"] == 0
        assert counts["cholesky"] == 4
        assert counts["eigh"] == 0
        assert counts["eigh_subset"] == 1
        assert counts["eigvalsh"] == 0
        assert counts["schur"] == 0

    def test_tensor_double_certify(self, tmp_path, monkeypatch):
        """The two-pair pipeline diagonalizes H once, by the model's subset
        eigensolve, and runs one Cholesky proof for each of its five n x n
        norms (perturbation scale, the four operators' epsilons) with no
        n x n SVD beyond norm_upper's counted fallbacks: the five ambient
        pair values are not measured."""
        n = self.N
        spec = ModelSpec(kind="tensor-double", g=2, g2=3, n_excited=n - 6, gap=1.0,
                         seed=9, perturbation_strength=0.005)
        manifest = tmp_path / "model.json"
        manifest.write_text(spec.to_json())
        counts = count_factorizations(monkeypatch, n)
        rc = main(["certify", "--manifest", str(manifest),
                   "--out", str(tmp_path / "cert.json")])
        assert rc == 0
        assert counts["svd"] == counts["svd_fallback"] == 0
        assert counts["cholesky"] == 5
        assert counts["eigh"] == 0
        assert counts["eigh_subset"] == 1
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

    @pytest.mark.parametrize("command", ["restrict", "eigshare"])
    def test_tensor_double_manifest_exits_2(self, tmp_path, capsys, monkeypatch,
                                            command):
        """A valid tensor-double manifest is outside these reports' scope: a
        precondition exit, refused before the model is built."""
        spec = ModelSpec(kind="tensor-double", g=2, g2=3, n_excited=6, gap=1.0,
                         seed=4)
        manifest = tmp_path / "model.json"
        manifest.write_text(spec.to_json())
        monkeypatch.setattr(cli_module, "tensor_double_model", None)
        out = tmp_path / "report.json"
        rc = main([command, "--manifest", str(manifest), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == [f"precondition violated: {command} reports cover "
                       "single-pair models"]


# Certificates of kinds that no certifier writes any more: the arc
# certifier's, as `certify --alpha 0.25 --delta 0.5` and certify_double(2, 3,
# 1e-2, 1e-3) gave them before the determinant floor replaced it, and a
# lambda-exclusion one listing the excluded dimensions g <= 64 at (0.25, 0.5).
# check refuses them as malformed.
GREEDY = json.loads(
    '{"d_min": 3, "inputs": {"alpha": 0.25, "delta": 0.5}, "method": "greedy-transversal", '
    '"slack": 0.49999999999899647, "witness": {"forced_angle": 0.0, '
    '"minimal_interval_count": 3, "packing": [1, -1], "packing_delta": 0.9999999999989965, '
    '"stab_angles": [2.617993877991494, 5.759586531581288]}}')
GREEDY_FALLBACK = json.loads(
    '{"d_min": 3, "inputs": {"d1": 2, "d2": 3, "delta": 0.001, "gamma": 0.01}, '
    '"method": "greedy-transversal", "slack": 0.4989999999995637, "witness": '
    '{"double_pair_threshold_failed_by": 0.5850000000000001, "forced_angle": 0.0, '
    '"minimal_interval_count": 2, "packing": [1, -1], "packing_delta": 0.4999999999995637, '
    '"single_pair_twist": 0.3333333333333333, "stab_angles": [2.139120189561929, '
    '4.233515291955125]}}')
LAMBDA_EXCLUSION = json.loads(
    '{"d_min": 4, "inputs": {"alpha": 0.25, "delta": 0.5, "g_max": 64, "k": 1, "p": "inf"}, '
    '"method": "lambda-exclusion", "slack": 0.01763809020504148, "witness": '
    '{"excluded_dimensions": [1, 2, 3, 6]}}')


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

    @staticmethod
    def certificate_doc(kind, tmp_path):
        """A valid certificate document of the given kind: a direct one as
        `certify --alpha --delta` writes it, a pipeline one as
        `certify --manifest` writes it, the others built in process, or a
        direct one wrapped in a top-level list."""
        built = {
            "closed-form": lambda: certify_single(0.25, 0.0),
            "double-pair": lambda: certify_double(2, 3, 1e-8, 1e-8),
            # the two-pair threshold fails
            "double-fallback": lambda: certify_double(2, 3, 1e-2, 1e-3),
            # ... at a delta below the floor search's least delta
            "small-delta-fallback": lambda: certify_double(2, 2, 1e-2, 1e-8),
        }
        if kind in built:
            return {"certificate": certificate_to_dict(built[kind]())}
        if kind == "pipeline":
            spec = ModelSpec(kind="clock-block", g=3, n_excited=6, gap=1.0, seed=12,
                             perturbation_strength=0.004)
            manifest = tmp_path / "model.json"
            manifest.write_text(spec.to_json())
            out = tmp_path / "pipeline.json"
            assert main(["certify", "--manifest", str(manifest), "--out", str(out)]) == 0
            return json.loads(out.read_text())
        out = tmp_path / "direct.json"
        assert main(["certify", "--alpha", "0.25", "--delta", "0.5",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["certificate"]["slack"] is not None
        return [doc] if kind == "top-level-list" else doc

    @pytest.mark.parametrize("kind", ["closed-form", "double-pair", "double-fallback",
                                      "small-delta-fallback", "direct"])
    def test_unmodified_certificate_passes(self, tmp_path, capsys, kind):
        out = tmp_path / "cert.json"
        out.write_text(json.dumps(self.certificate_doc(kind, tmp_path)))
        capsys.readouterr()
        assert main(["check", str(out)]) == 0
        assert capsys.readouterr().out == "certificate re-verified\n"

    @pytest.mark.parametrize("kind, mutate", [
        ("direct", lambda doc: doc["certificate"]["inputs"].pop("alpha")),
        ("direct", lambda doc: doc["certificate"].update(slack="wide")),
        ("direct", lambda doc: doc["certificate"]["inputs"].update(delta="nan")),
        ("direct", lambda doc: doc["certificate"].update(d_min=3.5)),
        ("top-level-list", lambda doc: None),
        ("double-pair", lambda doc: doc["certificate"]["inputs"].update(d1=2.9)),
        ("double-pair", lambda doc: doc["certificate"]["inputs"].update(d2=3.5)),
        ("double-fallback", lambda doc: doc["certificate"]["witness"].update(
            double_pair_threshold_failed_by="wide")),
        ("double-fallback", lambda doc: doc["certificate"]["witness"].pop(
            "double_pair_threshold_failed_by")),
        ("direct", lambda doc: doc["certificate"].update(
            d_min=str(doc["certificate"]["d_min"]))),
        ("direct", lambda doc: doc["certificate"].update(
            d_min=float(doc["certificate"]["d_min"]))),
        ("direct", lambda doc: doc["certificate"].update(d_min=True)),
        ("direct", lambda doc: doc["certificate"].update(inputs=[0.25, 0.5])),
        ("direct", lambda doc: doc["certificate"].update(method="orbit-count")),
        ("direct", lambda doc: doc["certificate"].update(d_min=0)),
        ("direct", lambda doc: doc.update(certificate=GREEDY)),
        ("direct", lambda doc: doc.update(certificate=GREEDY_FALLBACK)),
        ("direct", lambda doc: doc.update(certificate=LAMBDA_EXCLUSION)),
    ], ids=["missing-alpha", "non-numeric-slack", "nan-delta", "fractional-d_min",
            "top-level-list", "fractional-d1", "fractional-d2", "non-numeric-failed_by",
            "missing-failed_by", "string-d_min", "integral-float-d_min", "bool-d_min",
            "inputs-a-list", "unknown-method", "zero-d_min", "legacy-greedy",
            "legacy-greedy-fallback", "legacy-lambda-exclusion"])
    def test_malformed_certificate_exits_1(self, tmp_path, capsys, kind, mutate):
        out = tmp_path / "cert.json"
        doc = self.certificate_doc(kind, tmp_path)
        mutate(doc)
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: malformed certificate: ")
        method = kind != "top-level-list" and doc["certificate"]["method"]
        if method and method not in certify_module.METHODS:
            assert err[0] == f"error: malformed certificate: unknown method {method!r}"

    @pytest.mark.parametrize("kind, mutate, reason", [
        ("direct", lambda cert: cert.update(d_min=cert["d_min"] + 1), "overstates"),
        ("pipeline", lambda cert: cert.update(d_min=cert["d_min"] + 1), "overstates"),
        ("double-fallback", lambda cert: cert.update(d_min=cert["d_min"] + 1), "overstates"),
        ("double-fallback", lambda cert: cert["inputs"].update(gamma=0.0),
         "the double-pair threshold holds"),
        ("double-fallback", lambda cert: cert["witness"].update(single_pair_twist=0.25),
         "is neither 1/d1 nor 1/d2"),
        ("double-fallback", lambda cert: cert["witness"].update(
            double_pair_threshold_failed_by=cert["witness"]["double_pair_threshold_failed_by"]
            * (1 + 1e-15)), "differs from lhs - rhs"),
    ], ids=["direct-d_min+1", "pipeline-d_min+1", "fallback-d_min+1",
            "fallback-threshold-holds", "fallback-wrong-twist", "fallback-failed_by-edited"])
    def test_failing_witness_exits_3(self, tmp_path, capsys, kind, mutate, reason):
        doc = self.certificate_doc(kind, tmp_path)
        self.assert_check_fails(tmp_path, capsys, doc, mutate, reason)

    @staticmethod
    def assert_check_fails(tmp_path, capsys, doc, mutate, reason):
        out = tmp_path / "cert.json"
        mutate(doc["certificate"])
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(out)]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and reason in lines[0]

    @pytest.mark.parametrize("kind, mutate, reason", [
        ("double-pair", lambda cert: cert["inputs"].update(gamma=0.01),
         "the double-pair threshold fails"),
        ("double-pair", lambda cert: cert["inputs"].update(gamma=0.01, delta=1e-3),
         "the double-pair threshold fails"),
        ("double-pair", lambda cert: cert.update(slack=cert["slack"] * (1 + 1e-7)),
         "must equal d1 d2"),
        ("double-pair", lambda cert: cert.update(d_min=cert["d_min"] + 1),
         "must equal d1 d2"),
        ("double-pair", lambda cert: cert.update(witness={"lhs": "junk"}),
         "must equal d1 d2"),
        ("closed-form", lambda cert: cert.update(slack=None), "and slack None must be"),
        ("closed-form", lambda cert: cert.update(witness={"denominator": 7}),
         "must be the denominator 4"),
        ("closed-form", lambda cert: cert.update(d_min=cert["d_min"] + 1),
         "must be the denominator 4"),
        ("closed-form", lambda cert: cert["inputs"].update(delta=0.5), "needs delta = 0"),
        ("closed-form", lambda cert: cert["witness"].update(exact=False),
         "witness.exact False must be true"),
    ], ids=["double-gamma-edited", "double-gamma-and-delta-edited", "double-slack-edited",
            "double-d_min+1", "double-witness-junk", "closed-form-null-slack",
            "closed-form-denominator-edited", "closed-form-d_min+1", "closed-form-delta-edited",
            "closed-form-not-exact"])
    def test_failing_certificate_exits_3(self, tmp_path, capsys, kind, mutate, reason):
        doc = self.certificate_doc(kind, tmp_path)
        self.assert_check_fails(tmp_path, capsys, doc, mutate, reason)

    @pytest.mark.parametrize("kind, edit, code", [
        ("direct", None, 0), ("pipeline", None, 0), ("closed-form", None, 0),
        ("double-pair", None, 0), ("double-fallback", None, 0),
        ("small-delta-fallback", None, 0),
        ("double-pair", {"gamma": 0.01, "delta": 1e-3}, 3),
    ], ids=["direct", "pipeline", "closed-form", "double-pair", "double-fallback",
            "small-delta-fallback", "double-gamma-edited"])
    def test_witness_check_runs_no_sweep(self, tmp_path, monkeypatch, kind, edit, code):
        doc = self.certificate_doc(kind, tmp_path)
        doc["certificate"]["inputs"].update(edit or {})
        out = tmp_path / "cert.json"
        out.write_text(json.dumps(doc))

        def refuse(*args, **kwargs):
            raise AssertionError("check ran the certifier")

        for name in ("certify_single", "certify_double", "minimal_intervals"):
            monkeypatch.setattr(certify_module, name, refuse)
        for name in ("certify_single", "certify_double"):
            monkeypatch.setattr(cli_module, name, refuse)
        assert main(["check", str(out)]) == code

    def test_mountains_runs_one_sweep(self, tmp_path, monkeypatch):
        """A tile's cells share one floor search, with no arc sweep."""
        calls = []
        search = certify_module._floor_search

        def counted(alpha, delta, *args):
            calls.append(alpha.size)
            return search(alpha, delta, *args)

        monkeypatch.setattr(certify_module, "_floor_search", counted)
        monkeypatch.setattr(certify_module, "minimal_intervals", None)
        assert main(["mountains", "--alpha-grid", "0.3:0.4:10", "--delta-grid", "0.02:2:10",
                     "--out", str(tmp_path / "tile.csv")]) == 0
        assert calls == [108]

    @pytest.mark.parametrize("mutate, reason", [
        (lambda cert: cert.update(d_min=cert["d_min"] + 1), "overstates"),
        (lambda cert: cert.update(d_min=cert["d_min"] - 1), "exceeds delta"),
        (lambda cert: cert.update(slack=math.nextafter(cert["slack"], math.inf)),
         "differs from the least floor"),
        (lambda cert: cert.update(slack=math.nextafter(cert["slack"], 0.0)),
         "differs from the least floor"),
        (lambda cert: cert["inputs"].update(delta=0.4), "differs from the least floor"),
        (lambda cert: cert["inputs"].update(delta=0.6), "overstates"),
        (lambda cert: cert.update(slack=None), "differs from the least floor"),
        (lambda cert: cert["inputs"].update(delta=0.0), "needs delta > 0"),
    ], ids=["d_min+1", "d_min-1", "slack-ulp-up", "slack-ulp-down", "delta-lowered",
            "delta-raised", "slack-null", "delta-zero"])
    def test_failing_floor_certificate_exits_3(self, tmp_path, capsys, mutate, reason):
        doc = self.certificate_doc("direct", tmp_path)
        assert doc["certificate"]["method"] == "determinant-floor"
        self.assert_check_fails(tmp_path, capsys, doc, mutate, reason)

    def test_floor_recheck_of_a_huge_d_min_stops_early(self, tmp_path, capsys, monkeypatch):
        """An edited d_min = 10**9 at delta = 1e-3 fails at the first
        dimension whose floor reaches delta, within ceil(2 pi / delta)."""
        out = tmp_path / "cert.json"
        assert main(["certify", "--alpha", "0.3", "--delta", "1e-3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["certificate"]["d_min"] = 10 ** 9
        out.write_text(json.dumps(doc))
        seen = []
        floor = certify_module.lambda_low

        def counted(gs, alpha):
            seen.append(gs.size)
            return floor(gs, alpha)

        monkeypatch.setattr(certify_module, "lambda_low", counted)
        capsys.readouterr()
        assert main(["check", str(out)]) == 3
        assert "overstates" in capsys.readouterr().out
        assert sum(seen) <= math.ceil(2 * math.pi / 1e-3)
