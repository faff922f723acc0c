"""Each command loads only the scipy it calls.  scipy is imported inside the
functions that use it, so the commands that run no dense kernel
(certify --alpha/--delta, check, mountains, minima, brute_min) start without
it, and certify --manifest loads scipy.linalg alone.  Every case runs in a
fresh interpreter against the source tree."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twistcert import ModelSpec
from twistcert.cli import main

ROOT = Path(__file__).resolve().parent.parent

# code that must load no scipy module
SCIPY_FREE = {
    "import": "import twistcert, twistcert.cli",
    "certify-slack": 'assert main(["certify", "--alpha", "0.3", "--delta", "0.01", '
                     '"--out", "c.json"]) == 0',
    "certify-exact": 'assert main(["certify", "--alpha", "0.3", "--delta", "0", '
                     '"--out", "c.json"]) == 0',
    "check": 'assert main(["check", "slack.json"]) == 0\n'
             'assert main(["check", "exact.json"]) == 0',
    "mountains": 'assert main(["mountains", "--alpha-grid", "0.1:0.9:5", '
                 '"--delta-grid", "0.1:2:5", "--out", "m.csv"]) == 0',
    "minima": 'assert main(["minima", "--g", "3", "--out", "m.csv"]) == 0',
    "brute_min": "from twistcert.minima import brute_min\n"
                 "brute_min(3, 0.3, restarts=2)",
}

MANIFESTS = {
    "clock-block": ModelSpec(kind="clock-block", g=3, n_excited=6, gap=1.0, seed=5),
    "tensor-double": ModelSpec(kind="tensor-double", g=2, g2=2, n_excited=4, gap=1.0,
                               seed=8),
}


def loaded_scipy(code: str, cwd: Path) -> list[str]:
    """The scipy modules a fresh interpreter holds after running `code`."""
    script = ("import json, sys\nfrom twistcert.cli import main\n" + code + "\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", sorted(SCIPY_FREE))
def test_loads_no_scipy(case, tmp_path):
    if case == "check":
        for name, delta in (("slack", "0.01"), ("exact", "0")):
            assert main(["certify", "--alpha", "0.3", "--delta", delta,
                         "--out", str(tmp_path / f"{name}.json")]) == 0
    assert loaded_scipy(SCIPY_FREE[case], tmp_path) == []


@pytest.mark.parametrize("kind", sorted(MANIFESTS))
def test_manifest_certify_loads_scipy_linalg_only(kind, tmp_path):
    (tmp_path / "model.json").write_text(MANIFESTS[kind].to_json())
    modules = loaded_scipy('assert main(["certify", "--manifest", "model.json", '
                           '"--out", "c.json"]) == 0', tmp_path)
    assert "scipy.linalg" in modules
    assert not [m for m in modules if m.startswith(("scipy.optimize", "scipy.sparse"))]
