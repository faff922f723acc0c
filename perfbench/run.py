"""twistcert benchmark: one seeded workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload pipeline-single --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run is split over PARTS worker
processes started one after another (a closed loop with one client); each
imports twistcert from src/, sets up (import, inputs, warm-up) and then
measures for seconds / PARTS.  With --trace 0 the last line of standard output
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run.  Details, the environment record and the spans of a traced run
are written under .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER, layer_metrics, merge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PARTS = 3
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Whole run, set-up of every part included, must end before this.
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[int, float, int]:
    """(q, value, beyond): the highest whole percentile q, not below 50,
    whose nearest-rank value has at least TAIL_BEYOND samples beyond it
    (fewer only when the run has under 2 * TAIL_BEYOND samples)."""
    xs = sorted(values)
    n = len(xs)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= TAIL_BEYOND:
            break
    return q, xs[rank - 1], n - rank


def environment(args) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "twistcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parts": PARTS,
        "threads": {var: THREADS for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_part(args, part: int, deadline: float) -> tuple[dict, float]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({var: THREADS for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed), "--part", str(part),
           "--parts", str(PARTS),
           "--seconds", repr(args.seconds / PARTS), "--trace", str(args.trace)]
    spawned = monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker part {part} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["ready"] - spawned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="twistcert benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "twistcert" / "__init__.py").is_file():
        print(f"error: no twistcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = monotonic() + RUN_LIMIT_S
    reports, setups = [], []
    try:
        for part in range(PARTS):
            report, setup = run_part(args, part, deadline)
            reports.append(report)
            setups.append(setup)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [op for r in reports for op in r["ops"]]
    attempted = len(ops)
    failed = sum(r["failed_count"] for r in reports)
    warm_failures = [f for r in reports for f in r["warmup_failures"]]
    for line in [f for r in reports for f in r["failures"]] + warm_failures:
        print(f"# FAILED {line}", file=sys.stderr)
    correct = attempted > 0 and failed == 0 and not warm_failures

    env = environment(args)
    env.update(reports[0]["library"])
    detail = {"environment": env, "setup_s_parts": setups, "attempted": attempted,
              "failed": failed}
    if args.trace:
        paired = merge([r["trace"]["paired"] for r in reports])
        traced = int(paired["ops"])
        overhead = 1.0 - paired["plain_s"] / paired["traced_s"] if paired["traced_s"] else 0.0
        totals = merge([r["trace"]["totals"] for r in reports])
        gaps = [gap for r in reports for gap in r["trace"]["floor_gaps"]]
        values = layer_metrics(totals, traced, overhead, gaps)
        metrics = {name: {"value": values[name], "unit": _unit(name)} for name in PER_LAYER}
        detail["traced_ops"] = traced
        detail["spans"] = [f".perfbench_out/spans-{args.workload}-part{p}.jsonl"
                           for p in range(PARTS)]
    else:
        op_s = [op[0] for op in ops]
        checks = [op[1] for op in ops if op[1] is not None]
        passed = sum(1 for op in ops if op[2])
        q, tail_value, beyond = tail(op_s)
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": passed / sum(r["wall_s"] for r in reports),
            "op_s_p50": statistics.median(op_s),
            "op_s_tail": tail_value,
            "check_s_p50": statistics.median(checks),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
            "pass_frac": passed / attempted,
        }
        metrics = {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}
        detail["op_s_tail"] = {"percentile": q, "samples": len(op_s), "beyond": beyond}
        print(f"# op_s_tail is p{q} of {len(op_s)} ops ({beyond} beyond it)")
    detail["metrics"] = metrics

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True))
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name == "ops_per_s":
        return "1/s"
    if name.endswith("_s") or name.startswith(("op_s", "check_s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_flops"):
        return "flops"
    if name.endswith("_frac"):
        return "ratio"
    if name == "minima.floor_gap_p50":
        return "norm"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
