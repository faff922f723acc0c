"""One benchmark process: import twistcert from the checkout's src/, set up a
workload (inputs and warm-up), run its closed loop for a fixed time and print
one JSON report as the last line of standard output.

run.py starts it with pinned BLAS thread counts, e.g.

    python3 perfbench/worker.py --root . --workload certify-sweep --seed 1 \
        --part 0 --parts 3 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Outcome  # noqa: E402


def library_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def restart_gaps(outcome) -> list[float]:
    """How far above the floor each restart of a descent-oracle query ended."""
    import numpy as np

    eta = np.exp(2j * np.pi * outcome.alpha)
    return [float(np.linalg.norm(u @ v - eta * (v @ u), 2)) - outcome.floor
            for u, v in outcome.finals]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--parts", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import twistcert.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"twistcert imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    out_dir = root / ".perfbench_out"
    (out_dir / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=out_dir / "tmp"))
    try:
        report = run(args, cli, tmp, out_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report["library"] = library_record()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


def _run_op(wl, i: int, cli) -> Outcome:
    t0 = perf_counter()
    try:
        return wl.run(i, cli)
    except Exception:  # an op that raises is a failed op; the loop goes on
        return Outcome(perf_counter() - t0, None,
                       "raised: " + traceback.format_exc(limit=3)[-400:])


def run(args, cli, tmp: Path, out_dir: Path) -> dict:
    wl = WORKLOADS[args.workload](args.seed, tmp)

    def index(k: int) -> int:
        """Op index of this part's k-th op: the parts of a run take
        interleaved indices of one input sequence."""
        return k * args.parts + args.part

    warm_failures = [o.failure for o in (_run_op(wl, -1 - index(k), cli)
                                         for k in range(wl.warmup)) if o.failure]
    ready = monotonic()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    ops, failures = [], []
    # traced mode: seconds spent on the same ops untraced and traced
    paired = {"plain_s": 0.0, "traced_s": 0.0, "ops": 0}
    extra = {"cert_bytes": 0, "certs_written": 0}
    floor_gaps: list[float] = []

    def record(g: int, outcome: Outcome) -> None:
        ops.append([outcome.op_s, outcome.check_s, outcome.failure is None])
        if outcome.failure:
            failures.append(f"op {g}: {outcome.failure}")

    start = perf_counter()
    i = 0
    while perf_counter() - start < args.seconds:
        g = index(i)
        outcome = _run_op(wl, g, cli)
        record(g, outcome)
        if tracer is not None:
            # run the op again, traced; the untraced twin gives the overhead
            tracer.begin_op(g)
            tracer.install()
            try:
                traced = _run_op(wl, g, cli)
            finally:
                tracer.uninstall()
            record(g, traced)
            paired["plain_s"] += outcome.op_s
            paired["traced_s"] += traced.op_s
            paired["ops"] += 1
            if traced.cert_bytes is not None:
                extra["cert_bytes"] += traced.cert_bytes
                extra["certs_written"] += 1
            floor_gaps += restart_gaps(traced)
        i += 1
    wall = perf_counter() - start

    report = {
        "ready": ready,
        "wall_s": wall,
        "ops": ops,
        "failures": failures[:5],
        "failed_count": len(failures),
        "warmup_failures": warm_failures[:5],
    }
    if tracer is not None:
        totals = tracer.totals()
        for key, value in extra.items():
            totals[key] = totals.get(key, 0) + value
        report["trace"] = {"totals": totals, "paired": paired, "floor_gaps": floor_gaps}
        tracer.write(out_dir / f"spans-{args.workload}-part{args.part}.jsonl")
    return report


if __name__ == "__main__":
    sys.exit(main())
