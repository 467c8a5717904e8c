#!/usr/bin/env python3
"""Benchmark of kmweights: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload cross_hull --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, and inputs and span files go to ``.bench_out/`` there.  A run
makes whole passes over the workload's operations, in an order drawn from
the seed, until the next pass would end after ``--seconds``; every output of
every pass is checked.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
fresh-interpreter import plus first CLI call), ``pass_s`` (a pass made of each
operation's median time, checks not timed), ``op_p50_s`` (median over
operations of their median times) and ``peak_rss_mib``.  Times are in
reference seconds: each wall time is scaled by REFERENCE_S over the time of
`reference_loop` measured just before and after it (README.md).  With
``--trace 1`` passes alternate untraced and traced, starting untraced; the
metrics are the per-layer ones from the traced passes (see tracing.METRICS),
and the spans of the first traced pass are written to ``.bench_out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cross_hull", "oracle_truth", "series_deep")
SETUP_PER_PASS = 2
SETUP_MAX = 24
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from kmweights.cli import run; sys.exit(run(sys.argv[2:]))"
)
UNITS = {"setup_s": "s", "pass_s": "s", "op_p50_s": "s", "peak_rss_mib": "MiB"}
REFERENCE_S = 0.003

now = time.perf_counter


def reference_loop():
    """Fixed exact-arithmetic work that is not kmweights: Gaussian elimination
    of the 9x9 Hilbert matrix over Fractions, then tuple keys into a dict."""
    n = 9
    m = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    d = {}
    for i in range(3000):
        k = (i % 37, i % 11, i % 5)
        d[k] = d.get(k, 0) + i
    return m[-1][-1], len(d)


def reference_time() -> float:
    t = now()
    reference_loop()
    return now() - t


def normalized(wall: float, before: float, after: float) -> float:
    """Wall time in reference seconds, from the reference loop around it.

    The speed of a shared machine swings by tens of percent within seconds
    and from minute to minute; the ratio to the reference loop measured at
    the same moment is what repeats.
    """
    return wall * 2 * REFERENCE_S / (before + after)


def import_program():
    """Put the checkout's sources first on the path; refuse to run without them."""
    if not (SRC / "kmweights" / "__init__.py").is_file():
        sys.exit(f"bench: no kmweights sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import kmweights

    if Path(kmweights.__file__).resolve().parent != SRC / "kmweights":
        sys.exit(f"bench: imported kmweights from {kmweights.__file__}, not {SRC}")


def launch_setup(input_path: str) -> tuple[float, float]:
    """Wall and reference time of a fresh interpreter importing kmweights and
    classifying.

    ``-S -E``: the site import and PYTHON* variables depend on the machine's
    installed packages and environment, not on kmweights.
    """
    argv = [sys.executable, "-S", "-E", "-c", SETUP_CODE, str(SRC),
            "classify", "--input", input_path]
    before = reference_time()
    t = now()
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    dt = now() - t
    if proc.returncode != 0:
        sys.exit(f"bench: set-up call failed: {proc.stderr.decode()}")
    return dt, normalized(dt, before, reference_time())


def run_workload(workload, seed, seconds, trace, quick):
    import cases
    from tracing import METRICS, Tracer

    ops = cases.build(workload, OUT / "inputs", quick)
    setup_input = cases.Builder(OUT / "inputs").input_path("aff_rank3", None)
    setup_times = []
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    else:
        launch_setup(setup_input)  # may compile bytecode; not counted

    refs = cases.Refs()
    rng = random.Random(seed)
    attempted = failed = 0
    faults, known = [], set()
    op_times = {op.name: [] for op in ops}
    if len(op_times) != len(ops):
        sys.exit(f"bench: operation names of {workload} are not unique")
    traced_times = {op.name: [] for op in ops}
    wall_times = {op.name: [] for op in ops}
    reference_times = []
    traced, pass_walls = [], []
    start = now()
    passno = 0
    while True:
        order = list(ops)
        rng.shuffle(order)
        tracing = tracer is not None and passno % 2 == 1
        gc.collect()
        pass_start = now()
        if tracing:
            tracer.reset()
            tracer.recording = passno == 1
            tracer.active = True
        results = []
        before = reference_time()
        for op in order:
            if tracer is not None:
                tracer.op = f"{passno}:{op.name}"
            t = now()
            try:
                result = op.call()
            except Exception as exc:  # counted as a failed operation below
                result = exc
            wall = now() - t
            after = reference_time()
            (traced_times if tracing else op_times)[op.name].append(
                normalized(wall, before, after))
            if not tracing:
                wall_times[op.name].append(wall)
                reference_times.append(after)
            before = after
            results.append((op, result))
        if tracing:
            tracer.active = False
            traced.append(tracer.metrics())
        for op, result in results:
            attempted += 1
            if isinstance(result, Exception):
                fault = f"raised {result!r}"
            else:
                try:
                    fault = op.check(op, result, refs)
                except Exception as exc:
                    fault = f"check raised {exc!r}"
            if fault is None:
                continue
            failed += 1
            if op.known_fault is not None:
                known.add(f"{op.name}: {fault} [{op.known_fault}]")
            else:
                faults.append(f"pass {passno}: {op.name}: {fault}")
        passno += 1
        # Set-up launches are spread over the run, between passes, so that
        # their median sees the same machine as the passes do.
        for _ in range(SETUP_PER_PASS if tracer is None else 0):
            if len(setup_times) < SETUP_MAX:
                setup_times.append(launch_setup(setup_input))
        pass_walls.append(now() - pass_start)
        # Stop when a typical pass, checks and set-up launches included,
        # would end after the run's time.
        elapsed = now() - start
        if (tracer is None or traced) and elapsed + statistics.median(pass_walls) > seconds:
            break

    typical = [statistics.median(t) for t in op_times.values()]
    if tracer is None:
        walls = [statistics.median(t) for t in wall_times.values()]
        print(f"# wall time, not normalized: setup_s "
              f"{statistics.median(w for w, _ in setup_times):.6g} s, pass_s "
              f"{sum(walls):.6g} s, op_p50_s {statistics.median(walls):.6g} s; "
              f"reference loop median {statistics.median(reference_times):.6g} s")
        values = {
            "setup_s": statistics.median(n for _, n in setup_times),
            "pass_s": sum(typical),
            "op_p50_s": statistics.median(typical),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = UNITS
    else:
        values = {k: statistics.median(row[k] for row in traced) for k in METRICS}
        values["trace.pass_s"] = sum(statistics.median(t) for t in traced_times.values())
        values["trace.overhead_s"] = values["trace.pass_s"] - sum(typical)
        units = METRICS
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write_spans(spans)
        print(f"# spans of traced pass 1: {spans}")

    print(f"# {workload}: {passno} passes of {len(ops)} operations, seed {seed}")
    for line in sorted(known):
        print(f"# known fault, counted failed: {line}")
    for line in faults[:20]:
        print(f"# FAULT {line}")
    for name, value in values.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    return {
        "correct": not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            argv.append("--quick")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{workload}.{k}"] = v
        print(f"# {workload}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
    if code:
        return code
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny heights, for the self-test")
    args = p.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.quick)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
