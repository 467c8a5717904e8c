#!/usr/bin/env python3
"""Self-test of the benchmark; takes some seconds.

    python3 bench/selftest.py

1. Every workload runs at tiny heights (``--quick``), untraced and traced;
   the result must be correct, name exactly the metrics of BENCHMARK.json
   and fail only the known hull depth fault, once per pass.
2. Each operation's output is corrupted in one place (a weight dropped, a
   multiplicity or coefficient changed, a report detail altered) and its
   check must notice.  The depth-limited hull check must pass the complete
   set and a set flagged incomplete, and refuse the truncated set without
   the flag.
3. The benchmark run in a directory without the program must exit nonzero
   and print no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import rootsys
from run import BENCH, OUT, ROOT, WORKLOADS, import_program


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def check_runs(errors):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--quick")
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            per_pass = 1 if workload == "cross_hull" else 0
            passes = int(next(line.split()[2] for line in proc.stdout.splitlines()
                              if line.startswith(f"# {workload}: ")))
            if not res["correct"] or res["failed"] != per_pass * passes:
                errors.append(f"{tag}: correct={res['correct']} failed={res['failed']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                errors.append(f"{tag}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got) ^ set(want))}")
            print(f"ok   {tag}: {res['attempted']} attempted, {res['failed']} failed")


def _corrupt(op, result):
    """The output with one deliberate error in it."""
    if op.kind == "mults":
        c = max(c for c, m in result.items() if m)
        return {**result, c: result[c] + 1}
    rc, text = result
    doc = json.loads(text)
    if op.kind == "weights":
        k = len(doc["offsets"]) - 1
        del doc["offsets"][k], doc["pairings"][k]
    elif op.kind == "series":
        doc[-1]["coefficient"] += 1
    elif op.kind == "roots":
        doc.pop()
    else:
        check = doc["check"]
        d = doc["details"]
        if check == "cross":
            d["slice_size"] += 1
        elif check == "denominator":
            d["bases"] += 1
        elif check == "macdonald":
            d["rhs"].pop()
        elif check == "wkw":
            d["discrepancy"] = d["discrepancy"][1:] or [{"offset": [1] * len(op.q),
                                                         "coefficient": 1}]
        elif check == "integrability":
            d["preserving"].pop()
    return rc, json.dumps(doc)


def check_corruptions(errors):
    import_program()
    import cases

    refs = cases.Refs()
    for workload in WORKLOADS:
        for op in cases.build(workload, OUT / "inputs", quick=True):
            result = op.call()
            fault = op.check(op, result, refs)
            if op.known_fault is not None:
                check_known_fault(op, result, refs, errors)
                continue
            if fault:
                errors.append(f"{op.name}: fault on a good output: {fault}")
            elif op.check(op, _corrupt(op, result), refs) is None:
                errors.append(f"{op.name}: corrupted output passed its check")
            else:
                print(f"ok   corrupt {op.name}")


def check_known_fault(op, result, refs, errors):
    rc, text = result
    doc = json.loads(text)
    full = sorted(refs.slice(op, op.height))
    good = dict(doc, offsets=[list(c) for c in full],
                pairings=[[str(rootsys.pairing(op.a, op.q, c, i)) for i in range(len(c))]
                          for c in full])
    cases_ = [("truncated, unflagged", doc, False),
              ("truncated, flagged incomplete", dict(doc, complete=False), True),
              ("truncated, flagged complete", dict(doc, complete=True), False),
              ("complete set", good, True)]
    for label, d, ok in cases_:
        passed = op.check(op, (rc, json.dumps(d)), refs) is None
        if passed != ok:
            errors.append(f"{op.name}: {label} {'failed' if ok else 'passed'} its check")
        else:
            print(f"ok   {op.name}: {label} {'passes' if ok else 'fails'}")


def check_bare_directory(errors):
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "--workload", "cross_hull", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok   bare directory: exit {proc.returncode}")


def main() -> int:
    errors = []
    check_runs(errors)
    check_corruptions(errors)
    check_bare_directory(errors)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
