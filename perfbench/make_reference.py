#!/usr/bin/env python3
"""Write reference.json: the digest of every operation any seed can run,
and the cost of every operation a seed can pick.

    python3 perfbench/make_reference.py

Run it only at a commit whose results are trusted.  Every operation of
both scales is run once; it must pass the agreement, recurrence and series
checks, and the digest of its canonical output is recorded.  For the pools
that seeds pick from (workloads.pick_balanced), each operation is also
timed in a fresh process right after its workload's fixed operations, as
in a round, in units of the calibration sample.  The costs only sort the
pools into groups, so they need not be precise.  Takes a few minutes.
"""
from __future__ import annotations

import json
import multiprocessing
import statistics
import sys
import time

import workloads
from worker import HERE, calibration_sample, import_package

PICKED = ("weylrc",)  # hardhex picks by family alone


def cost(workload: str, scale: str, index: int) -> float:
    """Calibrated run time of one pool operation, in a fresh process that
    has just run the workload's fixed operations."""
    pkg = import_package()
    for op in workloads.fixed_ops(workload, scale):
        workloads.execute(op, pkg)
    op = workloads.seeded_pool(workload, scale)[index]
    cal = [calibration_sample() for _ in range(5)]
    t = time.perf_counter()
    workloads.execute(op, pkg)
    d = time.perf_counter() - t
    cal += [calibration_sample() for _ in range(5)]
    return d / statistics.mean(cal)


def main() -> int:
    pkg = import_package()
    ops: dict[str, workloads.Op] = {}
    for scale in workloads.SCALES:
        for w in workloads.WORKLOADS:
            for op in workloads.fixed_ops(w, scale) + workloads.seeded_pool(w, scale):
                ops.setdefault(op.key, op)
    reference: dict[str, dict] = {}
    for key, op in sorted(ops.items()):
        values = workloads.execute(op, pkg)
        entry = {"sha256": workloads.digest(values)}
        # every check but the digest, which is being written
        wrong = workloads.problems(op, values, {key: entry})
        if wrong:
            print(f"{key}: {'; '.join(wrong)}", file=sys.stderr)
            return 1
        reference[key] = entry

    tasks, keys = [], []
    for scale in workloads.SCALES:  # "full" first: its costs matter most
        for w in PICKED:
            for i, op in enumerate(workloads.seeded_pool(w, scale)):
                if op.key not in keys:
                    tasks.append((w, scale, i))
                    keys.append(op.key)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(1, maxtasksperchild=1) as pool:
        costs = pool.starmap(cost, tasks)
    for key, c in zip(keys, costs):
        reference[key]["cost"] = round(c, 2)

    with open(HERE / "reference.json", "w") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
            for k, v in sorted(reference.items())) + "\n}\n")
    print(f"{len(reference)} operations, {len(tasks)} costs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
