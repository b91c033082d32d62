#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent commit and the working tree.

    python3 scripts/bench_pairs.py --parent HEAD --pairs 10 \\
        --claim hardhex:wall_cal --out BENCH_N.json

Copies the parent commit (``git archive``) and the working tree (the files
``git ls-files`` lists, untracked files that git does not ignore included)
into a temporary directory; ``perfbench/`` and ``BENCHMARK.json`` must be
the same in both.  For each workload of ``BENCHMARK.json`` and pair N =
1..pairs it runs, with S its ``run_seconds``,

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

in both copies, the parent first in odd pairs and the change first in even
ones.  The output holds every run, a summary per workload and end-to-end
metric (medians, quartiles by ``statistics.quantiles(n=4)``, the number of
pairs in which the change reads lower, ties counting for neither, and the
share of failed operations) and, with ``--claim``, the claimed metric
against the parent's inter-quartile range.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def copy_parent(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest)


def copy_working_tree(dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard").decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            (dest / name).write_bytes(src.read_bytes())


def benchmark_files(root: Path) -> dict[str, bytes]:
    files = [root / "BENCHMARK.json", *sorted((root / "perfbench").rglob("*"))]
    return {str(f.relative_to(root)): f.read_bytes() for f in files
            if f.is_file() and "__pycache__" not in f.parts}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its end-to-end metrics and operation counts."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{root.name} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"metrics": {k: v["value"] for k, v in last["metrics"].items()},
            "failed": last["failed"], "attempted": last["attempted"],
            "correct": last["correct"]}


def run_pairs(roots: dict[str, Path], workloads: list[str], pairs: int,
              seconds: float) -> list[dict]:
    runs = []
    for workload in workloads:
        for pair in range(1, pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                print(f"{workload} pair {pair} {side}", file=sys.stderr,
                      flush=True)
                runs.append({"pair": pair, "workload": workload,
                             "seed": pair, "side": side, "first": order[0],
                             **run_once(roots[side], workload, pair,
                                        seconds)})
    return runs


def _r(x: float) -> float:
    return round(x, 4)


def summarize(runs: list[dict], metrics: list[str]) -> dict:
    """Per workload and metric: each side's median and quartiles, the
    number of pairs in which the change reads lower, and the change of the
    median as a fraction of the parent's; per workload, each side's share
    of failed operations."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {(r["pair"], r["side"]): r for r in mine}
        pairs = sorted({p for p, _ in by_pair if (p, "parent") in by_pair
                        and (p, "change") in by_pair})
        summary: dict = {}
        for m in metrics:
            side = {s: [by_pair[p, s]["metrics"][m] for p in pairs]
                    for s in SIDES}
            row: dict = {"pairs": len(pairs)}
            for s in SIDES:
                q1, _, q3 = statistics.quantiles(side[s], n=4)
                row[f"{s}_median"] = _r(statistics.median(side[s]))
                row[f"{s}_quartiles"] = [_r(q1), _r(q3)]
            row["change_lower_in"] = sum(c < p for p, c in
                                         zip(side["parent"], side["change"]))
            row["median_change_frac"] = _r(
                statistics.median(side["change"])
                / statistics.median(side["parent"]) - 1)
            summary[m] = row
        summary["fail_frac"] = {
            s: _r(sum(r["failed"] for r in mine if r["side"] == s)
                  / sum(r["attempted"] for r in mine if r["side"] == s))
            for s in SIDES}
        out[workload] = summary
    return out


def claimed(summary: dict, workload: str, metric: str) -> dict:
    """The claimed metric: pairs won by the change, the change of the
    median, the parent's inter-quartile range and the gap of the medians
    (parent minus change)."""
    row = summary[workload][metric]
    q1, q3 = row["parent_quartiles"]
    return {"workload": workload, "metric": metric,
            "change_lower_in": row["change_lower_in"], "pairs": row["pairs"],
            "median_change_frac": row["median_change_frac"],
            "parent_iqr": _r(q3 - q1),
            "median_gap": _r(row["parent_median"] - row["change_median"])}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD",
                    help="the commit the working tree is compared with")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    metrics = [m["name"] for m in spec["end_to_end"]]
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    claim = args.claim.split(":") if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in workloads
                  or claim[1] not in metrics):
        ap.error(f"--claim names no workload and metric run: {args.claim}")

    parent = git("rev-parse", args.parent).decode().strip()
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {s: Path(tmp) / s for s in SIDES}
        copy_parent(parent, roots["parent"])
        copy_working_tree(roots["change"])
        if benchmark_files(roots["parent"]) != benchmark_files(
                roots["change"]):
            print("error: perfbench/ or BENCHMARK.json differs between the "
                  "parent and the working tree", file=sys.stderr)
            return 1
        runs = run_pairs(roots, workloads, args.pairs, seconds)

    summary = summarize(runs, metrics)
    report = {
        "command": "python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {seconds} --trace 0",
        "method": f"{args.pairs} pairs per workload; pair N runs seed N on "
                  "both sides back to back, parent first in odd pairs and "
                  "change first in even pairs; the parent is a git archive "
                  "copy of the parent commit and the change a copy of the "
                  "working tree (git ls-files), with the same perfbench/. "
                  "Quartiles are statistics.quantiles(n=4). Written by "
                  "scripts/bench_pairs.py.",
        "parent": parent,
        "host": f"{os.cpu_count()} cores, Python "
                f"{platform.python_version()}, {platform.system()}",
        # with it set, every round compiles the package from source
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "claimed": claimed(summary, *claim) if claim else None,
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
