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
share of failed operations), with ``--claim`` the claimed metric against
the parent's inter-quartile range, and the acceptance ``verdict``: whether
the claim is met, whether each metric's median is within its bound, and
whether the share of failed operations went up.

Each ``--reach NAME=COMMAND`` (repeatable; NAME holds no ``=``) adds one
single call of the command line to the ``reach`` section, e.g.

    --reach "X(24)=rr --L 24 --method enumerate"

It runs ``crystalsums COMMAND`` ``--pairs`` times per side, before the
workload pairs, each in a fresh process that imports the copy's package and
times only the ``cli.main`` call, the parent first in odd runs and the
change first in even ones; a call that does not return stops the script.  Per
command it records each side's median seconds, the number of runs in which
the change reads lower, and ``same_sha256``: whether every run on both sides
printed the same stdout and returned the same exit code.  The stdout is
compared with the timing ``ms`` left out of each line that is a JSON
object, as ``scripts/run_verify_matrix.py`` leaves it out of its digests,
so ``verify`` commands compare too (in their default JSON format).
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shlex
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


# One single call through cli.main, in a fresh process whose working
# directory is a copy: the seconds around the call, its exit code and the
# SHA-256 of what it printed, as one JSON line.  A JSON object line is
# hashed without its "ms": each `verify` report times itself.
REACH_CALL = """
import contextlib, hashlib, io, json, os, sys, time
sys.path.insert(0, "src")
from crystalsums import cli
if not os.path.abspath(cli.__file__).startswith(os.path.abspath("src")
                                                + os.sep):
    sys.exit(f"crystalsums was imported from {cli.__file__}")
out = io.StringIO()
with contextlib.redirect_stdout(out):
    t = time.perf_counter()
    code = cli.main(sys.argv[1:])
    seconds = time.perf_counter() - t

def untimed(line):
    try:
        report = json.loads(line)
    except ValueError:
        return line
    if not isinstance(report, dict):
        return line
    report.pop("ms", None)
    return json.dumps(report, sort_keys=True)

text = "\\n".join(untimed(line) for line in out.getvalue().splitlines())
print(json.dumps({"seconds": seconds, "exit": code, "sha256":
                  hashlib.sha256(text.encode()).hexdigest()}))
"""


def reach_once(root: Path, argv: list[str]) -> dict:
    """One fresh-process call of ``crystalsums argv`` in the copy ``root``."""
    proc = subprocess.run([sys.executable, "-c", REACH_CALL, *argv],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{root.name} {shlex.join(argv)} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_reach(roots: dict[str, Path], commands: dict[str, list[str]],
              runs: int) -> dict:
    """The ``reach`` section: per named command line, ``runs`` single calls
    per side, the first side alternating."""
    sums = {}
    for name, argv in commands.items():
        seconds: dict[str, list[float]] = {s: [] for s in SIDES}
        outputs = set()
        for run in range(1, runs + 1):
            for side in SIDES if run % 2 else SIDES[::-1]:
                print(f"reach {name} run {run} {side}", file=sys.stderr,
                      flush=True)
                got = reach_once(roots[side], argv)
                seconds[side].append(got["seconds"])
                outputs.add((got["exit"], got["sha256"]))
        sums[name] = {
            "command": shlex.join(["crystalsums", *argv]),
            "parent_median_s": round(statistics.median(seconds["parent"]), 6),
            "change_median_s": round(statistics.median(seconds["change"]), 6),
            "change_lower_in": sum(c < p for p, c in zip(seconds["parent"],
                                                         seconds["change"])),
            "runs_per_side": runs,
            "same_sha256": len(outputs) == 1}
    return {"command": "one crystalsums call per fresh process through "
                       "cli.main, seconds around the call only; the side "
                       "that goes first alternates; same_sha256: every run "
                       "on both sides printed the same stdout, each JSON "
                       "object line without its timing ms, and returned the "
                       "same exit code. Written by scripts/bench_pairs.py.",
            "sums": sums}


def parse_reach(values: list[str]) -> dict[str, list[str]]:
    """The command line of each NAME=COMMAND, in order, without a leading
    ``crystalsums``."""
    commands = {}
    for value in values:
        name, sep, command = value.partition("=")
        argv = shlex.split(command)
        if argv[:1] == ["crystalsums"]:
            argv = argv[1:]
        if not (sep and name and argv) or name in commands:
            raise ValueError(f"--reach needs a new NAME=COMMAND: {value!r}")
        commands[name] = argv
    return commands


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


def verdict(summary: dict, end_to_end: list[dict],
            claim: dict | None) -> dict:
    """The acceptance verdict.  The claim (``claimed``) is met when the
    change reads lower in at least 9 of 10 pairs and its median gap exceeds
    the parent's inter-quartile range.  Per workload, each end-to-end
    metric of ``BENCHMARK.json`` is within its bound when the change's
    median is worse than the parent's by at most the relative ``bound`` in
    the direction of ``better``, and the failed share went up when the
    change's exceeds the parent's.  The change is accepted when the claim,
    if any, is met, every metric is within its bound and no failed share
    went up."""
    within = {}
    fail_share_up = {}
    for workload, rows in summary.items():
        within[workload] = {}
        for m in end_to_end:
            row = rows[m["name"]]
            worse = row["change_median"] - row["parent_median"]
            if m["better"] != "lower":
                worse = -worse
            within[workload][m["name"]] = (
                worse <= m["bound"] * row["parent_median"])
        fail = rows["fail_frac"]
        fail_share_up[workload] = fail["change"] > fail["parent"]
    claim_met = None if claim is None else (
        10 * claim["change_lower_in"] >= 9 * claim["pairs"]
        and claim["median_gap"] > claim["parent_iqr"])
    return {"claim_met": claim_met, "within_bounds": within,
            "fail_share_up": fail_share_up,
            "accepted": claim_met is not False
            and all(all(w.values()) for w in within.values())
            and not any(fail_share_up.values())}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD",
                    help="the commit the working tree is compared with")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims")
    ap.add_argument("--reach", action="append", default=[],
                    metavar="NAME=COMMAND",
                    help="time single `crystalsums COMMAND` calls in fresh "
                         "processes, --pairs runs per side (repeatable)")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    try:
        reach_commands = parse_reach(args.reach)
    except ValueError as exc:
        ap.error(str(exc))
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
        # the single calls go first: a command line that fails stops the
        # script before the long workload runs
        reach = run_reach(roots, reach_commands, args.pairs) \
            if reach_commands else None
        runs = run_pairs(roots, workloads, args.pairs, seconds)

    summary = summarize(runs, metrics)
    claim_row = claimed(summary, *claim) if claim else None
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
        "claimed": claim_row,
        "verdict": verdict(summary, spec["end_to_end"], claim_row),
        "summary": summary,
        **({"reach": reach} if reach else {}),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
