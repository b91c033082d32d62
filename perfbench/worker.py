"""One round of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload paths --seed 3 --trace 0

Imports crystalsums from the checkout's ``src``, generates the seeded
inputs, runs every operation once, checks every result and prints one JSON
object on stdout.  With ``--trace 1`` the package's public functions are
wrapped first (tracer.py) and the per-layer counts and times are added.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (benchmark module, not the package)
import workloads  # noqa: E402

# The host's speed drifts by tens of percent within minutes, for every
# process alike (NOTES.md, "Steadiness").  A fixed piece of pure-Python work
# is timed between operations, once per CAL_EVERY_S seconds of operation
# time, and the operations' time is reported in units of its mean.
CAL_EVERY_S = 0.05
_CAL_A = tuple((e, 3 * e + 1) for e in range(120))
_CAL_B = tuple((e, -e) for e in range(60, 200))

CACHED = (("partitions", "partitions_of"), ("partitions", "partitions_in_box"),
          ("crystal", "factor_elements"), ("crystal", "factor_weight"),
          ("crystal", "factor_arrow"), ("crystal", "factor_stats"),
          ("crystal", "highest_weight_element"), ("cartan", "cartan_data"))


class Package:
    """The crystalsums modules the operations call."""

    def __init__(self):
        for name in tracer.LAYERS:
            setattr(self, name, importlib.import_module(f"crystalsums.{name}"))
        self.FactorDescriptor = self.crystal.FactorDescriptor


def load_reference() -> dict[str, dict]:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def import_package() -> Package:
    """Import crystalsums from this checkout and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = Package()
    origin = Path(pkg.cli.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"crystalsums was imported from {origin}, "
                          f"not from {src}")
    return pkg


@dataclass(frozen=True)
class _Cell:
    kind: str
    n: int
    letters: tuple[int, ...]


@functools.cache
def _cell_weight(cell: _Cell) -> int:
    return sum(cell.letters)


def calibration_sample() -> float:
    """Seconds for a fixed piece of work shaped like the package's inner
    loops: sparse polynomial addition (dict from tuples, lookups, sort) and
    frozen dataclasses that are hashed, put in a set and looked up in a
    memo.  The two together track the drift better than either alone or
    than plain integer loops (NOTES.md)."""
    t = time.perf_counter()
    for _ in range(20):
        d = dict(_CAL_A)
        for e, c in _CAL_B:
            d[e] = d.get(e, 0) + c
        tuple(sorted((e, c) for e, c in d.items() if c))
    seen = set()
    for i in range(750):
        cell = _Cell("A", 2, (i % 3, i % 5, i % 7))
        seen.add(cell)
        _cell_weight(cell)
    return time.perf_counter() - t


def cache_sizes(pkg: Package, trace: tracer.Tracer | None) -> dict[str, int]:
    out = {}
    for mod, name in CACHED:
        fn = getattr(getattr(pkg, mod), name)
        if trace is not None:
            fn = trace.original(fn)
        out[f"{mod}.{name}"] = fn.cache_info().currsize
    return out


def run_round(workload: str, seed: int, trace: bool, scale: str = "full",
              corrupt: int | None = None, spans_path: Path | None = None) -> dict:
    """Set up, run and check one round; the result dict is what the worker
    prints.  ``corrupt`` alters the result of that operation index before
    the checks, which selftest.py uses to show the gate trips."""
    reference = load_reference()
    t0 = time.perf_counter()
    pkg = import_package()
    ops = workloads.generate(workload, seed, scale, reference)
    setup_s = time.perf_counter() - t0

    pristine = tracer.unwrapped_problems([getattr(pkg, m) for m in tracer.LAYERS])
    if pristine:
        raise RuntimeError("package is already wrapped: " + "; ".join(pristine))
    tr = tracer.Tracer(pkg) if trace else None
    if tr is not None:
        tr.install()
    values: list[dict[str, str] | None] = []
    errors: list[str | None] = []
    tiers: dict[str, float] = {}
    cal = [calibration_sample()]
    since_cal = 0.0
    try:
        for op in ops:
            t = time.perf_counter()
            try:
                values.append(workloads.execute(op, pkg))
                errors.append(None)
            except Exception as exc:  # one failed query must not stop the round
                values.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
            d = time.perf_counter() - t
            tiers[op.tier] = tiers.get(op.tier, 0.0) + d
            since_cal += d
            while since_cal >= CAL_EVERY_S:
                cal.append(calibration_sample())
                since_cal -= CAL_EVERY_S
        cal.append(calibration_sample())
    finally:
        if tr is not None:
            tr.uninstall()

    wall_s = sum(tiers.values())
    if corrupt is not None and values[corrupt] is not None:
        first = sorted(values[corrupt])[0]
        values[corrupt] = dict(values[corrupt], **{first: values[corrupt][first] + " "})
    failures = []
    for op, val, err in zip(ops, values, errors):
        why = [err] if err else workloads.problems(op, val, reference)
        if why:
            failures.append({"key": op.key, "why": why})
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "setup_s": setup_s, "wall_s": wall_s,
        "wall_cal": wall_s / statistics.mean(cal), "cal_samples": len(cal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops), "failed": len(failures),
        "failures": failures[:5], "tiers": tiers,
        "caches": cache_sizes(pkg, tr),
    }
    if tr is not None:
        result["layers"] = tr.summary(wall_s)
        result["caches"].update(tr.distinct_sizes())
        if spans_path is not None:
            tr.write_spans(spans_path)
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None,
                    help="where a traced round writes its spans (JSON lines)")
    args = ap.parse_args(argv)
    res = run_round(args.workload, args.seed, bool(args.trace),
                    spans_path=args.spans)
    print(json.dumps(res, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
