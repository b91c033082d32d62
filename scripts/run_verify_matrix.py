#!/usr/bin/env python3
"""Run every verification matrix at desk scale and print a summary table.

This is the long-form version of `crystalsums verify ...`: all six suites,
acceptance-sized bounds, one line per suite.  The sha256 column is a short
digest of the suite's reports as `crystalsums verify` prints them in JSON,
with the timing `ms` left out, so two runs whose reports match line for
line print the same digests, and `diff` compares every report of two runs
once the seconds column is cut off (`cut -c1-69` on each output).
"""
import hashlib
import json
import sys
import time

from crystalsums.cli import _instances, run_instance

SUITES = [
    ("rr", dict(n=1, max_L=20, level=1)),
    ("typeA", dict(n=1, max_L=16, level=1)),
    ("typeA", dict(n=2, max_L=13, level=1)),
    ("typeC", dict(n=2, max_L=8, level=1)),
    ("typeC", dict(n=3, max_L=9, level=1)),
    ("level", dict(n=1, max_L=6, level=1)),
    ("level", dict(n=1, max_L=5, level=2)),
    ("level", dict(n=2, max_L=14, level=1)),
    ("levelC", dict(n=2, max_L=10, level=1)),
    ("levelC", dict(n=2, max_L=8, level=2)),
    ("levelC", dict(n=3, max_L=10, level=2)),
    ("involution", dict(n=1, max_L=4, level=1)),
    ("involution", dict(n=2, max_L=5, level=1)),
    ("involution", dict(n=3, max_L=5, level=2)),
]


def main() -> int:
    bad = 0
    print(f"{'suite':12s} {'bounds':24s} {'instances':>9s} "
          f"{'disagree':>8s} {'sha256':12s} {'seconds':>8s}")
    for suite, kw in SUITES:
        t0 = time.perf_counter()
        reports = [run_instance(i)
                   for i in _instances(suite, kw["n"], kw["max_L"],
                                       kw["level"])]
        seconds = time.perf_counter() - t0
        fails = sum(not r["agree"] for r in reports)
        bad += fails
        digest = hashlib.sha256()
        for r in reports:
            line = json.dumps({k: v for k, v in r.items() if k != "ms"},
                              sort_keys=True)
            digest.update(line.encode() + b"\n")
        bounds = f"n={kw['n']} L<={kw['max_L']} ell={kw['level']}"
        print(f"{suite:12s} {bounds:24s} {len(reports):9d} {fails:8d} "
              f"{digest.hexdigest()[:12]} {seconds:8.2f}")
    print("all suites clean" if bad == 0 else f"{bad} DISAGREEMENTS")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
