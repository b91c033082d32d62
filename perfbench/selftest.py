#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Runs every workload untraced and traced, checks that every per-layer
metric of BENCHMARK.json is reported, that bypassed layers get no calls,
that the tracer rebinds every alias and puts the originals back, that the
generator is deterministic and emits only valid queries, and that the
correctness gate trips when one result is altered.
"""
from __future__ import annotations

import json
import sys

import tracer
import workloads
from worker import ROOT, import_package, load_reference, run_round

# layers a workload must not call at all (NOTES.md, "Workloads")
BYPASSED = {
    "hardhex": ("crystal", "energy", "cartan", "bosonic", "fermionic",
                "partitions"),
    "paths": ("hardhex",),
    "weylrc": ("crystal", "energy", "hardhex"),
}


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def test_rounds() -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    per_layer.discard("trace.overhead_frac")  # run.py derives it
    for w in workloads.WORKLOADS:
        plain = run_round(w, 0, trace=False, scale="tiny")
        check(plain["attempted"] > 0 and plain["failed"] == 0,
              f"{w} untraced: {plain['attempted']} operations pass")
        traced = run_round(w, 0, trace=True, scale="tiny")
        check(traced["failed"] == 0, f"{w} traced: results unchanged")
        missing = per_layer - set(traced["layers"])
        check(not missing, f"{w} traced: every per-layer metric "
                           f"reported {sorted(missing)}")
        called = [l for l in BYPASSED[w] if traced["layers"][f"{l}.calls"]]
        check(not called, f"{w} traced: no calls into {BYPASSED[w]} {called}")
        bad = run_round(w, 0, trace=False, scale="tiny", corrupt=1)
        check(bad["failed"] == 1, f"{w}: altering one result fails it "
                                  f"{bad['failures']}")


def test_tracer_rebinds_aliases() -> None:
    pkg = import_package()
    mods = [getattr(pkg, m) for m in tracer.LAYERS]
    t = tracer.Tracer(pkg)
    t.install()
    try:
        for mod, name, home in (("energy", "enumerate_paths", "crystal"),
                                ("bosonic", "enumerate_paths", "crystal"),
                                ("fermionic", "qbinomial", "qpoly"),
                                ("hardhex", "qbinomial", "qpoly")):
            fn = getattr(getattr(pkg, mod), name)
            check(getattr(fn, tracer.WRAPPED, False)
                  and fn is getattr(getattr(pkg, home), name),
                  f"{mod}.{name} is the wrapper of {home}.{name}")
        Q = pkg.qpoly.QLaurent
        check(Q.__add__ is Q.__radd__ and getattr(Q.__mul__, tracer.WRAPPED),
              "QLaurent arithmetic and its reflected aliases are wrapped")
        check(bool(tracer.unwrapped_problems(mods)),
              "the untraced guard sees an installed tracer")
    finally:
        t.uninstall()
    check(not tracer.unwrapped_problems(mods),
          "uninstall restores every original")


def test_generator() -> None:
    ref = load_reference()
    for w in workloads.WORKLOADS:
        a = workloads.generate(w, 7, "full", ref)
        check(a == workloads.generate(w, 7, "full", ref),
              f"{w}: the same seed gives the same inputs")
        check(all(op.key in ref for op in a),
              f"{w}: every operation has a reference digest")
    for w in ("hardhex", "weylrc", "paths"):
        seeds = {tuple(op.args for op in workloads.generate(w, s, "full", ref))
                 for s in range(6)}
        check(len(seeds) > 1, f"{w}: different seeds give different inputs")
    rejected = (
        ("A", 2, ((2, 1), (1, 2)) + ((1, 1),) * 4, (4, 3, 2), None),
        ("A", 2, ((2, 1), (1, 2)), (2, 1, 1), None),
        ("C", 2, ((1, 1),) * 3, (1, 1), None),
        ("C", 2, ((1, 1),) * 4, (3, 1), 2),
        ("C", 2, ((1, 1),) * 8, (2, 0), 2),
    )
    for query in rejected:
        try:
            workloads.check_sum_query(*query)
        except ValueError as exc:
            check(True, f"rejects {query[1:]}: {exc}")
        else:
            check(False, f"rejects {query[1:]}")


def main() -> int:
    test_generator()
    test_tracer_rebinds_aliases()
    test_rounds()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
