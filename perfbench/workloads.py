"""Seeded inputs, operations and correctness checks of the three workloads.

A workload is a list of operations.  Each operation calls one public entry
point of crystalsums (``cli.run_instance``, ``cli.compute_sum``,
``hardhex.hh_X`` or ``hardhex.rr_series_check``), gets one canonical string
per method, and is checked three ways: the methods agree, the recurrence
agrees for hard-hexagon polynomials, and the canonical output hashes to the
stored reference.  See NOTES.md for why each workload looks as it does.

This module imports nothing from crystalsums at import time: the worker
imports the package itself, so that its import is part of the measured
set-up.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

WORKLOADS = ("hardhex", "paths", "weylrc")

# Sizes.  "full" is what the benchmark measures; "tiny" is for selftest.py.
# Verify suites are (suite, n, max_L, level); seeded pools are described
# next to the generator that reads them.
SCALES = {
    "full": {
        "hardhex": {
            "suites": [("rr", 1, 20, 1)],
            "hh_L": range(40, 48),
            "series_cutoff": 200,
        },
        "paths": {
            "suites": [("typeA", 1, 11, 1), ("typeA", 2, 7, 1),
                       ("typeA", 3, 6, 1), ("level", 1, 10, 2),
                       ("level", 2, 7, 2), ("involution", 2, 4, 1)],
            "rows": [(1, (1, 1, 1, 2, 2, 2, 3, 3)), (2, (1, 1, 2, 2, 3))],
        },
        "weylrc": {
            "suites": [("typeC", 2, 8, 1), ("typeC", 3, 7, 1)],
            "c_level": 2, "c_L": {2: range(2, 11), 3: range(2, 7)},
        },
    },
    "tiny": {
        "hardhex": {
            "suites": [("rr", 1, 5, 1)],
            "hh_L": range(12, 16),
            "series_cutoff": 20,
        },
        "paths": {
            "suites": [("typeA", 1, 4, 1), ("typeA", 2, 3, 1),
                       ("level", 1, 4, 2), ("involution", 2, 2, 1)],
            "rows": [(1, (1, 2, 2))],
        },
        "weylrc": {
            "suites": [("typeC", 2, 3, 1)],
            "c_level": 2, "c_L": {2: range(2, 5)},
        },
    },
}

# Closed forms sum over every nonempty subset of a tableau set; more than
# this many tableaux makes one query take minutes (NOTES.md).
MAX_TABLEAUX = 5


@dataclass(frozen=True)
class Op:
    """One checked query.

    ``key`` names the mathematical question (the reference digest is keyed
    on it, so it leaves out what cannot change the answer, such as the
    order of tensor factors); ``tier`` groups operations for the per-L
    report; ``args`` is what the entry point receives; a seed picks within
    a ``family`` of queries of similar cost (``pick_balanced``).
    """

    key: str
    tier: str
    kind: str
    args: tuple
    family: str = ""


# ---------------------------------------------------------------------------
# input properties

def dominant_A(n: int, total: int) -> list[tuple[int, ...]]:
    """Content vectors (partitions with n+1 parts, zeros allowed)."""
    out = []

    def rec(prev, rem, acc):
        if len(acc) == n + 1:
            if rem == 0:
                out.append(tuple(acc))
            return
        for v in range(min(prev, rem), -1, -1):
            rec(v, rem - v, acc + [v])

    rec(total, total, [])
    return out


def dominant_C(n: int, boxes: int) -> list[tuple[int, ...]]:
    """Dominant type C weights reachable from ``boxes`` vector factors:
    weakly decreasing, nonnegative, and of the parity of ``boxes``."""
    out = []

    def rec(prev, acc):
        if len(acc) == n:
            if sum(acc) <= boxes and (boxes - sum(acc)) % 2 == 0:
                out.append(tuple(acc))
            return
        for v in range(prev, -1, -1):
            rec(v, acc + [v])

    rec(boxes, [])
    return out


def _conjugate(mu: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in mu if p > i) for i in range(mu[0])) if mu else ()


def count_tableaux(shape: tuple[int, ...], alphabet: int) -> int:
    """Column-strict tableaux of ``shape`` with entries 1..alphabet."""
    shape = tuple(x for x in shape if x > 0)
    if not shape:
        return 1
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    grid = [[0] * w for w in shape]

    def rec(k: int) -> int:
        if k == len(cells):
            return 1
        r, c = cells[k]
        lo = max(1, grid[r][c - 1] if c else 1,
                 grid[r - 1][c] + 1 if r else 1)
        total = 0
        for v in range(lo, alphabet + 1):
            grid[r][c] = v
            total += rec(k + 1)
        grid[r][c] = 0
        return total

    return rec(0)


def type_c_level_tableaux(n: int, lam: tuple[int, ...]) -> int:
    """Size of the tableau set the type C level closed form sums over: the
    conjugate of (2l1, l1+l2, .., l1+ln, l1-ln, .., l1-l1) over 1..2l1."""
    l1 = lam[0]
    seq = [2 * l1] + [l1 + lam[a] for a in range(1, n)] \
        + [l1 - lam[n - a] for a in range(1, n + 1)]
    return count_tableaux(_conjugate(tuple(x for x in seq if x > 0)), 2 * l1)


def check_sum_query(kind: str, n: int, shape_rs: tuple[tuple[int, int], ...],
                    lam: tuple[int, ...], level: int | None) -> None:
    """Raise ValueError unless the query has every property the generator
    promises: content sum equals box count (type A), parity (type C),
    weight level at most the level, and few enough tableaux."""
    boxes = sum(r * s for r, s in shape_rs)
    if kind == "A":
        if len(lam) != n + 1 or sum(lam) != boxes:
            raise ValueError(f"content {lam} does not fill {boxes} boxes")
        if any(s > 1 for _, s in shape_rs) and any(r > 1 for r, _ in shape_rs):
            raise ValueError("mixed row and column shapes are excluded")
        if level is not None and lam[0] - lam[-1] > level:
            raise ValueError(f"weight level of {lam} exceeds {level}")
    else:
        if len(lam) != n or (boxes - sum(abs(x) for x in lam)) % 2:
            raise ValueError(f"type C weight {lam} has the wrong parity")
        if level is not None:
            if lam[0] > level:
                raise ValueError(f"weight level of {lam} exceeds {level}")
            if type_c_level_tableaux(n, lam) > MAX_TABLEAUX:
                raise ValueError(f"{lam} has more than {MAX_TABLEAUX} tableaux")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or lam[-1] < 0:
        raise ValueError(f"{lam} is not dominant")


# ---------------------------------------------------------------------------
# generator

def _suite_instances(suite: str, n: int, max_L: int, level: int):
    """The instances ``crystalsums verify`` runs, rebuilt here so the
    benchmark does not depend on the CLI's private enumerator."""
    for L in range(0 if suite == "rr" else 1, max_L + 1):
        if suite == "rr":
            for primed in (False, True):
                yield ("rr", L, primed), f"rr L={L}"
        elif suite == "typeA":
            for lam in dominant_A(n, L):
                yield ("typeA", n, L, lam), f"typeA n={n} L={L}"
        elif suite == "typeC":
            for lam in dominant_C(n, L):
                yield ("typeC", n, L, lam), f"typeC n={n} L={L}"
        elif suite == "level":
            for lam in dominant_A(n, L):
                if lam[0] - lam[n] <= level:
                    yield ("level", n, L, lam, level), \
                        f"level n={n} l={level} L={L}"
        elif suite == "involution":
            tier = f"involution n={n} L={L}"
            for lam in dominant_A(n, L):
                yield ("involution", "A", n, L, lam, None), tier
            for lam in dominant_C(n, L):
                yield ("involution", "C", n, L, lam, None), tier
            for lam in dominant_A(n, L):
                if lam[0] - lam[n] <= level:
                    yield ("involution", "A", n, L, lam, level), tier
        else:
            raise ValueError(f"unknown suite {suite!r}")


def _instance_op(inst: tuple, tier: str) -> Op:
    return Op("inst:" + json.dumps(inst, separators=(",", ":")), tier,
              "instance", (inst,))


def _hh_op(L: int, primed: bool) -> Op:
    # X(L), X'(L), X(L+1) and X'(L+1) for even L cost about the same
    low = L - L % 2
    return Op(f"hhX:{L}:{int(primed)}", f"hhX L={L}", "hhX", (L, primed),
              f"hhX L={low},{low + 1}")


def _sum_op(kind: str, n: int, shape_rs: tuple[tuple[int, int], ...],
            lam: tuple[int, ...], restriction: str, level: int | None,
            methods: tuple[str, ...], tier: str, family: str = "") -> Op:
    check_sum_query(kind, n, shape_rs, lam, level)
    multiset = ",".join(f"{r}.{s}" for r, s in sorted(shape_rs))
    key = (f"sum:{kind}{n}:{multiset}:{','.join(map(str, lam))}:"
           f"{restriction}:{level}")
    return Op(key, tier, "sum",
              (kind, n, shape_rs, lam, restriction, level, methods), family)


def _weylrc_pool(p: dict) -> list[Op]:
    """Every valid type C level-restricted query of the scale."""
    level = p["c_level"]
    out = []
    for n, Ls in p["c_L"].items():
        for L in Ls:
            for lam in dominant_C(n, L):
                if lam[0] > level or type_c_level_tableaux(n, lam) > MAX_TABLEAUX:
                    continue
                out.append(_sum_op("C", n, ((1, 1),) * L, lam, "level", level,
                                   ("bosonic", "fermionic", "rc"),
                                   f"typeC-level n={n} L={L}",
                                   f"typeC-level n={n}"))
    return out


def _rows_ops(n: int, row_lengths: tuple[int, ...]) -> list[Op]:
    """Classical sums of B^{1,s_L} (x) .. (x) B^{1,s_1} in the given factor
    order, for every dominant content of the right size."""
    shape_rs = tuple((1, s) for s in row_lengths)
    return [_sum_op("A", n, shape_rs, lam, "classical", None,
                    ("direct", "bosonic", "fermionic", "rc"),
                    f"rows n={n} L={len(row_lengths)}")
            for lam in dominant_A(n, sum(row_lengths))]


def fixed_ops(workload: str, scale: str) -> list[Op]:
    """The operations every seed runs: the verify suites, and for hardhex
    the two series identities."""
    p = SCALES[scale][workload]
    ops = [_instance_op(inst, tier)
           for suite in p["suites"]
           for inst, tier in _suite_instances(*suite)]
    if workload == "hardhex":
        ops += [Op(f"series:{which}:{p['series_cutoff']}", "series", "series",
                   (which, p["series_cutoff"])) for which in (1, 2)]
    return ops


def seeded_pool(workload: str, scale: str) -> list[Op]:
    """Every operation the seed can choose, each once (factor orders are
    not distinguished: the reference digest does not depend on them)."""
    p = SCALES[scale][workload]
    if workload == "hardhex":
        return [_hh_op(L, primed) for L in p["hh_L"] for primed in (False, True)]
    if workload == "paths":
        return [op for n, rows in p["rows"] for op in _rows_ops(n, rows)]
    return _weylrc_pool(p)


# A seed picks one operation from each group of the pool.  A group holds
# queries of one family; a family with recorded costs is cut further into
# groups whose costs lie within this factor of the group's cheapest.  Every
# seed then does about the same amount of work, on the same mix of
# families, with different questions; that keeps the spread of the
# end-to-end metrics across seeds small.
GROUP_COST_RATIO = 1.25


def pick_balanced(pool: list[Op], cost: dict[str, float],
                  rng: random.Random) -> list[Op]:
    groups: list[list[Op]] = []
    for op in sorted(pool, key=lambda op: (op.family, cost.get(op.key, 0.0),
                                           op.key)):
        head = groups[-1][0] if groups else None
        if head is not None and head.family == op.family \
                and cost.get(op.key, 0.0) <= GROUP_COST_RATIO * cost.get(head.key, 0.0):
            groups[-1].append(op)
        else:
            groups.append([op])
    return [rng.choice(group) for group in groups]


def generate(workload: str, seed: int, scale: str,
             reference: dict[str, dict]) -> list[Op]:
    """The operations of one workload.  The same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    p = SCALES[scale][workload]
    rng = random.Random(f"{workload}:{seed}")
    ops = fixed_ops(workload, scale)
    if workload == "paths":
        # the seed orders the factors; X does not depend on the order, so
        # the direct route (R-matrices, energy) must match the others
        for n, rows in p["rows"]:
            order = list(rows)
            rng.shuffle(order)
            ops += _rows_ops(n, tuple(order))
    else:
        cost = {k: v["cost"] for k, v in reference.items() if "cost" in v}
        ops += pick_balanced(seeded_pool(workload, scale), cost, rng)
    return ops


# ---------------------------------------------------------------------------
# execution and checks

def execute(op: Op, cs) -> dict[str, str]:
    """Run one operation; ``cs`` holds the imported crystalsums modules.
    Returns one canonical string per method (or per reported field)."""
    if op.kind == "instance":
        rep = cs.cli.run_instance(op.args[0])
        out = dict(rep["values"])
        if op.args[0][0] == "involution":
            out["passed"] = str(rep["agree"])
        return out
    if op.kind == "hhX":
        L, primed = op.args
        return {m: cs.hardhex.hh_X(L, m, primed).to_json()
                for m in ("recurrence", "fermionic", "bosonic")}
    if op.kind == "sum":
        kind, n, shape_rs, lam, restriction, level, methods = op.args
        shape = tuple(cs.FactorDescriptor(kind, n, r, s) for r, s in shape_rs)
        return {m: cs.cli.compute_sum(shape, lam, restriction, m, "coenergy",
                                      level).to_json()
                for m in methods}
    if op.kind == "series":
        rep = cs.hardhex.rr_series_check(*op.args)
        return {"fermionic_eq_product": str(rep.fermionic_eq_product),
                "fermionic_eq_alternating": str(rep.fermionic_eq_alternating),
                "finite_limit_ok": str(rep.finite_limit_ok),
                "stable_prefix": str(rep.stable_prefix)}
    raise ValueError(f"unknown operation kind {op.kind!r}")


def digest(values: dict[str, str]) -> str:
    """SHA-256 (first 16 hex digits) of the canonical JSON of a result."""
    canonical = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def problems(op: Op, values: dict[str, str],
             reference: dict[str, dict]) -> list[str]:
    """Every reason the operation's result is wrong; empty when it passes."""
    out = []
    if op.kind == "series":
        if any(values[k] != "True" for k in ("fermionic_eq_product",
                                             "fermionic_eq_alternating",
                                             "finite_limit_ok")):
            out.append("series identities do not hold")
    elif op.kind == "instance" and op.args[0][0] == "involution":
        if values["passed"] != "True":
            out.append("involution report failed")
    elif op.kind == "hhX":
        for m in ("fermionic", "bosonic"):
            if values[m] != values["recurrence"]:
                out.append(f"{m} differs from the recurrence")
    elif len(set(values.values())) != 1:
        out.append("methods disagree: " + ",".join(sorted(values)))
    ref = reference.get(op.key)
    if ref is None:
        out.append("no reference digest")
    elif ref["sha256"] != digest(values):
        out.append("differs from the reference digest")
    return out
