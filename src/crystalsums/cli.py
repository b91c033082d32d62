"""Command line frontend: compute any configuration sum by any method, run
verification matrices, and check the hard-hexagon identities.

Exit codes: 0 success, 1 verification disagreement, 2 parse error,
3 unsupported combination, 4 size cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import bosonic, energy, fermionic, hardhex
from .cartan import cartan_data, check_sum, shape_type
from .crystal import FactorDescriptor
from .errors import (CapExceeded, CrystalSumsError, ShapeSyntaxError,
                     UnsupportedError)
from .partitions import partitions_in_box, partitions_of
from .qpoly import QLaurent, invert_q

Shape = tuple[FactorDescriptor, ...]


def parse_shape(text: str) -> Shape:
    """Parse 'A:2;1,1*4' style shape specs: type, rank, then r,s[*mult]
    factor pairs, leftmost factor first."""
    try:
        head, _, body = text.partition(";")
        kind, _, rank = head.partition(":")
        n = int(rank)
        if kind not in ("A", "C") or not body:
            raise ValueError
        tokens = body.split(",")
        if len(tokens) % 2:
            raise ValueError
        factors: list[FactorDescriptor] = []
        for j in range(0, len(tokens), 2):
            r = int(tokens[j])
            s_tok, _, mult_tok = tokens[j + 1].partition("*")
            s = int(s_tok)
            mult = int(mult_tok) if mult_tok else 1
            if mult < 1:
                raise ValueError
            factors.extend([FactorDescriptor(kind, n, r, s)] * mult)
        return tuple(factors)
    except UnsupportedError:
        raise
    except ValueError as exc:
        raise ShapeSyntaxError(f"cannot parse shape spec {text!r}") from exc


def parse_weight(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ShapeSyntaxError(f"cannot parse weight {text!r}") from exc


def _emit_poly(p: QLaurent, fmt: str) -> None:
    if fmt == "csv":
        for e, c in p.terms:
            print(f"{e},{c}")
    else:
        print(p.to_json())


# ---------------------------------------------------------------------------
# sum

# method -> evaluator of the classical and the level sums.  Every
# evaluator takes (shape, weight, level), level None for the classical
# sum, and returns the coenergy-graded sum.  Each looks its route up in
# the module when called, so a rebound module attribute (a test's stub, a
# benchmark's tracing wrapper) is what runs.
_ROUTES = {
    "direct": lambda s, w, lv: energy.direct_sum(
        s, w, "classical" if lv is None else "level", lv),
    "bosonic": lambda s, w, lv: bosonic.alternating_sum(s, w, lv),
    "fermionic": lambda s, w, lv: fermionic.closed_form_F(
        *shape_type(s), w, lv),
    "rc": lambda s, w, lv: fermionic.rc_generating_function(
        *shape_type(s), w, lv),
}

# (restriction, method) -> evaluator
_EVALUATORS = {
    ("none", "direct"): lambda s, w, lv: energy.direct_sum(s, w, "none"),
    ("none", "bosonic"): lambda s, w, lv: bosonic.supernomial(s, w),
    **{(restriction, method): route for restriction in ("classical", "level")
       for method, route in _ROUTES.items()},
}


def compute_sum(shape: Shape, weight: tuple[int, ...], restriction: str,
                method: str, statistic: str, level: int | None) -> QLaurent:
    """The configuration sum by one method; the only way from (restriction,
    method) to an evaluator.  It checks only what no evaluator sees and
    dispatches.  Every route checks in one order, so every method raises
    the same class: malformed input raises ShapeSyntaxError (an unknown
    statistic, then ``check_sum``); then input the route does not cover
    raises UnsupportedError (``shape_type`` and ``check_sum``, a factor
    wider than the level counting only for level sums; a combination no
    evaluator computes; ``bosonic`` on a shape mixing rows and columns);
    then a sum that vanishes by definition (``cartan.vanishes``) is ZERO."""
    if statistic not in ("energy", "coenergy"):
        raise ShapeSyntaxError(f"unknown statistic {statistic!r}")
    kind, n, L = shape_type(shape)
    check_sum(kind, n, weight, level, L if restriction == "level" else None)

    evaluate = _EVALUATORS.get((restriction, method))
    if evaluate is None:
        raise UnsupportedError(
            f"method {method!r} does not compute {restriction!r} sums")
    if restriction != "level":
        level = None
    elif level is None:
        raise UnsupportedError("--restrict level needs --level")

    out = evaluate(shape, tuple(weight), level)
    return invert_q(out) if statistic == "energy" else out


def cmd_sum(args) -> int:
    out = compute_sum(parse_shape(args.shape), parse_weight(args.weight),
                      args.restrict, args.method, args.stat, args.level)
    _emit_poly(out, args.format)
    return 0


# ---------------------------------------------------------------------------
# verify

def _dominant_A(n: int, total: int):
    """Dominant type A contents of the given total, zero-padded partitions
    with at most n+1 parts."""
    return [lam + (0,) * (n + 1 - len(lam)) for lam in partitions_of(total)
            if len(lam) <= n + 1]


def _dominant_C(n: int, boxes: int):
    """Dominant type C weights reachable by ``boxes`` boxes: zero-padded
    partitions with at most n parts, of size at most ``boxes`` and of its
    parity."""
    return [lam + (0,) * (n - len(lam)) for lam in partitions_in_box(n, boxes)
            if sum(lam) <= boxes and (boxes - sum(lam)) % 2 == 0]


_LEVEL_METHODS = (("direct", "direct"), ("bosonic", "bosonic"), ("rc", "rc"),
                  ("closed", "fermionic"))

# suite -> (type, restriction, (report key, method) pairs): the suites that
# compare compute_sum routes on homogeneous B^{1,1} shapes
_SUITE_METHODS = {
    "typeA": ("A", "classical", (("direct", "direct"), ("bosonic", "bosonic"),
                                 ("fermionic", "fermionic"), ("rc", "rc"))),
    "typeC": ("C", "classical", (("bosonic", "bosonic"),
                                 ("fermionic", "fermionic"), ("rc", "rc"))),
    "level": ("A", "level", _LEVEL_METHODS),
    "levelC": ("C", "level", _LEVEL_METHODS),
}


def _instances(suite: str, n: int, max_L: int, level: int):
    if suite == "rr":
        for L in range(max_L + 1):
            for primed in (False, True):
                yield ("rr", L, primed)
    elif suite in _SUITE_METHODS:
        kind, restriction, _ = _SUITE_METHODS[suite]
        data = cartan_data(kind, n)  # refuses a rank below 1
        for L in range(1, max_L + 1):
            for lam in (_dominant_A if kind == "A" else _dominant_C)(n, L):
                if restriction != "level":
                    yield (suite, n, L, lam)
                elif data.theta_pairing(lam) <= level:
                    yield (suite, n, L, lam, level)
    elif suite == "involution":
        data = cartan_data("A", n)  # refuses a rank below 1
        for L in range(1, max_L + 1):
            for lam in _dominant_A(n, L):
                yield ("involution", "A", n, L, lam, None)
            for lam in _dominant_C(n, L):
                yield ("involution", "C", n, L, lam, None)
            for lam in _dominant_A(n, L):
                if data.theta_pairing(lam) <= level:
                    yield ("involution", "A", n, L, lam, level)
    else:
        raise UnsupportedError(f"unknown suite {suite!r}")


def run_instance(inst: tuple) -> dict:
    t0 = time.perf_counter()
    suite = inst[0]
    if suite == "rr":
        _, L, primed = inst
        values = {m: hardhex.hh_X(L, m, primed).to_json()
                  for m in ("enumerate", "recurrence", "fermionic", "bosonic")}
        agree = len(set(values.values())) == 1
        desc = {"L": L, "primed": primed}
    elif suite in _SUITE_METHODS:
        kind, restriction, methods = _SUITE_METHODS[suite]
        n, L, lam = inst[1:4]
        ell = inst[4] if restriction == "level" else None
        shape = (FactorDescriptor(kind, n),) * L
        values = {key: compute_sum(shape, lam, restriction, method,
                                   "coenergy", ell).to_json()
                  for key, method in methods}
        desc = {"n": n, "L": L, "weight": list(lam)}
        if ell is not None:
            data, Lmap = cartan_data(kind, n), {(1, 1): L}
            if lam == fermionic.vacuum_weight(data, Lmap):
                values["vacuum"] = fermionic.closed_form_F_level(
                    data, Lmap, ell).to_json()
            desc["level"] = ell
        agree = len(set(values.values())) == 1
    elif suite == "involution":
        _, k, n, L, lam, ell = inst
        shape = tuple(FactorDescriptor(k, n) for _ in range(L))
        rep = bosonic.involution_phi(shape, lam, ell)
        agree = rep.passed
        values = {"size": str(rep.size), "fixed": str(rep.fixed_points)}
        desc = {"kind": k, "n": n, "L": L, "weight": list(lam), "level": ell}
    else:
        raise UnsupportedError(suite)
    return {"suite": suite, "instance": desc, "values": values,
            "agree": agree, "ms": round(1000 * (time.perf_counter() - t0), 3)}


def _nonnegative(*flags: tuple[str, int | None]) -> None:
    """Refuse a negative integer flag as malformed input."""
    for flag, value in flags:
        if value is not None and value < 0:
            raise ShapeSyntaxError(f"{flag} {value} is negative")


def cmd_verify(args) -> int:
    _nonnegative(("--max-L", args.max_L), ("--level", args.level))
    if args.jobs < 1:
        raise ShapeSyntaxError(f"--jobs {args.jobs} is below 1")
    insts = list(_instances(args.suite, args.n, args.max_L, args.level))
    # the pool starts every worker up front: no more than there is work for
    workers = min(args.jobs, len(insts), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_instance, insts))
    else:
        reports = [run_instance(i) for i in insts]
    if args.format == "csv":
        import csv
        rows = csv.writer(sys.stdout, lineterminator="\n")
    bad = 0
    for rep in reports:
        if not rep["agree"]:
            bad += 1
        if args.format == "csv":
            rows.writerow((rep["suite"], json.dumps(rep["instance"]),
                           rep["agree"], rep["ms"]))
        else:
            print(json.dumps(rep, sort_keys=True))
    print(f"# {len(reports)} instances, {bad} disagreements", file=sys.stderr)
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# rr

def cmd_rr(args) -> int:
    _nonnegative(("--L", args.L), ("--N", args.N))
    if args.series is not None:
        rep = hardhex.rr_series_check(args.series, args.N)
        print(json.dumps({
            "identity": rep.which, "cutoff": rep.cutoff,
            "fermionic_eq_product": rep.fermionic_eq_product,
            "fermionic_eq_alternating": rep.fermionic_eq_alternating,
            "finite_limit_ok": rep.finite_limit_ok,
            "stable_prefix": rep.stable_prefix,
            "pass": rep.passed}, sort_keys=True))
        return 0 if rep.passed else 1
    if args.L is None:
        raise ShapeSyntaxError("rr needs --L or --series")
    _emit_poly(hardhex.hh_X(args.L, args.method, args.primed), args.format)
    return 0


# ---------------------------------------------------------------------------
# entry point

def _config_flags(path: str) -> list[str]:
    """The entries of a JSON object file as flags: ``--key=value``, or
    ``--key`` alone for true (false leaves a switch out)."""
    try:
        with open(path) as fh:
            conf = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ShapeSyntaxError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(conf, dict):
        raise ShapeSyntaxError(f"config {path!r} is not a JSON object")
    flags = []
    for key, val in conf.items():
        flag = "--" + key.replace("_", "-")
        if val is not False:
            flags.append(flag if val is True else f"{flag}={val}")
    return flags


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="crystalsums",
        description="configuration sums of crystal paths, three ways")
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--config", help="JSON file with flag defaults")

    p_sum = sub.add_parser("sum", parents=[common],
                           help="one configuration sum")
    p_sum.add_argument("shape", help="e.g. A:2;1,1*4 or C:2;1,1*3")
    p_sum.add_argument("--weight", required=True,
                       help="comma-separated coordinates; write a leading "
                            "minus as --weight=-1,0")
    p_sum.add_argument("--restrict", choices=("none", "classical", "level"),
                       default="none")
    p_sum.add_argument("--level", type=int, default=None)
    p_sum.add_argument("--method",
                       choices=("direct", "bosonic", "fermionic", "rc"),
                       default="direct")
    p_sum.add_argument("--stat", choices=("energy", "coenergy"),
                       default="coenergy")
    p_sum.set_defaults(func=cmd_sum)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run a verification matrix")
    p_ver.add_argument("suite",
                       choices=("rr", "typeA", "typeC", "level", "levelC",
                                "involution"))
    p_ver.add_argument("--n", type=int, default=1)
    p_ver.add_argument("--max-L", dest="max_L", type=int, default=4)
    p_ver.add_argument("--level", type=int, default=1)
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.set_defaults(func=cmd_verify)

    p_rr = sub.add_parser("rr", parents=[common],
                          help="hard-hexagon polynomials and series")
    p_rr.add_argument("--L", type=int, default=None)
    p_rr.add_argument("--primed", action="store_true")
    p_rr.add_argument("--method",
                      choices=("enumerate", "recurrence", "fermionic",
                               "bosonic"), default="recurrence")
    p_rr.add_argument("--series", type=int, choices=(1, 2), default=None)
    p_rr.add_argument("--N", type=int, default=100)
    p_rr.set_defaults(func=cmd_rr)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the entries go in as flags before the explicit ones: argparse
            # checks them, and an explicit flag given later wins
            args = parser.parse_args(
                argv[:1] + _config_flags(args.config) + argv[1:])
        return args.func(args)
    except ShapeSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CrystalSumsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
