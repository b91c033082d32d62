"""Fermionic evaluations: rigged configurations and their closed forms.

The multiplicity array L maps (a, i) to the number of B^{a,i} factors.
Type A weights are content vectors in N^{n+1}; type C weights live in Z^n
and type C factors must be single columns B^{a,1}.

Two independent routes are kept deliberately separate: the closed forms
evaluate the bilinear-form vacancy and charge expressions in the generic
index space, while the rigged-configuration side works with column counts
of the actual partitions.  Their agreement is one of the package's checks.

Type C bookkeeping: nu^(n) is stored unhalved, so its parts are even; a
generic index i at the long row corresponds to the actual part size 2i.
Both routes compute over the integer form 2(v|w) and divide once, exactly;
a half-integral vacancy (at an odd long-row size, which no sum reads)
raises NonIntegralExponent.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product as iproduct

from .cartan import CartanData, _exact_quotient, cartan_data
from .errors import CapExceeded, CrystalSumsError, UnsupportedError
from .partitions import (conjugate, num_parts_of_size, part, partitions_in_box,
                         partitions_of, q_columns)
from .qpoly import QLaurent, ZERO, invert_q, q_power, qbinomial

LMap = dict[tuple[int, int], int]
RC_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# configuration shapes

def config_sizes(data: CartanData, L: LMap, lam: tuple[int, ...]) -> tuple[int, ...] | None:
    """|nu^(a)| for a = 1..n (unhalved), or None when the weight constraint
    has no admissible solution (for type A, also when the content sum is
    not the number of boxes)."""
    n = data.n
    if data.kind == "A" and sum(lam) != sum(
            a * i * mult for (a, i), mult in L.items()):
        return None  # the content must fill every box once
    sizes = []
    for a in range(1, n + 1):
        s = -sum(lam[:a]) + sum(i * mult * min(a, b)
                                for (b, i), mult in L.items())
        if s < 0:
            return None
        sizes.append(s)
    if data.kind == "C" and sizes[-1] % 2:
        return None
    return tuple(sizes)


def _nu_choices(data: CartanData, sizes: tuple[int, ...],
                max_part: int | None = None):
    """All shape sequences nu with the given row sizes; the long row of a
    type C configuration gets even parts only."""
    per_row = []
    for a in range(1, data.n + 1):
        if data.kind == "C" and a == data.n:
            half_cap = None if max_part is None else max_part // 2
            halves = partitions_of(sizes[a - 1] // 2, half_cap)
            per_row.append(tuple(tuple(2 * p for p in mu) for mu in halves))
        else:
            per_row.append(partitions_of(sizes[a - 1], max_part))
    return iproduct(*per_row)


def _occupied(nu) -> list[tuple[int, int, int]]:
    """(row, actual part size, multiplicity) for every occupied site."""
    out = []
    for a, row in enumerate(nu, start=1):
        for i in sorted(set(row)):
            out.append((a, i, num_parts_of_size(row, i)))
    return out


# ---------------------------------------------------------------------------
# vacancy numbers and charges, both routes

def vacancy(data: CartanData, L: LMap, nu, a: int, i: int) -> int:
    """P_i^(a)(nu) from column counts, at the actual part size i."""
    n = data.n
    above = nu[a] if a < n else ()
    below = nu[a - 2] if a >= 2 else ()
    here = nu[a - 1]
    if data.kind == "A" or a < n:
        base = (q_columns(below, i) - 2 * q_columns(here, i)
                + q_columns(above, i))
        return base + sum(mult * min(i, j) for (b, j), mult in L.items()
                          if b == a)
    base = q_columns(below, i) - q_columns(here, i)
    return _exact_quotient(2 * base + L.get((n, 1), 0) * min(i, 2), 2,
                           "vacancy")


def _generic_m(data: CartanData, nu) -> list[dict[int, int]]:
    """Per-row multiplicity maps in generic indices (long type C row
    halved)."""
    out = []
    for a, row in enumerate(nu, start=1):
        scale = 2 if data.kind == "C" and a == data.n else 1
        d: dict[int, int] = {}
        for p in row:  # long-row parts are even (_nu_choices)
            d[p // scale] = d.get(p // scale, 0) + 1
        out.append(d)
    return out


@lru_cache(maxsize=16)
def _pair_table(kind: str, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per row a (0-based), the rows b it interacts with as (b, 2(alpha_a |
    alpha_b), t_b, t_a), nonzero pairs only.  Keyed by (kind, n), which
    hashes faster than the root datum."""
    data = cartan_data(kind, n)
    alpha = data.simple_roots
    return tuple(tuple((b, pair, data.t[b], data.t[a])
                       for b in range(data.n)
                       if (pair := data.form(alpha[a], alpha[b])))
                 for a in range(data.n))


def _vacancy_generic(data: CartanData, L: LMap, gm, a: int, i: int) -> int:
    """p_i^(a) from the bilinear form, at generic index i."""
    acc = 2 * sum(mult * min(i, j) for (b, j), mult in L.items() if b == a)
    for b, pair, tb, ta in _pair_table(data.kind, data.n)[a - 1]:
        for k, m in gm[b].items():
            acc -= pair * min(tb * i, ta * k) * m
    return _exact_quotient(acc, 2, "vacancy")


def _cc_generic(data: CartanData, gm) -> int:
    """cc({m}) from the bilinear form, at generic indices."""
    acc = 0
    for a, pairs in enumerate(_pair_table(data.kind, data.n)):
        for b, pair, tb, ta in pairs:
            for j, mj in gm[a].items():
                for k, mk in gm[b].items():
                    acc += pair * min(tb * j, ta * k) * mj * mk
    return _exact_quotient(acc, 4, "charge")


def cc_shape(kind: str, n: int, nu) -> int:
    """cc(nu) from column counts (the rigged-configuration route)."""
    cols = [conjugate(row) for row in nu]
    width = max((row[0] if row else 0 for row in nu), default=0)
    acc = 0  # twice the charge
    for i in range(1, width + 1):
        for a in range(1, n + 1):
            ai = part(cols[a - 1], i)
            up = part(cols[a], i) if a < n else 0
            if kind == "C" and a == n:
                acc += ai * ai
            else:
                acc += 2 * ai * (ai - up)
    return _exact_quotient(acc, 2, "charge")


# ---------------------------------------------------------------------------
# rigged configurations

@dataclass(frozen=True)
class RiggedConfiguration:
    """nu together with one rigging partition per occupied (row, size)."""

    kind: str
    n: int
    nu: tuple[tuple[int, ...], ...]
    riggings: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]

    def rigging(self, a: int, i: int) -> tuple[int, ...]:
        for (aa, ii), J in self.riggings:
            if (aa, ii) == (a, i):
                return J
        return ()


def enumerate_rc(kind: str, n: int, L: LMap, lam: tuple[int, ...],
                 max_part: int | None = None) -> list[RiggedConfiguration]:
    """All rigged configurations for the given factors and weight, with
    every part of nu at most ``max_part`` when it is given.  The
    configurations of one shape nu come out consecutively.

    A shape is admitted when every occupied site has a nonnegative vacancy
    number; for dominant weights this is equivalent to nonnegativity
    everywhere (the vacancy profile is concave between occupied sites)."""
    data = cartan_data(kind, n)
    if kind == "C" and any(i != 1 for (_, i) in L):
        raise UnsupportedError("type C factors must be single columns")
    sizes = config_sizes(data, L, lam)
    if sizes is None:
        return []
    out: list[RiggedConfiguration] = []
    for nu in _nu_choices(data, sizes, max_part):
        boxes = []
        ok = True
        for a, i, m in _occupied(nu):
            p = vacancy(data, L, nu, a, i)
            if p < 0:
                ok = False
                break
            boxes.append(((a, i), partitions_in_box(m, p)))
        if not ok:
            continue
        count = 1
        for _, bx in boxes:
            count *= len(bx)
            if count > RC_CAP:
                raise CapExceeded(f"more than {RC_CAP} rigged configurations")
        for choice in iproduct(*(bx for _, bx in boxes)):
            riggings = tuple((site, J)
                             for (site, _), J in zip(boxes, choice))
            out.append(RiggedConfiguration(kind, n, nu, riggings))
    return out


def cc_stat(rc: RiggedConfiguration) -> int:
    """cc(nu, J) = cc(nu) + sum of all rigging sizes."""
    return cc_shape(rc.kind, rc.n, rc.nu) + sum(sum(J) for _, J in rc.riggings)


def theta(rc: RiggedConfiguration, L: LMap) -> RiggedConfiguration:
    """Complement every rigging inside its m x P box; an involution."""
    data = cartan_data(rc.kind, rc.n)
    new = []
    for (a, i), J in rc.riggings:
        m = num_parts_of_size(rc.nu[a - 1], i)
        p = vacancy(data, L, rc.nu, a, i)
        padded = list(J) + [0] * (m - len(J))
        comp = tuple(x for x in sorted((p - x for x in padded),
                                       reverse=True) if x > 0)
        new.append(((a, i), comp))
    return RiggedConfiguration(rc.kind, rc.n, rc.nu, tuple(new))


def _theta_shift(data: CartanData, L: LMap, nu) -> int:
    """cc(nu) + sum P*m over the occupied sites of nu."""
    return cc_shape(data.kind, data.n, nu) + sum(
        vacancy(data, L, nu, a, i) * m for a, i, m in _occupied(nu))


def cc_theta(rc: RiggedConfiguration, L: LMap) -> int:
    """cc(theta(nu, J)) = cc(nu) + sum P*m - sum |J|: the coenergy
    statistic of the matching paths."""
    return (_theta_shift(cartan_data(rc.kind, rc.n), L, rc.nu)
            - sum(sum(J) for _, J in rc.riggings))


def _cc_thetas(rcs: list[RiggedConfiguration], L: LMap):
    """cc_theta of each configuration in turn, with cc(nu) + sum P*m
    computed once for each run of one shape nu, as ``enumerate_rc`` lists
    them."""
    nu, shift = None, 0
    for rc in rcs:
        if rc.nu != nu:
            nu = rc.nu
            shift = _theta_shift(cartan_data(rc.kind, rc.n), L, nu)
        yield shift - sum(sum(J) for _, J in rc.riggings)


def rc_generating_function(kind: str, n: int, L: LMap, lam: tuple[int, ...],
                           statistic: str = "cc_theta") -> QLaurent:
    """Sum of q^{cc o theta} (coenergy grading, the default) or q^{cc}
    over all rigged configurations."""
    rcs = enumerate_rc(kind, n, L, lam)
    return QLaurent.from_exponents(
        _cc_thetas(rcs, L) if statistic == "cc_theta" else map(cc_stat, rcs))


# ---------------------------------------------------------------------------
# closed forms

def closed_form_F(data: CartanData, L: LMap, lam: tuple[int, ...]) -> QLaurent:
    """F-bar(B, Lambda): the manifestly positive q-binomial sum over
    configuration shapes, via the bilinear-form expressions."""
    sizes = config_sizes(data, L, lam)
    if sizes is None:
        return ZERO
    out = ZERO
    for nu in _nu_choices(data, sizes):
        gm = _generic_m(data, nu)
        poly = q_power(_cc_generic(data, gm))
        for a in range(1, data.n + 1):
            for i, m in gm[a - 1].items():
                poly = poly * qbinomial(_vacancy_generic(data, L, gm, a, i), m)
                if poly.is_zero():
                    break
            if poly.is_zero():
                break
        out = out + poly
    return out


def _generic_grid(data: CartanData, level: int) -> list[tuple[int, int]]:
    """H^level in generic indices: 1 <= i <= t_a * level."""
    return [(a, i) for a in range(1, data.n + 1)
            for i in range(1, data.t[a - 1] * level + 1)]


def vacuum_weight(data: CartanData, L: LMap) -> tuple[int, ...] | None:
    """Content coordinates of the zero weight: the vacuum rectangle for
    type A, the origin for type C."""
    if data.kind == "C":
        return (0,) * data.n
    boxes = sum(a * i * mult for (a, i), mult in L.items())
    if boxes % (data.n + 1):
        return None
    return (boxes // (data.n + 1),) * (data.n + 1)


def closed_form_F_level(data: CartanData, L: LMap, level: int) -> QLaurent:
    """F-bar^level(B): the vacuum-weight level form over the truncated
    grid, with every grid site contributing its q-binomial factor."""
    for (a, i) in L:
        if i > data.t[a - 1] * level:
            raise UnsupportedError("factor wider than the level grid")
    lam = vacuum_weight(data, L)
    if lam is None:
        return ZERO
    sizes = config_sizes(data, L, lam)
    if sizes is None:
        return ZERO
    grid = _generic_grid(data, level)
    max_part = 2 * level if data.kind == "C" else level
    out = ZERO
    for nu in _nu_choices(data, sizes, max_part=max_part):
        gm = _generic_m(data, nu)
        poly = q_power(_cc_generic(data, gm))
        for a, i in grid:
            poly = poly * qbinomial(_vacancy_generic(data, L, gm, a, i),
                                    gm[a - 1].get(i, 0))
            if poly.is_zero():
                break
        out = out + poly
    return out


# ---------------------------------------------------------------------------
# column-strict tableaux

def cst_enumerate(shape: tuple[int, ...], alphabet: int) -> list[tuple[tuple[int, ...], ...]]:
    """Column-strict tableaux of the given shape (row lengths, weakly
    decreasing) with entries in 1..alphabet, as tuples of rows.

    Built a column at a time: each column is a strictly increasing choice
    from the alphabet, and the rows weakly increase iff every column
    dominates the one to its left entrywise."""
    shape = tuple(x for x in shape if x > 0)
    heights = conjugate(shape)
    choices = {h: list(combinations(range(1, alphabet + 1), h))
               for h in set(heights)}
    out: list[tuple[tuple[int, ...], ...]] = []

    def rec(cols: list[tuple[int, ...]]):
        if len(cols) == len(heights):
            out.append(tuple(tuple(col[r] for col in cols[:width])
                             for r, width in enumerate(shape)))
            return
        for col in choices[heights[len(cols)]]:
            if not cols or all(x >= y for x, y in zip(col, cols[-1])):
                rec(cols + [col])

    rec([])
    return out


def _column(t, a: int) -> list[int]:
    return [row[a - 1] for row in t if len(row) >= a]


def _signed_minima(vectors) -> dict[tuple, int]:
    """Inclusion-exclusion over the nonempty subsets S of ``vectors``: the
    signs (-1)^(|S|+1), summed by the coordinatewise minimum of S.  The
    closed forms see a subset only through that minimum, so this stands in
    for the sum over all 2^len(vectors) subsets.

    Repeated vectors are dropped first: for k copies of one vector the
    signed sum over their nonempty subsets is 1, as for a single copy."""
    acc: dict[tuple, int] = {}
    for v in dict.fromkeys(vectors):
        nxt = dict(acc)
        for u, k in acc.items():
            m = tuple(map(min, u, v))
            nxt[m] = nxt.get(m, 0) - k
        nxt[v] = nxt.get(v, 0) + 1
        acc = {u: k for u, k in nxt.items() if k}
    return acc


def _closed_form_terms(charge: int, vacancies, mults, minima) -> QLaurent:
    """q^charge times the product over the level grid of the 1/q-binomials
    [P + correction, m], summed over the signed tableau minima."""
    out = ZERO
    for corr, k in minima.items():
        poly = q_power(charge, k)
        for p, m, d in zip(vacancies, mults, corr):
            poly = poly * invert_q(qbinomial(p + d, m))
            if poly.is_zero():
                break
        out = out + poly
    return out


# ---------------------------------------------------------------------------
# level restriction

def _lambda_prime_A(n: int,
                    lam: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Shape and alphabet of the type A tableaux."""
    reduced = tuple(lam[a] - lam[n] for a in range(n))
    return conjugate(tuple(x for x in reduced if x > 0)), lam[0] - lam[n]


def _corrections_A(n: int, lam: tuple[int, ...], level: int, t,
                   sites) -> tuple[int, ...]:
    """The tableau corrections to the vacancy numbers at the sites."""
    ltil = level - (lam[0] - lam[n])
    cols = [_column(t, a) for a in range(1, n + 2)]

    def count(a: int, i: int) -> int:  # columns strictly increase
        return bisect_right(cols[a - 1], i - ltil)

    return tuple(count(a + 1, i) - count(a, i) if a < n else -count(a, i)
                 for a, i in sites)


def _lambda_prime_C(n: int,
                    lam: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Shape and alphabet of the type C tableaux."""
    l1 = lam[0]
    seq = [2 * l1]
    seq += [l1 + lam[a] for a in range(1, n)]
    seq += [l1 - lam[n - a] for a in range(1, n + 1)]
    return conjugate(tuple(x for x in seq if x > 0)), 2 * l1


def _corrections_C(n: int, lam: tuple[int, ...], level: int, t,
                   sites) -> tuple[int, ...]:
    """The tableau corrections at the sites (a, i), i the actual part size,
    from f^(b) = f_i^(b)(t) for 1 <= b <= 2n-1: min(f^(a), f^(2n-a)) on a
    short row, floor(f^(n) / 2) on the long row.  The long-row parts are
    even, so the vacancy it is added to is an integer, and the sum is only
    compared with integers or floored: taking the floor first changes
    nothing."""
    shift = 2 * level - 2 * lam[0]
    cols = [_column(t, b) for b in range(1, 2 * n + 1)]

    def f(b: int, i: int) -> int:  # columns strictly increase
        return (bisect_right(cols[b], i - shift)
                - bisect_right(cols[b - 1], i - shift))

    return tuple(min(f(a, i), f(2 * n - a, i)) if a < n else f(n, i) // 2
                 for a, i in sites)


def level_restricted(kind: str, n: int, L: LMap, lam: tuple[int, ...],
                     level: int, mode: str = "rc_sum") -> QLaurent:
    """X-bar^level(B, Lambda) for type A, or type C single-column factors.

    rc_sum: sum q^{cc o theta} over rigged configurations with parts in
    the level grid admitting a column-strict tableau whose modified vacancy
    numbers dominate all riggings (and stay nonnegative on the grid).

    closed_form: the inclusion-exclusion over nonempty tableau subsets with
    1/q-binomials, collected by the subsets' minimal corrections.  The
    modes must agree.

    The types differ only in the tableaux (``_lambda_prime_A/C``) and the
    corrections they make at the sites (``_corrections_A/C``).  Each call
    builds the table of correction vectors, one per tableau, once; both
    modes read it.  rc_sum lists only shapes inside the level grid, and
    reads each shape's vacancy numbers and cc(nu) + sum P*m once for all
    its riggings.  A non-dominant weight gives ZERO in both modes.
    """
    data = cartan_data(kind, n)
    if len(lam) != data.dim:
        raise ValueError(f"weight must have {data.dim} coordinates")
    if kind == "A":
        corrections = _corrections_A
        shape, alphabet = _lambda_prime_A(n, lam)
    else:
        corrections = _corrections_C
        shape, alphabet = _lambda_prime_C(n, lam)
    weight_level = data.theta_pairing(lam)
    if weight_level > level:
        raise CrystalSumsError(f"weight level {weight_level} exceeds {level}")
    for (a, i) in L:
        if kind == "C" and i != 1:
            raise UnsupportedError("type C factors must be single columns")
        if i > level:
            raise UnsupportedError("factor wider than the level")
    if mode not in ("rc_sum", "closed_form"):
        raise ValueError(f"unknown mode {mode!r}")
    sizes = config_sizes(data, L, lam)
    if sizes is None or not data.is_dominant(lam):
        return ZERO
    grid = _generic_grid(data, level)
    sites = [(a, 2 * i if kind == "C" and a == n else i) for a, i in grid]
    max_part = 2 * level if kind == "C" else level
    table = [corrections(n, lam, level, t, sites)
             for t in cst_enumerate(shape, alphabet)]

    if mode == "rc_sum":
        distinct = list(dict.fromkeys(table))
        vacancies: dict = {}  # per shape nu, shared by all its riggings

        def slacks(rc: RiggedConfiguration) -> list[int]:
            vac = vacancies.get(rc.nu)
            if vac is None:
                vac = vacancies[rc.nu] = [vacancy(data, L, rc.nu, a, i)
                                          for a, i in sites]
            return [p - max(rc.rigging(a, i), default=0)
                    for p, (a, i) in zip(vac, sites)]

        rcs = enumerate_rc(kind, n, L, lam, max_part=max_part)
        return QLaurent.from_exponents(
            e for rc, e in zip(rcs, _cc_thetas(rcs, L))
            if _admits_tableau(slacks(rc), distinct))

    minima = _signed_minima(table)
    out = ZERO
    for nu in _nu_choices(data, sizes, max_part=max_part):
        gm = _generic_m(data, nu)
        mults = [gm[a - 1].get(i, 0) for a, i in grid]
        ps = [_vacancy_generic(data, L, gm, a, i) for a, i in grid]
        c = _cc_generic(data, gm) + sum(p * m for p, m in zip(ps, mults))
        out = out + _closed_form_terms(c, ps, mults, minima)
    return out


def _admits_tableau(slacks: list[int], table) -> bool:
    """Does some row of the correction table lift the vacancy numbers to
    dominate every rigging (riggings are nonnegative) at every (row, part
    size) site?  ``slacks`` holds each site's vacancy minus its top
    rigging."""
    return any(all(s + d >= 0 for s, d in zip(slacks, row)) for row in table)


def shape_L(shape) -> tuple[LMap, int]:
    """Factor multiplicities from a tensor shape; type A determinant
    columns (height n+1) are stripped and returned as a count, since each
    shifts every weight coordinate by one."""
    L: LMap = {}
    det = 0
    for d in shape:
        if d.kind == "A" and d.r == d.n + 1:
            det += 1
            continue
        key = (d.r, 1) if d.s == 1 else (1, d.s)
        L[key] = L.get(key, 0) + 1
    return L, det
