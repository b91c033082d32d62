"""Fermionic evaluations: rigged configurations and their closed forms.

The multiplicity array L maps (a, i) to the number of B^{a,i} factors, as
``cartan.shape_type`` reads it from a shape; a type A determinant column
B^{n+1,1} is the key (n+1, 1), and the weight is not shifted for it.
Type A weights are content vectors in N^{n+1}; type C weights live in Z^n
and type C factors must be single columns B^{a,1}.

Two independent routes are kept deliberately separate: the closed forms
evaluate the bilinear-form vacancy and charge expressions in the generic
index space, while the rigged-configuration side works with column counts
of the actual partitions.  Their agreement is one of the package's checks.

Both list configuration shapes by one row walk, ``_live_shapes``, which
places the rows of nu in turn.  As soon as a row's neighbours are placed,
a row function that each route supplies returns the row's sites, or None
where the route's summand vanishes for every completion: a negative
vacancy at an occupied site (rigged configurations, classical closed
form) or a negative q-binomial argument on the level grid (level closed
forms).  The walk knows no vacancy formula, so no route calls another.

Each route's row function reads tables.  Across sums, the rigged-
configuration side caches each partition's column counts Q_i
(``_column_counts``), and the closed forms cache each row's sums of
min(x, t k) over its generic parts k (``_min_sums``); no route reads the
other's table.  Within one sum, a row function keeps per (row a, row
choice) the vacancy of row a with its neighbours empty, from the route's
one formula (``vacancy``, ``_vacancy_generic``), so a check only adds the
two neighbour rows' table entries.

Type C bookkeeping: nu^(n) is stored unhalved, so its parts are even; a
generic index i at the long row corresponds to the actual part size 2i.
Both routes compute over the integer form 2(v|w) and divide once, exactly;
a half-integral vacancy (at an odd long-row size, which no sum reads)
raises NonIntegralExponent.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import lru_cache, partial
from itertools import (accumulate, chain, combinations,
                       product as iproduct, repeat)
from operator import mul, sub

from .cartan import (CartanData, _exact_quotient, cartan_data, check_sum,
                     vanishes)
from .errors import CapExceeded
from .partitions import conjugate, partitions_in_box, partitions_of
from .qpoly import QLaurent, ZERO, q_power, qbinomial

LMap = dict[tuple[int, int], int]
RC_CAP = 10 ** 6
COLUMN_COUNT_CACHE = 4096  # column-count tables kept, least recently used
MIN_SUM_CACHE = 4096  # generic min-sum tables kept, least recently used


# ---------------------------------------------------------------------------
# configuration shapes

def _boxes(L: LMap) -> int:
    """The number of boxes of the factors."""
    return sum(a * i * mult for (a, i), mult in L.items())


def config_sizes(data: CartanData, L: LMap, lam: tuple[int, ...]) -> tuple[int, ...] | None:
    """|nu^(a)| for a = 1..n (unhalved), or None when the weight constraint
    has no admissible solution (for type A, also when the content sum is
    not the number of boxes)."""
    n = data.n
    if data.kind == "A" and sum(lam) != _boxes(L):
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


def _live_shapes(data: CartanData, sizes: tuple[int, ...], row_sites,
                 max_part: int | None = None):
    """Yield (nu, sites) for the shape sequences nu with the given row
    sizes, every part at most ``max_part`` when it is given, in the order
    of the product of the per-row partition lists (row 1 slowest); the
    long row of a type C configuration gets even parts only.

    One walk places the rows in turn.  ``row_sites(nu, a)`` returns row
    a's sites, or None to drop every completion of the prefix; it may read
    only rows a - 1, a and a + 1 of nu, and a row's vacancies only grow
    with the column counts (or min-sums) of its neighbours.  The finest
    partition of a size, listed last, has the largest of these at every
    size, so once rows a - 1 and a are placed the walk looks ahead: it
    checks row a next to the finest row a + 1, and a None there drops the
    prefix before row a + 1 is tried.  That check stands for the finest
    choice of row a + 1 when the walk reaches it, so no row is checked
    twice.  ``sites`` concatenates the rows' sites in row order.  The walk
    knows no vacancy formula: each route supplies its own row function."""
    n = data.n
    per_row = []
    for a in range(1, n + 1):
        if data.kind == "C" and a == n:
            half_cap = None if max_part is None else max_part // 2
            halves = partitions_of(sizes[a - 1] // 2, half_cap)
            per_row.append(tuple(tuple(2 * p for p in mu) for mu in halves))
        else:
            per_row.append(partitions_of(sizes[a - 1], max_part))
    nu: list[tuple[int, ...]] = [()] * n
    placed: list = [None] * n  # the sites of each checked row
    ahead: list = [None] * n  # row a's sites next to the finest row a + 1
    choices = [enumerate(per_row[0])]  # one iterator per placed row
    while choices:
        r = len(choices) - 1  # place row r + 1, then check row r
        k, row = next(choices[r], (None, None))
        if row is None:
            choices.pop()
            continue
        nu[r] = row
        if r:
            placed[r - 1] = (ahead[r - 1] if k == len(per_row[r]) - 1
                             else row_sites(nu, r))
            if placed[r - 1] is None:
                continue
        if r + 1 < n:
            if not per_row[r + 1]:
                continue
            nu[r + 1] = per_row[r + 1][-1]
            ahead[r] = row_sites(nu, r + 1)
            if ahead[r] is not None:
                choices.append(enumerate(per_row[r + 1]))
            continue
        placed[r] = row_sites(nu, n)
        if placed[r] is not None:
            yield tuple(nu), [s for rs in placed for s in rs]


# ---------------------------------------------------------------------------
# vacancy numbers and charges, both routes

@lru_cache(maxsize=COLUMN_COUNT_CACHE)
def _column_counts(mu: tuple[int, ...]) -> tuple[int, ...]:
    """(Q_0, ..., Q_{mu_1}) of a partition, Q_i the number of boxes in its
    first i columns; Q_i = |mu| for every larger i."""
    return tuple(accumulate(conjugate(mu), initial=0))


def vacancy(data: CartanData, L: LMap, nu, a: int, i: int) -> int:
    """P_i^(a)(nu) from column counts, at the actual part size i."""
    n = data.n
    q = [0, 0, 0]  # Q_i of rows a - 1, a and a + 1; an absent row has none
    for k, b in enumerate((a - 2, a - 1, a)):
        if 0 <= b < n and nu[b]:
            counts = _column_counts(nu[b])
            q[k] = counts[i] if i < len(counts) else counts[-1]
    below, here, above = q
    if data.kind == "A" or a < n:
        base = below - 2 * here + above
        for (b, j), mult in L.items():
            if b == a:
                base += mult * min(i, j)
        return base
    return _exact_quotient(2 * (below - here) + L.get((n, 1), 0) * min(i, 2),
                           2, "vacancy")


def _rc_row(data: CartanData, L: LMap, sizes, memo: dict, nu,
            a: int) -> list[tuple[int, int, int, int]]:
    """(a, i, m, P_i^(a)(nu)) at each size i of ``sizes(a, row)``, m its
    multiplicity in row a; ``memo`` is one per sum and ``sizes``.
    ``vacancy`` reads the neighbour rows only through +Q_i of each, so the
    memo keeps per (a, row) the vacancy of row a alone, every other row
    empty: the L-term minus 2 Q_i(row), halved on the type C long row."""
    row = nu[a - 1]
    kept = memo.get((a, row))
    if kept is None:
        lone = ((),) * (a - 1) + (row,) + ((),) * (data.n - a)
        kept = memo[a, row] = [(a, i, row.count(i),
                                vacancy(data, L, lone, a, i))
                               for i in sizes(a, row)]
    below = _column_counts(nu[a - 2] if a > 1 else ())
    above = _column_counts(nu[a] if a < data.n else ())
    lb, la = len(below) - 1, len(above) - 1
    return [(a, i, m, p + below[i if i < lb else lb]
             + above[i if i < la else la]) for a, i, m, p in kept]


@lru_cache(maxsize=16)
def _pair_table(kind: str, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per row a (0-based), rows a - 1, a and a + 1 as (b, 2(alpha_a |
    alpha_b), t_b, t_a, s_b), s_b the scale from actual to generic part
    sizes of row b (2 on the long row of type C); a row past either end is
    (a, 0, 0, 0, 1), with pair 0.  No other row pairs with row a (the
    diagrams are paths).  Keyed by (kind, n), which hashes faster than
    the root datum."""
    data = cartan_data(kind, n)
    alpha = data.simple_roots
    return tuple(tuple((b, data.form(alpha[a], alpha[b]), data.t[b], data.t[a],
                        2 if kind == "C" and b == n - 1 else 1)
                       if 0 <= b < n else (a, 0, 0, 0, 1)
                       for b in (a - 1, a, a + 1))
                 for a in range(n))


@lru_cache(maxsize=MIN_SUM_CACHE)
def _min_sums(row: tuple[int, ...], scale: int, t: int) -> tuple[int, ...]:
    """S_x = sum of min(x, t k) over the parts k of ``row`` in generic
    indices (each part over ``scale``), for x = 0 .. t k_1; S_x is the last
    entry for every larger x.  Step x adds the parts with t k >= x."""
    return tuple(accumulate(conjugate(tuple(t * (p // scale) for p in row)),
                            initial=0))


def _vacancy_generic(data: CartanData, L: LMap, nu, a: int, i: int) -> int:
    """p_i^(a) from the bilinear form, at generic index i."""
    acc = 0
    for (b, j), mult in L.items():
        if b == a:
            acc += 2 * mult * min(i, j)
    for b, pair, tb, ta, scale in _pair_table(data.kind, data.n)[a - 1]:
        if pair and nu[b]:  # an empty row has no pair term
            sums = _min_sums(nu[b], scale, ta)
            x = tb * i
            acc -= pair * sums[x if x < len(sums) else -1]
    return _exact_quotient(acc, 2, "vacancy")


def _generic_row(data: CartanData, L: LMap, sites, memo: dict, nu,
                 a: int) -> list[tuple[int, int]] | None:
    """The closed forms' row function: row a's (p_i^(a), m) at each
    generic site (i, m, top) of ``sites(a, row)``, or None when p + top <
    0 at one of them; ``memo`` is one per sum.  ``_vacancy_generic`` reads
    the other rows only through the pair terms of rows a - 1 and a + 1
    (the diagrams are paths), so the memo keeps per (a, row) twice the
    vacancy of row a alone, every other row empty: the L part and the
    diagonal pair term."""
    row = nu[a - 1]
    kept = memo.get((a, row))
    if kept is None:
        (_, pd, td, tad, sd), _, (_, pu, tu, tau, su) = _pair_table(
            data.kind, data.n)[a - 1]
        lone = ((),) * (a - 1) + (row,) + ((),) * (data.n - a)
        kept = memo[a, row] = ([
            (td * i, tu * i, m, top, 2 * _vacancy_generic(data, L, lone, a, i))
            for i, m, top in sites(a, row)], (pd, sd, tad), (pu, su, tau))
    entries, (pd, sd, tad), (pu, su, tau) = kept
    down = _min_sums(nu[a - 2] if pd else (), sd, tad)
    up = _min_sums(nu[a] if pu else (), su, tau)
    de, ue = len(down) - 1, len(up) - 1
    out = []
    for xd, xu, m, top, acc in entries:
        p = _exact_quotient(acc - pd * down[xd if xd < de else de]
                            - pu * up[xu if xu < ue else ue], 2, "vacancy")
        if p + top < 0:
            return None
        out.append((p, m))
    return out


def _cc_generic(data: CartanData, nu) -> int:
    """cc(nu) from the bilinear form, at generic indices: each pair term
    sums row b's ``_min_sums`` table over the parts of row a."""
    acc = 0
    for a, pairs in enumerate(_pair_table(data.kind, data.n)):
        scale = 2 if data.kind == "C" and a == data.n - 1 else 1
        for b, pair, tb, ta, sb in pairs:
            if not pair:
                continue
            sums = _min_sums(nu[b], sb, ta)
            end = len(sums) - 1
            for part in nu[a]:
                x = tb * (part // scale)
                acc += pair * sums[x if x < end else end]
    return _exact_quotient(acc, 4, "charge")


def cc_shape(kind: str, n: int, nu) -> int:
    """cc(nu) from column counts (the rigged-configuration route): the
    column heights of a row are the steps of its ``_column_counts``."""
    heights = [list(map(sub, c[1:], c)) for c in map(_column_counts, nu)]
    acc = 0  # twice the charge
    for a, here in enumerate(heights, start=1):
        if kind == "C" and a == n:
            acc += sum(h * h for h in here)
            continue
        up = chain(heights[a] if a < n else (), repeat(0))
        acc += 2 * sum(h * (h - u) for h, u in zip(here, up))
    return _exact_quotient(acc, 2, "charge")


# ---------------------------------------------------------------------------
# rigged configurations

def _admitted_shapes(data: CartanData, L: LMap, lam: tuple[int, ...],
                     max_part: int | None = None):
    """Yield (nu, sites) for every admitted shape nu with the given factors
    and weight, every part at most ``max_part`` when it is given; sites
    holds (a, i, m, P) for each occupied site: row a, actual part size i,
    multiplicity m and vacancy number P, each vacancy read once.

    A shape is admitted when every occupied site has a nonnegative vacancy
    number; for dominant weights this is equivalent to nonnegativity
    everywhere (the vacancy profile is concave between occupied sites).
    The walk drops a prefix at its first occupied site with a negative
    vacancy number, read from column counts."""
    sizes = config_sizes(data, L, lam)
    if sizes is None:
        return

    memo: dict = {}

    def occupied(a, row):
        return sorted(set(row))

    def row_sites(nu, a):
        sites = _rc_row(data, L, occupied, memo, nu, a)
        for site in sites:
            if site[3] < 0:
                return None
        return sites

    yield from _live_shapes(data, sizes, row_sites, max_part)


def _riggings(sites) -> list[tuple[tuple[int, ...], ...]]:
    """Per site, every rigging: a partition in the m x P box.  Raises
    CapExceeded when the shape has more than RC_CAP rigged
    configurations."""
    boxes = [partitions_in_box(m, p) for _, _, m, p in sites]
    count = 1
    for bx in boxes:
        count *= len(bx)
        if count > RC_CAP:
            raise CapExceeded(f"more than {RC_CAP} rigged configurations")
    return boxes


def rc_generating_function(kind: str, n: int, L: LMap, lam: tuple[int, ...],
                           level: int | None = None) -> QLaurent:
    """Sum of q^{cc o theta} (the coenergy grading) over all rigged
    configurations, listed one by one over the shapes of
    ``_admitted_shapes``; at a ``level``, over those that
    ``_level_rc_sum`` keeps.  cc(theta(nu, J)) = cc(nu) + sum P*m - sum
    |J|, so a rigging enters only through its size, and no configuration
    is built.  Complementing each rigging in its m x P box sends |J| to
    P*m - |J|, so this is also the sum of q^{cc(nu, J)}, cc(nu) + sum
    |J|."""
    data = check_sum(kind, n, lam, level, L)
    if vanishes(data, L, lam, level):
        return ZERO
    if level is not None:
        _, _, sites, max_part, table = _level_tables(data, L, lam, level)
        return _level_rc_sum(data, L, lam, sites, max_part,
                             list(dict.fromkeys(table)))

    def exponents():
        for nu, sites in _admitted_shapes(data, L, lam):
            base = cc_shape(kind, n, nu) + sum(p * m for _, _, m, p in sites)
            sizes = [[sum(J) for J in bx] for bx in _riggings(sites)]
            for choice in iproduct(*sizes):
                yield base - sum(choice)

    return QLaurent.from_exponents(exponents())


# ---------------------------------------------------------------------------
# closed forms

def closed_form_F(kind: str, n: int, L: LMap, lam: tuple[int, ...],
                  level: int | None = None) -> QLaurent:
    """F-bar(B, Lambda): the manifestly positive q-binomial sum over
    configuration shapes, via the bilinear-form expressions.  A shape with
    p < 0 at an occupied site contributes [p; m] = 0, so the walk drops
    each prefix at its first such site.

    At a ``level``, the tableau closed form: over the shapes inside the
    level grid, q^{cc + sum p m} times the inclusion-exclusion over the
    nonempty sets of tableaux, collected by their minimal corrections, of
    the grid products of 1/q-binomials [p + correction; m].  A shape with
    p + max correction < 0 at a grid site, the maximum taken over the
    minima, has a zero factor in every term, so the walk drops each prefix
    at its first such site."""
    data = check_sum(kind, n, lam, level, L)
    if vanishes(data, L, lam, level):
        return ZERO
    if level is not None:
        sizes, grid, _, max_part, table = _level_tables(data, L, lam, level)
        minima = _signed_minima(table)
        tops = [max(col) for col in zip(*minima)]
        return _closed_form_sum(data, sizes,
                                _grid_row_sites(data, L, grid, tops),
                                max_part, minima)
    return _closed_form_sum(data, config_sizes(data, L, lam),
                            _occupied_row_sites(data, L), None, {(): 1})


def _occupied_row_sites(data: CartanData, L: LMap):
    """The row function of the classical closed form: ``_generic_row`` at
    each occupied generic index, with top 0, as a negative p zeroes [p;
    m]."""
    def occupied(a, row):
        scale = 2 if data.kind == "C" and a == data.n else 1
        return [(i // scale, row.count(i), 0) for i in dict.fromkeys(row)]

    return partial(_generic_row, data, L, occupied, {})


def _generic_grid(data: CartanData, level: int) -> list[tuple[int, int]]:
    """H^level in generic indices: 1 <= i <= t_a * level."""
    return [(a, i) for a in range(1, data.n + 1)
            for i in range(1, data.t[a - 1] * level + 1)]


def vacuum_weight(data: CartanData, L: LMap) -> tuple[int, ...] | None:
    """Content coordinates of the zero weight: the vacuum rectangle for
    type A, the origin for type C."""
    if data.kind == "C":
        return (0,) * data.n
    boxes = _boxes(L)
    if boxes % (data.n + 1):
        return None
    return (boxes // (data.n + 1),) * (data.n + 1)


def closed_form_F_level(data: CartanData, L: LMap, level: int) -> QLaurent:
    """F-bar^level(B): ``closed_form_F`` at the level and the vacuum
    weight, where the only tableau is the empty one, so every grid site
    contributes its q-binomial factor with a zero correction; ZERO when
    the boxes do not fill a vacuum rectangle."""
    check_sum(data.kind, data.n, None, level, L)
    lam = vacuum_weight(data, L)
    if lam is None:
        return ZERO
    return closed_form_F(data.kind, data.n, L, lam, level)


def _grid_row_sites(data: CartanData, L: LMap, grid, tops):
    """The row function of the level forms: ``_generic_row`` at each site
    (a, i) of the generic ``grid``, with its bound from ``tops``: every
    q-binomial [p + correction; m] with a correction at most top is
    zero."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(data.n)]
    for (a, i), top in zip(grid, tops):
        rows[a - 1].append((i, top))

    def on_grid(a, row):
        scale = 2 if data.kind == "C" and a == data.n else 1
        return [(i, row.count(scale * i), top) for i, top in rows[a - 1]]

    return partial(_generic_row, data, L, on_grid, {})


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


def _level_tables(data: CartanData, L: LMap, lam: tuple[int, ...],
                  level: int):
    """What both level sums of type A, or type C single-column factors,
    read: (row sizes, the generic grid, its sites (a, i) at actual part
    sizes, the largest part, the table of correction vectors at the sites,
    one per column-strict tableau), for a weight that ``vanishes`` does
    not rule out, whose row sizes are then admissible.  The types differ
    only in the tableaux (``_lambda_prime_A/C``) and the corrections they
    make at the sites (``_corrections_A/C``)."""
    sizes = config_sizes(data, L, lam)
    kind, n = data.kind, data.n
    lambda_prime, corrections = ((_lambda_prime_A, _corrections_A)
                                 if kind == "A" else
                                 (_lambda_prime_C, _corrections_C))
    shape, alphabet = lambda_prime(n, lam)
    grid = _generic_grid(data, level)
    sites = [(a, 2 * i if kind == "C" and a == n else i) for a, i in grid]
    table = [corrections(n, lam, level, t, sites)
             for t in cst_enumerate(shape, alphabet)]
    return sizes, grid, sites, 2 * level if kind == "C" else level, table


def _closed_form_sum(data: CartanData, sizes: tuple[int, ...], row_sites,
                     max_part: int | None, minima) -> QLaurent:
    """The one sum of the closed forms: over the shapes nu of
    ``_live_shapes`` with their sites (p, m) from ``row_sites``, and over
    the signed corrections d -> k of ``minima``, the terms k q^{cc(nu) -
    sum d m} prod [p + d; m].  A correction shorter than the sites is
    padded with zeros, so {(): 1} is the single zero correction.  A term
    with p + d < 0 at a site is zero, and [p + d; 0] = 1 otherwise.

    [x; m] is palindromic of degree x m, so a term is also q^{cc + sum p
    m} prod 1/q-binomials [p + d; m], the form of ``closed_form_F`` at a
    level."""
    out = ZERO
    for nu, sites in _live_shapes(data, sizes, row_sites, max_part):
        cc = _cc_generic(data, nu)
        ms = [m for _, m in sites]
        for corr, k in minima.items():
            lifted = [p + d for (p, _), d in zip(sites, corr or repeat(0))]
            if min(lifted, default=0) < 0:
                continue
            poly = q_power(cc - sum(map(mul, corr, ms)), k)
            for x, m in zip(lifted, ms):
                if m:
                    poly = poly * qbinomial(x, m)
            out = out + poly
    return out


def _level_rc_sum(data: CartanData, L: LMap, lam: tuple[int, ...], sites,
                  max_part: int, table) -> QLaurent:
    """``rc_generating_function`` at a level: q^{cc o theta} over the
    rigged configurations inside the level grid whose modified vacancy
    numbers some column-strict tableau lifts to dominate every rigging
    (``_admits_tableau``), listed one by one over the shapes of
    ``_admitted_shapes``.

    The test reads a rigging only through its top part, and the statistic
    only through its size, so each site's riggings are grouped by top
    part: the test runs once per choice of tops, and every rigging of an
    admitted choice is counted.  Grid sites that nu leaves empty keep
    their vacancy number as slack."""
    position = {site: k for k, site in enumerate(sites)}
    on_grid = [[i for b, i in sites if b == a] for a in range(data.n + 1)]

    def grid_sizes(a, row):
        return on_grid[a]

    memo: dict = {}
    counts: Counter = Counter()
    for nu, occupied in _admitted_shapes(data, L, lam, max_part):
        slacks = [p for a in range(1, data.n + 1) for *_, p
                  in _rc_row(data, L, grid_sizes, memo, nu, a)]
        where = [position[a, i] for a, i, _, _ in occupied]
        shift = cc_shape(data.kind, data.n, nu) + sum(
            p * m for _, _, m, p in occupied)
        by_top = []
        for bx in _riggings(occupied):
            sizes: dict[int, list[int]] = {}
            for J in bx:
                sizes.setdefault(J[0] if J else 0, []).append(sum(J))
            by_top.append(sizes)
        for tops in iproduct(*by_top):
            row = list(slacks)
            for k, top in zip(where, tops):
                row[k] -= top
            if _admits_tableau(row, table):
                for choice in iproduct(*(g[t] for g, t in zip(by_top, tops))):
                    counts[shift - sum(choice)] += 1
    return QLaurent.from_dict(counts)


def _admits_tableau(slacks: list[int], table) -> bool:
    """Does some row of the correction table lift the vacancy numbers to
    dominate every rigging (riggings are nonnegative) at every (row, part
    size) site?  ``slacks`` holds each site's vacancy minus its top
    rigging."""
    return any(all(s + d >= 0 for s, d in zip(slacks, row)) for row in table)
