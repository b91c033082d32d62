"""Independent oracles used to derive expected test values.

These deliberately avoid the code paths they check: box partitions are
enumerated directly, tensor multiplicities come from characters (weight
multisets plus Weyl alternation) rather than crystal arrows, series
coefficients come from explicit partition counting, path sets come from
filtering the whole tensor product instead of the pruned search, the
level alternating sum visits its whole translation window, the
involution's pair sets scan every (affine) Weyl element against every
word instead of walking each word into the chamber or alcove, the
rigged-configuration sums add up every ``RiggedConfiguration`` of
``enumerate_rc`` (with the per-configuration statistics cc and cc o theta
and the complementation theta) instead of rigging sizes per shape, the
configuration shapes and the closed forms over them come from the full
product of per-row partitions instead of the row-by-row walk that drops
dead prefixes, and each hard-hexagon bosonic term is one ``qbinomial``
instead of a step along a row.  The R-matrices come from a search over
two-factor tensor words through the general ``tensor_arrow`` instead of
element indices, the involution's pairing color from building every
suffix word instead of one fold over the letters, and its pair set from
walking every word's weight instead of each distinct weight once.  The
word-level reference lives here: a ``TensorWord`` of ``Factor``s, its e_i,
f_i and s_i through the cached per-factor ``factor_stats`` and
``factor_arrow`` (the package applies them to element index tuples through
per-factor index tables), the package's R-matrix index tables read as
``Factor``-keyed sigma and H (``r_matrix_view``), and E_B by its literal
double sum over R-matrix shuffles (the package scores a path in one pass
per placed factor). The crystal helpers only tests use (a component as an
explicit graph, the level of a crystal, the coroot pairing of a word's
weight, a word of given factors or of boxes, a word's weight and every
word of a tensor product) live here too, and so do the hard-hexagon path
listing and the strip reformulation the bosonic terms are checked against.
The package applies each simple reflection as its action rows; a Weyl
group element with its sign and composition (``WeylElement``, the product
``element`` of a word) and the coroot pairing of root data live here.  The
finite Weyl group is listed whole, by a search over the generators, and
the translation lattice as a window of every translation up to a
coordinate bound, as the reference for the walk that lists only the terms
a sum can use.  The ``QLaurent`` readers only tests use (a dict of terms,
the value at q = 1, the inverse of ``to_json``) are functions here, and
so is division by 1 - q^k one coefficient at a time, against the
package's slice walks.  Every sum at q = 1 is also counted without any
route: ``count_oracle`` takes Brauer-Klimyk multiplicities, folded into
the level's alcove for a level sum (Kac-Walton), by its own chamber and
alcove fold; a type C column B^{r,1} enters it as the weights of
Lambda^r - Lambda^(r-2).  The vacancy numbers of both fermionic routes are
recomputed here by their definitions, summed over every part of every row
(``vacancy_by_columns``, ``vacancy_by_form``), against the package's
per-row tables.  The hard-hexagon series are built here as one
``QLaurent`` per step (a new polynomial per division and per term), against
the package's one coefficient list per series, and the shape walk without
its look-ahead (``live_shapes_plain``) checks each row only after the next
row is placed.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, combinations_with_replacement, product

import crystalsums.crystal as crystal

from crystalsums.bosonic import _supernomial_uncached
from crystalsums.cartan import (Action, CartanData, _exact_quotient,
                                cartan_data, reduce_to_alcove, shape_type,
                                simple_reflections)
from crystalsums.crystal import (Factor, FactorDescriptor, _combine_stats,
                                 _route, factor_arrow, factor_elements,
                                 factor_stats, factor_weight,
                                 highest_weight_element)
from crystalsums.energy import combinatorial_r
from crystalsums.errors import (CapExceeded, EnergyConsistencyError,
                                InexactDivision, InvolutionError,
                                IsomorphismError, UnsupportedError)
from crystalsums.fermionic import (_admitted_shapes, _corrections_A,
                                   _corrections_C, _generic_grid,
                                   _lambda_prime_A, _lambda_prime_C,
                                   _riggings, _signed_minima,
                                   cc_shape, config_sizes, cst_enumerate,
                                   vacuum_weight)
from crystalsums.partitions import partitions_of
from crystalsums.qpoly import QLaurent, ZERO, invert_q, q_power, qbinomial


def box_partitions(width: int, height: int) -> list[tuple[int, ...]]:
    """All partitions with at most ``height`` parts, each at most ``width``,
    by direct recursion."""
    if width < 0 or height < 0:
        return []
    out = [()]
    def rec(prefix: tuple[int, ...], hi: int):
        if len(prefix) == height:
            return
        for v in range(1, hi + 1):
            out.append(prefix + (v,))
            rec(prefix + (v,), v)
    rec((), width)
    return out


def as_dict(p: QLaurent) -> dict[int, int]:
    """The polynomial as an exponent -> nonzero coefficient dict."""
    return dict(p.terms)


def at_one(p: QLaurent) -> int:
    """The polynomial at q = 1: the sum of its coefficients."""
    return sum(p.coeffs)


def from_json(s: str) -> QLaurent:
    """The inverse of ``QLaurent.to_json``."""
    return QLaurent.from_dict({int(e): int(c) for e, c in json.loads(s)})


def div_one_minus_q_by_coefficient(p: QLaurent, k: int,
                                   cutoff: int | None = None) -> QLaurent:
    """p / (1 - q^k) one coefficient at a time, r_e = p_e + r_(e-k), in
    increasing exponent e.  With a cutoff, the power series through
    q^cutoff; without one, the quotient through deg p - k, which must give
    back p when multiplied by 1 - q^k, else InexactDivision.  A k below 1
    raises ValueError."""
    if k < 1:
        raise ValueError(f"cannot divide by 1 - q^{k}")
    if not p.coeffs:
        return ZERO
    top = p.degree() - k if cutoff is None else cutoff
    r: dict[int, int] = {}
    for e in range(p.low, top + 1):
        r[e] = p.coeff(e) + r.get(e - k, 0)
    if cutoff is None:
        back = {e: r.get(e, 0) - r.get(e - k, 0)
                for e in range(p.low, p.degree() + 1)}
        if QLaurent.from_dict(back) != p:
            raise InexactDivision(f"division by 1 - q^{k} is not exact")
    return QLaurent.from_dict(r)


def gf_from_sizes(sizes) -> dict[int, int]:
    cnt = Counter(sizes)
    return dict(sorted(cnt.items()))


def _exterior_weights(n: int, r: int) -> Counter:
    """Weight multiset of the r-th exterior power of the 2n-dimensional
    representation of C_n, whose weights are +e_i and -e_i: one sum per
    r-subset of those 2n weights."""
    out: Counter = Counter()
    if r < 0:
        return out
    for sub in combinations(range(2 * n), r):
        w = [0] * n
        for j in sub:
            w[j % n] += 1 if j < n else -1
        out[tuple(w)] += 1
    return out


def factor_weight_multiset(kind: str, n: int, r: int, s: int) -> Counter:
    """Weight multiset of one factor crystal, combinatorially.  A type C
    column B^{r,1} is classically V(varpi_r) alone, whose character is
    Lambda^r V - Lambda^{r-2} V for the 2n-dimensional V."""
    dim = n + 1 if kind == "A" else n
    if kind == "C":
        assert s == 1 and 1 <= r <= n
        out = _exterior_weights(n, r)
        out.subtract(_exterior_weights(n, r - 2))
        assert min(out.values()) >= 0
        return +out
    out: Counter = Counter()
    if s == 1:
        for col in combinations(range(dim), r):
            w = [0] * dim
            for j in col:
                w[j] = 1
            out[tuple(w)] += 1
    else:
        assert r == 1
        for row in combinations_with_replacement(range(dim), s):
            w = [0] * dim
            for j in row:
                w[j] += 1
            out[tuple(w)] += 1
    return out


def tensor_weight_multiset(kind: str, n: int, shape) -> Counter:
    dim = n + 1 if kind == "A" else n
    acc: Counter = Counter({(0,) * dim: 1})
    for (r, s) in shape:
        fw = factor_weight_multiset(kind, n, r, s)
        nxt: Counter = Counter()
        for w1, c1 in acc.items():
            for w2, c2 in fw.items():
                nxt[tuple(a + b for a, b in zip(w1, w2))] += c1 * c2
        acc = nxt
    return acc


def coroot_pairing(data: CartanData, a: int, v: tuple[int, ...]) -> int:
    """<h_a, v> = t_a (alpha_a | v); always an integer: the type C
    denominator 2 meets t_a = 2 or the long root's even coordinate."""
    return _exact_quotient(
        data.t[a - 1] * data.form(data.simple_roots[a - 1], v), 2,
        "coroot pairing")


@dataclass(frozen=True)
class WeylElement:
    """An element of the (affine) Weyl group by its action on coordinates,
    coordinate k of w(v) being s * v[i] + t for the row (i, s, t).
    ``sign`` is (-1)^length; ``word`` is a word for the element in the
    simple reflections, leftmost acting last, and takes no part in
    equality."""

    action: Action
    sign: int
    word: tuple[int, ...] = field(default=(), compare=False)

    def apply(self, v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(s * v[i] + t for i, s, t in self.action)

    def compose(self, other: WeylElement) -> WeylElement:
        """self o other: other acts first."""
        rows = other.action
        return WeylElement(
            tuple((rows[i][0], s * rows[i][1], s * rows[i][2] + t)
                  for i, s, t in self.action),
            self.sign * other.sign, self.word + other.word)


def element(data: CartanData, word: tuple[int, ...],
            level: int | None = None) -> WeylElement:
    """The product of the simple reflections of ``word``, leftmost last."""
    gens = simple_reflections(data, level)
    out = WeylElement(tuple((j, 1, 0) for j in range(data.dim)), 1)
    for i in word:
        out = out.compose(WeylElement(gens[i], -1, (i,)))
    return out


@cache
def weyl_enumerate(data: CartanData) -> tuple[WeylElement, ...]:
    """Every element of the finite Weyl group, once, with its sign, by BFS
    over the generators: the discovery depth is the reduced word length,
    so sign = (-1)^depth."""
    gens = [element(data, (i,)) for i in range(1, data.n + 1)]
    ident = element(data, ())
    seen = {ident: None}  # a dict keeps the discovery order
    frontier = [ident]
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                new = g.compose(el)  # g is leftmost in the word
                if new not in seen:
                    seen[new] = None
                    nxt.append(new)
        frontier = nxt
    return tuple(seen)


def translation_lattice_box(data: CartanData, level: int,
                            coordinate_bound: int) -> list[tuple[int, ...]]:
    """A finite window of the translation lattice M (vectors of sum zero in
    type A, 2Z^n in type C): every beta whose coordinates stay within
    ceil(coordinate_bound / (level + h_dual)) plus one ring, so that it
    holds every beta with |c beta_k| <= coordinate_bound."""
    if coordinate_bound < 0:
        raise ValueError("coordinate bound must be nonnegative")
    c = level + data.h_dual
    cap = -(-coordinate_bound // c) + 1
    if data.kind == "A":
        rng = range(-cap, cap + 1)
        return [beta for beta in product(rng, repeat=data.n + 1)
                if sum(beta) == 0]
    half = -(-cap // 2)
    return list(product(range(-2 * half, 2 * half + 1, 2), repeat=data.n))


def lr_multiplicity(kind: str, n: int, shape, lam: tuple[int, ...]) -> int:
    """Multiplicity of the irreducible with highest weight lam in the
    tensor product, by Weyl alternation of the weight multiset."""
    data = cartan_data(kind, n)
    mult = tensor_weight_multiset(kind, n, shape)
    target = None
    total = 0
    for w in weyl_enumerate(data):
        shifted = tuple(l + r for l, r in zip(lam, data.rho))
        pre = w.apply(shifted)
        mu = tuple(a - r for a, r in zip(pre, data.rho))
        total += w.sign * mult.get(mu, 0)
    del target
    return total


def _fold_into_chamber(kind: str, v: list[int], c: int | None
                       ) -> tuple[int, tuple[int, ...]] | None:
    """(sign(w), w(v)) for the w of the finite Weyl group (no ``c``), or of
    the affine one at c = level + h_dual, that takes the rho-shifted weight
    v into the open dominant chamber or alcove, or None when v lies on a
    wall.  The finite part sorts |v| (type C: each sign flip and each
    inversion is one reflection); the affine wall (v|theta) = c reflects v
    by v_1 -> v_{n+1} + c, v_{n+1} -> v_1 - c (type A) or v_1 -> 2c - v_1
    (type C), then the finite part runs again."""
    sign = 1
    while True:
        if kind == "C":
            sign *= (-1) ** sum(x < 0 for x in v)
            v = [abs(x) for x in v]
        sign *= (-1) ** sum(a < b for j, a in enumerate(v) for b in v[j + 1:])
        v = sorted(v, reverse=True)
        if len(set(v)) < len(v) or (kind == "C" and v[-1] == 0):
            return None
        if c is None:
            return sign, tuple(v)
        top = v[0] - v[-1] if kind == "A" else v[0]
        if top < c:
            return sign, tuple(v)
        if top == c:
            return None
        if kind == "A":
            v[0], v[-1] = v[-1] + c, v[0] - c
        else:
            v[0] = 2 * c - v[0]
        sign = -sign


def count_oracle(kind: str, n: int, shape, level: int | None = None
                 ) -> dict[tuple[int, ...], int]:
    """Every sum at q = 1 over (r, s) factors ``shape``, by dominant weight:
    the multiplicity of each irreducible in the tensor product of the
    factors' classical crystals (Brauer-Klimyk), or at a ``level`` in their
    fusion product (Kac-Walton: the same, folded into the level's alcove).
    One factor at a time, every weight gamma of its weight multiset moves
    V(mu) to sign(w) V(w(mu + gamma + rho) - rho).  No supernomial, rigged
    configuration, energy or package reflection is used."""
    data = cartan_data(kind, n)
    rho = data.rho
    c = None if level is None else level + data.h_dual
    mult = {(0,) * len(rho): 1}
    for r, s in shape:
        gammas = factor_weight_multiset(kind, n, r, s)
        nxt: Counter = Counter()
        for mu, m in mult.items():
            for gamma, k in gammas.items():
                folded = _fold_into_chamber(
                    kind, [a + b + x for a, b, x in zip(mu, gamma, rho)], c)
                if folded is not None:
                    sign, v = folded
                    nxt[tuple(a - x for a, x in zip(v, rho))] += sign * m * k
        mult = {mu: m for mu, m in nxt.items() if m}
    return mult


def qbinomial_pascal(m: int, n: int) -> dict[int, int]:
    """Gaussian binomial of an m x n box as {exponent: coefficient}, by the
    q-Pascal rule G(m, n) = G(m, n - 1) + q^n G(m - 1, n) with G(m, 0) =
    G(0, n) = 1; empty when either argument is negative."""
    if m < 0 or n < 0:
        return {}
    rows = [[{0: 1}] * (n + 1)]  # rows[a][b] = G(a, b)
    for a in range(1, m + 1):
        row = [{0: 1}]
        for b in range(1, n + 1):
            g = dict(row[b - 1])
            for e, c in rows[a - 1][b].items():
                g[e + b] = g.get(e + b, 0) + c
            row.append(g)
        rows.append(row)
    return rows[m][n]


def hh_paths(L: int, primed: bool = False):
    """Yield all hard-hexagon height sequences in D_L (or D'_L): 0/1
    sequences sigma_0..sigma_L with no two adjacent 1's and sigma_L = 0,
    starting at 0 (at 1 when primed)."""
    start = 1 if primed else 0
    if L == 0:
        if start == 0:
            yield (0,)
        return

    # positions 1..L-1 are free subject to adjacency; sigma_L = 0
    def rec(prefix: list[int], i: int):
        if i == L:
            yield tuple(prefix) + (0,)
            return
        choices = (0,) if prefix[-1] else (0, 1)
        for v in choices:
            prefix.append(v)
            yield from rec(prefix, i + 1)
            prefix.pop()

    yield from rec([start], 1)


def hh_energy(sigma: tuple[int, ...]) -> int:
    """Sum of the positions of the particles."""
    return sum(j for j, s in enumerate(sigma) if s)


def hh_X_by_lists(L: int, primed: bool = False) -> QLaurent:
    """X(L) (or X'(L)) by X(m) = X(m - 1) + q^(m-1) X(m - 2) from X(-1) =
    0, X(0) = 1 (X'(-1) = 1, X'(0) = 0), on plain coefficient lists added
    one entry at a time: a reference for every ``hh_X`` kernel."""
    prev, cur = ([1], []) if primed else ([], [1])
    for m in range(1, L + 1):
        nxt = cur + [0] * max(0, m - 1 + len(prev) - len(cur))
        for i, c in enumerate(prev):
            nxt[m - 1 + i] += c
        prev, cur = cur, nxt
    return QLaurent.from_dict(dict(enumerate(cur)))


def bosonic_term(L: int, j: int, primed: bool = False):
    """One summand q^(j(5j+1)/2) [L; floor((L - 5j)/2)] of the hard-hexagon
    alternating sum (q^(j(5j+3)/2) [L; floor((L - 5j - 1)/2)] when
    primed), without its sign, from one ``qbinomial``; the strip tests
    match it against path sets."""
    # j(5j+1) and j(5j+3) are always even
    if primed:
        expo = j * (5 * j + 3) // 2
        k = (L - 5 * j - 1) // 2
    else:
        expo = j * (5 * j + 1) // 2
        k = (L - 5 * j) // 2
    return qbinomial(L - k, k).shift(expo)


# The hard-hexagon strip reformulation: each path is a walk in a strip of
# height four, and each single bosonic term counts the walks with a chain
# of strip violations.  STRIP_CAP bounds the walks listed.

STRIP_CAP = 20


def strip_transform(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """Map a hard-hexagon path to its height-strip walk, starting at 3.

    Occupied sites land in {1, 4}, empty sites in {2, 3}; from any height
    exactly one of the two +-1 steps lands in the required class, so the
    walk is determined.
    """
    if any(s not in (0, 1) for s in sigma) \
            or any(a and b for a, b in zip(sigma, sigma[1:])):
        raise UnsupportedError(f"{sigma} is not a hard-hexagon path")
    heights = [3 if sigma[0] == 0 else 4]
    for s in sigma[1:]:
        h = heights[-1]
        target = (1, 4) if s else (2, 3)
        heights.append(h - 1 if h - 1 in target else h + 1)
    return tuple(heights)


def strip_energy(heights: tuple[int, ...]) -> int:
    """Positions of peaks above the strip midline and valleys below it."""
    total = 0
    L = len(heights) - 1
    for i in range(1, L):
        a, b, c = heights[i - 1], heights[i], heights[i + 1]
        if a == b - 1 == c and b > 3:
            total += i
        elif a == b + 1 == c and b < 2:
            total += i
    return total


def strip_paths(L: int):
    """All +-1 walks from height 3 with the balanced content
    (floor(L/2) ups, ceil(L/2) downs)."""
    ups = L // 2
    for up_positions in combinations(range(L), ups):
        pos = set(up_positions)
        heights = [3]
        for i in range(L):
            heights.append(heights[-1] + (1 if i in pos else -1))
        yield tuple(heights)


def _witness_count(heights: tuple[int, ...], first_low: bool) -> int:
    """Longest alternating chain of strip violations, starting with a
    height < 1 (first_low) or > 4."""
    count = 0
    want_low = first_low
    for h in heights[1:]:
        if want_low and h < 1:
            count += 1
            want_low = False
        elif not want_low and h > 4:
            count += 1
            want_low = True
    return count


def in_strip(heights: tuple[int, ...]) -> bool:
    return all(1 <= h <= 4 for h in heights[1:])


def strip_inclusion_exclusion(L: int, j: int) -> QLaurent:
    """Generating function of P_L^{down,j} (j > 0), P_L^{up,-j} (j < 0) or
    all of P_L (j = 0), which matches the single bosonic term."""
    if L > STRIP_CAP:
        raise CapExceeded(f"strip enumeration capped at L = {STRIP_CAP}")
    return QLaurent.from_exponents(
        strip_energy(h) for h in strip_paths(L)
        if j == 0 or _witness_count(h, first_low=j > 0) >= abs(j))


def partitions_gap2(total: int) -> int:
    """Partitions of ``total`` with parts pairwise differing by >= 2."""
    def rec(rem: int, max_part: int) -> int:
        if rem == 0:
            return 1
        cnt = 0
        for p in range(min(rem, max_part), 0, -1):
            cnt += rec(rem - p, p - 2)
        return cnt
    return rec(total, total)


def rr_fermionic_series(which: int, cutoff: int) -> QLaurent:
    """Sum of q^(n^2) / (q)_n (identity 1) or q^(n(n+1)) / (q)_n (identity
    2) through q^cutoff, one ``QLaurent`` per division and per term."""
    out = ZERO
    inv_pochhammer = QLaurent(0, (1,))  # 1/(q)_n, grown as n does
    n = 0
    while True:
        expo = n * n if which == 1 else n * (n + 1)
        if expo > cutoff:
            break
        if n > 0:
            inv_pochhammer = div_one_minus_q_by_coefficient(
                inv_pochhammer, n, cutoff - expo)
        out = out + inv_pochhammer.shift(expo)
        n += 1
    return out


def rr_product_series(which: int, cutoff: int) -> QLaurent:
    """1 / prod (1 - q^k) over k = +-1 (identity 1) or +-2 (identity 2) mod
    5, through q^cutoff, one ``QLaurent`` per division."""
    residues = (1, 4) if which == 1 else (2, 3)
    out = QLaurent(0, (1,))
    for k in range(1, cutoff + 1):
        if k % 5 in residues:
            out = div_one_minus_q_by_coefficient(out, k, cutoff)
    return out


def rr_alternating_series(which: int, cutoff: int) -> QLaurent:
    """The sum over j of (-1)^j q^(j(5j+1)/2) (identity 1) or q^(j(5j+3)/2)
    (identity 2) over (q)_cutoff, through q^cutoff, one ``QLaurent`` per
    division."""
    signs = {}
    j = 0
    while True:
        done = True
        for jj in (j, -j) if j else (0,):
            e = jj * (5 * jj + (1 if which == 1 else 3)) // 2
            if 0 <= e <= cutoff:
                signs[e] = 1 if jj % 2 == 0 else -1
                done = False
        if done and j > 0:
            break
        j += 1
    out = QLaurent.from_dict(signs)
    for k in range(1, cutoff + 1):
        out = div_one_minus_q_by_coefficient(out, k, cutoff)
    return out


def partitions_congruent(total: int, residues: set[int], mod: int) -> int:
    parts = [k for k in range(1, total + 1) if k % mod in residues]

    def rec(rem: int, idx: int) -> int:
        if rem == 0:
            return 1
        if idx == len(parts):
            return 0
        cnt = rec(rem, idx + 1)
        p = parts[idx]
        if p <= rem:
            cnt += rec(rem - p, idx)  # reuse allowed
        return cnt
    return rec(total, 0)


def dominant_contents_A(n: int, total: int) -> list[tuple[int, ...]]:
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


def dominant_weights_C(n: int, boxes: int) -> list[tuple[int, ...]]:
    from itertools import product as iproduct
    out = []
    for t in iproduct(range(boxes + 1), repeat=n):
        if all(t[i] >= t[i + 1] for i in range(n - 1)) \
                and sum(t) <= boxes and (boxes - sum(t)) % 2 == 0:
            out.append(t)
    return out


def all_contents_A(n: int, total: int) -> list[tuple[int, ...]]:
    out = []

    def rec(rem, acc):
        if len(acc) == n:
            out.append(tuple(acc) + (rem,))
            return
        for v in range(rem + 1):
            rec(rem - v, acc + [v])

    rec(total, [])
    return out


@dataclass(frozen=True)
class TensorWord:
    """An element b_L (x) ... (x) b_1 as its factors, stored left to
    right."""

    kind: str
    n: int
    factors: tuple[Factor, ...]

    @property
    def length(self) -> int:
        return len(self.factors)

    def shape(self) -> tuple[FactorDescriptor, ...]:
        return tuple(x.desc for x in self.factors)

    def flatten(self) -> tuple[int, ...]:
        """The image in B(Lambda_1)^(x)M: all letters, display order."""
        return tuple(b for x in self.factors for b in x.letters)

    def __str__(self) -> str:
        if not self.factors:
            return "(empty)"
        return "(x)".join(str(x) for x in self.factors)


def path_word(shape: tuple[FactorDescriptor, ...],
              path: tuple[int, ...]) -> TensorWord:
    """The word of an element index tuple in display order, as the path
    search and the involution store it."""
    kind = shape[0].kind if shape else "A"
    n = shape[0].n if shape else 1
    return TensorWord(kind, n, tuple(factor_elements(d)[k]
                                     for d, k in zip(shape, path)))


def string_stats(w: TensorWord, i: int) -> tuple[int, int]:
    """(eps_i, phi_i) of a tensor word."""
    E, P, _ = _combine_stats([factor_stats(x, i) for x in w.factors])
    return E, P


def tensor_arrow(w: TensorWord, i: int, direction: str) -> TensorWord | None:
    """e_i or f_i of a tensor word by the tensor rule, or None."""
    stats = [factor_stats(x, i) for x in w.factors]
    j = _route(stats, direction)
    if j is None:
        return None
    y = factor_arrow(w.factors[j], i, direction)
    if y is None:
        return None
    return TensorWord(w.kind, w.n, w.factors[:j] + (y,) + w.factors[j + 1:])


def reflection_s(w: TensorWord, i: int) -> TensorWord:
    """The crystal reflection s_i: slide to the far end of the i-string."""
    eps, phi = string_stats(w, i)
    direction = "f" if phi > eps else "e"
    for _ in range(abs(phi - eps)):  # within the string: phi f's, eps e's
        w = tensor_arrow(w, i, direction)
    return w


@cache
def r_matrix_view(desc2, desc1) -> tuple[dict, dict]:
    """(sigma, H) of the package's R-matrix for B2 (x) B1, keyed by
    ``Factor`` pairs: sigma[(x2, x1)] = (y1, y2) and H[(x2, x1)], read off
    the index table step[a][b] = (H, c, d) of ``energy.combinatorial_r``."""
    E2, E1 = factor_elements(desc2), factor_elements(desc1)
    sigma, H = {}, {}
    for a, row in enumerate(combinatorial_r(desc2, desc1)):
        for b, (h, c, d) in enumerate(row):
            sigma[(E2[a], E1[b])] = (E1[c], E2[d])
            H[(E2[a], E1[b])] = h
    return sigma, H


def apply_sigma(w: TensorWord, k: int) -> TensorWord:
    """sigma_k: exchange the k-th and (k+1)-st factors counted from the
    right (positions k and k+1, 1-based)."""
    L = w.length
    left, right = L - k - 1, L - k
    x2, x1 = w.factors[left], w.factors[right]
    y1, y2 = r_matrix_view(x2.desc, x1.desc)[0][(x2, x1)]
    factors = w.factors[:left] + (y1, y2) + w.factors[right + 1:]
    return TensorWord(w.kind, w.n, factors)


def local_h(w: TensorWord, k: int) -> int:
    L = w.length
    x2, x1 = w.factors[L - k - 1], w.factors[L - k]
    return r_matrix_view(x2.desc, x1.desc)[1][(x2, x1)]


def energy_EB(w: TensorWord) -> int:
    """The energy E_B(b) = sum over i < j of H_i sigma_{i+1}...sigma_{j-1},
    term by term (Date-Jimbo-Kuniba-Miwa-Okado 1987)."""
    total = 0
    for j in range(2, w.length + 1):
        cur = w
        for i in range(j - 1, 0, -1):
            if i != j - 1:
                cur = apply_sigma(cur, i + 1)
            total += local_h(cur, i)
    return total


def coenergy_D(w: TensorWord) -> int:
    """Minus the intrinsic energy D of a word.

    The general formula for D adds, to E_B, the factor intrinsic energies
    along sigma shuffles; every factor supported here has a single
    classical component and is normalized to zero on it, so those summands
    vanish identically and D = E_B.
    """
    return -energy_EB(w)


def word(factors: tuple[Factor, ...], kind: str | None = None,
         n: int | None = None) -> TensorWord:
    """A word of the given factors, which must share one type and rank."""
    if factors:
        kind, n = factors[0].desc.kind, factors[0].desc.n
        if any((x.desc.kind, x.desc.n) != (kind, n) for x in factors):
            raise UnsupportedError("a word cannot mix types or ranks")
    elif kind is None or n is None:
        raise ValueError("empty word needs an explicit kind and rank")
    return TensorWord(kind, n, tuple(factors))


def letters_word(kind: str, n: int, letters: tuple[int, ...]) -> TensorWord:
    """A word of single-box factors."""
    d = FactorDescriptor(kind, n)
    return TensorWord(kind, n, tuple(Factor(d, (b,)) for b in letters))


def word_weight(w: TensorWord) -> tuple[int, ...]:
    dim = w.n + 1 if w.kind == "A" else w.n
    out = [0] * dim
    for x in w.factors:
        for j, c in enumerate(factor_weight(x)):
            out[j] += c
    return tuple(out)


def shape_elements(shape: tuple[FactorDescriptor, ...]):
    """Every word of the tensor product, in product order; more than
    ``crystal.VERTEX_CAP`` words raise."""
    total = 1
    for d in shape:
        total *= len(factor_elements(d))
        if total > crystal.VERTEX_CAP:
            raise CapExceeded(
                f"tensor product has more than {crystal.VERTEX_CAP} elements")
    kind = shape[0].kind if shape else "A"
    n = shape[0].n if shape else 1
    for combo in product(*(factor_elements(d) for d in shape)):
        yield TensorWord(kind, n, combo)


def is_classically_restricted(w) -> bool:
    """Killed by every classical e_i."""
    return all(string_stats(w, i)[0] == 0 for i in range(1, w.n + 1))


def filtered_paths(shape, weight, restriction: str = "none",
                   level: int | None = None) -> list:
    """The path set of ``enumerate_paths`` by filtering every word of the
    tensor product: weight, then killed by every classical e_i, then
    eps_0 at most the level."""
    out = []
    for w in shape_elements(shape):
        if word_weight(w) != tuple(weight):
            continue
        if restriction != "none" and not is_classically_restricted(w):
            continue
        if restriction == "level" and string_stats(w, 0)[0] > level:
            continue
        out.append(w)
    return out


def unpruned_bosonic_level(shape, lam, level):
    """The level sum of ``alternating_sum`` over every translation of the
    window ``translation_lattice_box`` times every Weyl element, through
    the uncached supernomial: no translation is skipped and no support
    test runs."""
    data = cartan_data(shape[0].kind, shape[0].n)
    c = level + data.h_dual
    bound = sum(d.boxes for d in shape) + data.dim + max(
        abs(l + r) for l, r in zip(tuple(lam) + (0,) * data.dim, data.rho))
    lam_rho = tuple(l + r for l, r in zip(lam, data.rho))
    elements = [(w.action, w.sign) for w in weyl_enumerate(data)]
    seen: dict = {}
    out = ZERO
    for beta in translation_lattice_box(data, level, bound):
        # a0/2 (beta|beta) c - a0 (lam+rho|beta); form is twice (|)
        expo, rem = divmod(data.a0 * (c * data.form(beta, beta)
                                      - 2 * data.form(lam_rho, beta)), 4)
        assert rem == 0, beta
        v = [a - c * x for a, x in zip(lam_rho, beta)]
        for action, sign in elements:
            mu = tuple([s * v[i] + t - r
                        for (i, s, t), r in zip(action, data.rho)])
            if mu not in seen:
                seen[mu] = _supernomial_uncached(*shape_type(shape), mu)
            if not seen[mu].is_zero():
                out = out + q_power(expo) * (seen[mu] if sign > 0
                                             else -seen[mu])
    return out


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


def column_count(mu: tuple[int, ...], i: int) -> int:
    """Q_i(mu), the boxes of mu in its first i columns, part by part."""
    return sum(min(p, i) for p in mu)


def vacancy_by_columns(data: CartanData, L, nu, a: int, i: int) -> int:
    """P_i^(a)(nu) at the actual part size i by its definition: Q_i of the
    rows below and above minus twice Q_i of row a, plus L_{a,j} min(i, j)
    over the factors; on the long row of type C, (2 Q_i(nu^(n-1)) - 2
    Q_i(nu^(n)) + L_{n,1} min(i, 2)) / 2."""
    n = data.n
    below = column_count(nu[a - 2], i) if a >= 2 else 0
    here = column_count(nu[a - 1], i)
    if data.kind == "C" and a == n:
        return _exact_quotient(2 * below - 2 * here
                               + L.get((n, 1), 0) * min(i, 2), 2, "vacancy")
    above = column_count(nu[a], i) if a < n else 0
    return below - 2 * here + above + sum(
        mult * min(i, j) for (b, j), mult in L.items() if b == a)


def vacancy_by_form(data: CartanData, L, gm, a: int, i: int) -> int:
    """p_i^(a) at generic index i by the bilinear form, over the per-row
    multiplicity maps gm in generic indices: (2 sum_j L_{a,j} min(i, j) -
    sum_b sum_k 2(alpha_a|alpha_b) min(t_b i, t_a k) m_k^(b)) / 2."""
    alpha = data.simple_roots
    acc = 2 * sum(mult * min(i, j) for (b, j), mult in L.items() if b == a)
    for b in range(data.n):
        pair = data.form(alpha[a - 1], alpha[b])
        for k, m in gm[b].items():
            acc -= pair * min(data.t[b] * i, data.t[a - 1] * k) * m
    return _exact_quotient(acc, 2, "vacancy")


def generic_m(data: CartanData, nu) -> list[dict[int, int]]:
    """Per-row multiplicity maps in generic indices (long type C row
    halved)."""
    return [{i // (2 if data.kind == "C" and a == data.n else 1):
             row.count(i) for i in set(row)}
            for a, row in enumerate(nu, start=1)]


def charge_by_form(data: CartanData, gm) -> int:
    """cc({m}) by the bilinear form, over every pair of rows and parts:
    sum_{a,b} sum_{j,k} 2(alpha_a|alpha_b) min(t_b j, t_a k) m_j m_k / 4."""
    alpha = data.simple_roots
    acc = 0
    for a in range(data.n):
        for b in range(data.n):
            pair = data.form(alpha[a], alpha[b])
            for j, mj in gm[a].items():
                for k, mk in gm[b].items():
                    acc += pair * min(data.t[b] * j, data.t[a] * k) * mj * mk
    return _exact_quotient(acc, 4, "charge")


def enumerate_rc(kind: str, n: int, L, lam: tuple[int, ...],
                 max_part: int | None = None) -> list[RiggedConfiguration]:
    """All rigged configurations for the given factors and weight, with
    every part of nu at most ``max_part`` when it is given, over the shapes
    of ``fermionic._admitted_shapes``.  The configurations of one shape nu
    come out consecutively."""
    out: list[RiggedConfiguration] = []
    for nu, sites in _admitted_shapes(cartan_data(kind, n), L, lam, max_part):
        keys = [(a, i) for a, i, _, _ in sites]
        for choice in product(*_riggings(sites)):
            out.append(RiggedConfiguration(kind, n, nu,
                                           tuple(zip(keys, choice))))
    return out


def cc_stat(rc: RiggedConfiguration) -> int:
    """cc(nu, J) = cc(nu) + sum of all rigging sizes."""
    return cc_shape(rc.kind, rc.n, rc.nu) + sum(sum(J) for _, J in rc.riggings)


def theta(rc: RiggedConfiguration, L) -> RiggedConfiguration:
    """Complement every rigging inside its m x P box; an involution."""
    data = cartan_data(rc.kind, rc.n)
    new = []
    for (a, i), J in rc.riggings:
        m = rc.nu[a - 1].count(i)
        p = vacancy_by_columns(data, L, rc.nu, a, i)
        padded = list(J) + [0] * (m - len(J))
        comp = tuple(x for x in sorted((p - x for x in padded),
                                       reverse=True) if x > 0)
        new.append(((a, i), comp))
    return RiggedConfiguration(rc.kind, rc.n, rc.nu, tuple(new))


def cc_theta(rc: RiggedConfiguration, L) -> int:
    """cc(theta(nu, J)) = cc(nu) + sum P*m - sum |J|: the coenergy
    statistic of the matching paths.  A configuration has one rigging per
    occupied site."""
    data = cartan_data(rc.kind, rc.n)
    return (cc_shape(rc.kind, rc.n, rc.nu)
            + sum(vacancy_by_columns(data, L, rc.nu, a, i)
                  * rc.nu[a - 1].count(i)
                  for (a, i), _ in rc.riggings)
            - sum(sum(J) for _, J in rc.riggings))


def rc_sum_by_configurations(kind: str, n: int, L, lam,
                             statistic: str = "cc_theta"):
    """``rc_generating_function`` by its definition: q^{cc o theta} (or
    q^{cc}) summed over every ``RiggedConfiguration`` of ``enumerate_rc``."""
    rcs = enumerate_rc(kind, n, L, lam)
    if statistic == "cc_theta":
        return QLaurent.from_exponents(cc_theta(rc, L) for rc in rcs)
    return QLaurent.from_exponents(map(cc_stat, rcs))


def level_rc_sum_by_configurations(kind: str, n: int, L, lam, level: int):
    """``rc_generating_function`` at a level by its definition, for a
    dominant weight of level at most ``level``: q^{cc o theta} over every
    ``RiggedConfiguration`` inside the level grid for which some tableau's
    corrections lift the vacancy number of every grid site to at least
    its top rigging, read through ``RiggedConfiguration.rigging``."""
    data = cartan_data(kind, n)
    if kind == "A":
        shape, alphabet = _lambda_prime_A(n, lam)
        corrections = _corrections_A
    else:
        shape, alphabet = _lambda_prime_C(n, lam)
        corrections = _corrections_C
    sites = [(a, 2 * i if kind == "C" and a == n else i)
             for a in range(1, n + 1)
             for i in range(1, data.t[a - 1] * level + 1)]
    table = [corrections(n, lam, level, t, sites)
             for t in cst_enumerate(shape, alphabet)]
    exponents = []
    for rc in enumerate_rc(kind, n, L, lam,
                           max_part=2 * level if kind == "C" else level):
        slacks = [vacancy_by_columns(data, L, rc.nu, a, i)
                  - max(rc.rigging(a, i), default=0) for a, i in sites]
        if any(all(s + d >= 0 for s, d in zip(slacks, row))
               for row in table):
            exponents.append(cc_theta(rc, L))
    return QLaurent.from_exponents(exponents)


def nu_product(data, sizes, max_part=None):
    """Every shape sequence nu with the given row sizes, every part at
    most ``max_part`` when it is given: the full product of the per-row
    partition lists, row 1 slowest; the long row of a type C configuration
    gets even parts only."""
    per_row = []
    for a in range(1, data.n + 1):
        if data.kind == "C" and a == data.n:
            half_cap = None if max_part is None else max_part // 2
            halves = partitions_of(sizes[a - 1] // 2, half_cap)
            per_row.append([tuple(2 * p for p in mu) for mu in halves])
        else:
            per_row.append(partitions_of(sizes[a - 1], max_part))
    return list(product(*per_row))


def live_shapes_plain(data, sizes, row_sites, max_part=None):
    """``fermionic._live_shapes`` without its look-ahead: row a is checked
    only once rows a - 1, a and a + 1 are placed, so every choice of row
    a + 1 is tried against a prefix that then dies.  The same (nu, sites)
    in the same order, with at least as many row checks."""
    n = data.n
    per_row = []
    for a in range(1, n + 1):
        if data.kind == "C" and a == n:
            half_cap = None if max_part is None else max_part // 2
            halves = partitions_of(sizes[a - 1] // 2, half_cap)
            per_row.append(tuple(tuple(2 * p for p in mu) for mu in halves))
        else:
            per_row.append(partitions_of(sizes[a - 1], max_part))
    nu = [()] * n
    placed = [None] * n
    choices = [iter(per_row[0])]
    while choices:
        r = len(choices) - 1
        row = next(choices[r], None)
        if row is None:
            choices.pop()
            continue
        nu[r] = row
        if r:
            placed[r - 1] = row_sites(nu, r)
            if placed[r - 1] is None:
                continue
        if r + 1 < n:
            choices.append(iter(per_row[r + 1]))
            continue
        placed[r] = row_sites(nu, n)
        if placed[r] is not None:
            yield tuple(nu), [s for rs in placed for s in rs]


def admitted_by_product(data, L, lam, max_part=None) -> list:
    """``fermionic._admitted_shapes`` over ``nu_product``: (nu, sites) for
    every shape whose occupied sites all have a nonnegative vacancy
    number, sites as (row, part size, multiplicity, vacancy)."""
    sizes = config_sizes(data, L, lam)
    if sizes is None:
        return []
    out = []
    for nu in nu_product(data, sizes, max_part):
        sites = [(a, i, row.count(i),
                  vacancy_by_columns(data, L, nu, a, i))
                 for a, row in enumerate(nu, start=1)
                 for i in sorted(set(row))]
        if all(p >= 0 for *_, p in sites):
            out.append((nu, sites))
    return out


def _shape_terms(data, L, sizes, indices, max_part=None):
    """(charge, [(vacancy, multiplicity)] at ``indices(gm)``) for every
    shape of ``nu_product``, in generic indices."""
    for nu in nu_product(data, sizes, max_part):
        gm = generic_m(data, nu)
        yield charge_by_form(data, gm), [
            (vacancy_by_form(data, L, gm, a, i), gm[a - 1].get(i, 0))
            for a, i in indices(gm)]


def closed_form_F_by_product(data, L, lam) -> QLaurent:
    """``closed_form_F`` over ``nu_product``: every shape's q-binomial
    product at its occupied sites, dead shapes included."""
    sizes = config_sizes(data, L, lam)
    if sizes is None:
        return ZERO
    out = ZERO
    for cc, sites in _shape_terms(
            data, L, sizes, lambda gm: [(a, i) for a in range(1, data.n + 1)
                                        for i in gm[a - 1]]):
        poly = q_power(cc)
        for p, m in sites:
            poly = poly * qbinomial(p, m)
        out = out + poly
    return out


def closed_form_F_level_by_product(data, L, level: int) -> QLaurent:
    """``closed_form_F_level`` over ``nu_product``: every shape inside the
    grid, with a q-binomial factor at every grid site."""
    lam = vacuum_weight(data, L)
    sizes = None if lam is None else config_sizes(data, L, lam)
    if sizes is None:
        return ZERO
    grid = _generic_grid(data, level)
    out = ZERO
    for cc, sites in _shape_terms(data, L, sizes, lambda gm: grid,
                                  2 * level if data.kind == "C" else level):
        poly = q_power(cc)
        for p, m in sites:
            poly = poly * qbinomial(p, m)
        out = out + poly
    return out


def level_closed_form_by_product(kind: str, n: int, L, lam,
                                 level: int) -> QLaurent:
    """``closed_form_F`` at a level, for a dominant weight of level at
    most ``level``, over ``nu_product``: every shape inside the
    grid, and for every signed tableau minimum the 1/q-binomial factor at
    every grid site, whether or not one of them is zero."""
    data = cartan_data(kind, n)
    sizes = config_sizes(data, L, lam)
    if sizes is None:
        return ZERO
    if kind == "A":
        shape, alphabet = _lambda_prime_A(n, lam)
        corrections = _corrections_A
    else:
        shape, alphabet = _lambda_prime_C(n, lam)
        corrections = _corrections_C
    grid = _generic_grid(data, level)
    sites = [(a, 2 * i if kind == "C" and a == n else i) for a, i in grid]
    minima = _signed_minima([corrections(n, lam, level, t, sites)
                             for t in cst_enumerate(shape, alphabet)])
    out = ZERO
    for cc, vac in _shape_terms(data, L, sizes, lambda gm: grid,
                                2 * level if kind == "C" else level):
        charge = cc + sum(p * m for p, m in vac)
        for corr, k in minima.items():
            poly = q_power(charge, k)
            for (p, m), d in zip(vac, corr):
                poly = poly * invert_q(qbinomial(p + d, m))
            out = out + poly
    return out


def scanned_classical_pairs(shape, lam) -> set:
    """The classical pair set of ``involution_phi``: every (w, b) with w
    in the finite Weyl group and w(wt(b) + rho) = lam + rho, by scanning
    every element against every word."""
    data = cartan_data(shape[0].kind, shape[0].n)
    target = tuple(l + r for l, r in zip(lam, data.rho))
    shifted = [(tuple(x + r for x, r in zip(word_weight(b), data.rho)), b)
               for b in shape_elements(shape)]
    return {(w, b) for w in weyl_enumerate(data) for v, b in shifted
            if w.apply(v) == target}


def scanned_level_pairs(shape, lam, level) -> set:
    """The level pair set of ``involution_phi``: every (t w, b) with w in
    the finite Weyl group, t the translation by c beta for beta in a
    ``translation_lattice_box`` window (c = level + h_dual), and
    t w(wt(b) + rho) = lam + rho: beta is the gap lam + rho - w(wt(b) +
    rho) over c, which must be integral and lie in the window.  The window
    holds every beta that can solve this, since |c beta_k| is at most
    |lam + rho|_max + |wt(b) + rho|_max."""
    data = cartan_data(shape[0].kind, shape[0].n)
    c = level + data.h_dual
    target = tuple(l + r for l, r in zip(lam, data.rho))
    bound = max(map(abs, target)) + sum(d.boxes for d in shape) + data.rho[0]
    window = set(translation_lattice_box(data, level, bound))
    pairs = set()
    for b in shape_elements(shape):
        v = tuple(x + r for x, r in zip(word_weight(b), data.rho))
        for w in weyl_enumerate(data):
            gap = [t - x for t, x in zip(target, w.apply(v))]
            beta = tuple(g // c for g in gap)
            if all(g % c == 0 for g in gap) and beta in window:
                shifted = tuple((i, s, c * y)
                                for (i, s, _), y in zip(w.action, beta))
                pairs.add((WeylElement(shifted, w.sign), b))
    return pairs


def coroot_weight_pairing(w: TensorWord, i: int) -> int:
    """<h_i, wt(word)>, with the affine i = 0 read through the classical
    projection (type A: last coordinate minus first; type C: minus the
    first)."""
    wt = word_weight(w)
    if i == 0:
        return wt[-1] - wt[0] if w.kind == "A" else -wt[0]
    if w.kind == "A" or i < w.n:
        return wt[i - 1] - wt[i]
    return wt[-1]


@dataclass
class CrystalGraph:
    """A finite crystal as an explicit graph: f-arrows per color."""

    vertices: tuple[TensorWord, ...]
    arrows: dict[int, dict[TensorWord, TensorWord]]
    highest: TensorWord | None = None


def build_component(seed: TensorWord, colors: tuple[int, ...] | None = None
                    ) -> CrystalGraph:
    """BFS closure of the seed under e_i and f_i for the given colors
    (default: the classical colors); ``crystal.VERTEX_CAP`` bounds its
    vertices."""
    if colors is None:
        colors = tuple(range(1, seed.n + 1))
    seen = {seed}
    frontier = [seed]
    arrows: dict[int, dict[TensorWord, TensorWord]] = {i: {} for i in colors}
    while frontier:
        nxt = []
        for v in frontier:
            for i in colors:
                for direction in ("e", "f"):
                    u = tensor_arrow(v, i, direction)
                    if u is None:
                        continue
                    if direction == "f":
                        arrows[i][v] = u
                    else:
                        arrows[i][u] = v
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
                        if len(seen) > crystal.VERTEX_CAP:
                            raise CapExceeded(
                                f"component exceeded vertex cap "
                                f"{crystal.VERTEX_CAP}")
        frontier = nxt
    hw = [v for v in seen
          if all(tensor_arrow(v, i, "e") is None for i in colors)]
    highest = hw[0] if len(hw) == 1 else None
    return CrystalGraph(tuple(sorted(seen, key=str)), arrows, highest)


def crystal_level(shape: tuple[FactorDescriptor, ...]) -> int:
    """Level of a finite crystal: min over elements of the sum of eps_i
    over all affine colors (the dual marks of A_n^(1) and C_n^(1) are all
    1)."""
    return min(sum(string_stats(w, i)[0] for i in range(w.n + 1))
               for w in shape_elements(shape))


def _word_h_step(key, image) -> int:
    """The local energy increment along the e_0 arrow leaving the vertex
    ``key`` of B2 (x) B1 whose image under sigma is ``image``."""
    x2, x1 = key
    left_word = factor_stats(x2, 0)[0] > factor_stats(x1, 0)[1]
    y1, y2 = image
    left_image = factor_stats(y1, 0)[0] > factor_stats(y2, 0)[1]
    if left_word and left_image:
        return -1
    if not left_word and not left_image:
        return 1
    return 0


def word_r_matrix(desc2, desc1):
    """The index table step[a][b] = (H, c, d) of ``energy.combinatorial_r``
    by a breadth-first search over two-factor ``TensorWord``s that applies
    every arrow through the general ``tensor_arrow``, with every check of
    the index search."""
    start = (highest_weight_element(desc2), highest_weight_element(desc1))
    sigma = {start: start[::-1]}
    H = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for key in frontier:
            wsrc, wimg = word(key), word(sigma[key])
            for i in range(0, desc2.n + 1):
                for direction in ("e", "f"):
                    a = tensor_arrow(wsrc, i, direction)
                    b = tensor_arrow(wimg, i, direction)
                    if (a is None) != (b is None):
                        raise IsomorphismError(
                            f"arrow {direction}_{i} on one side at {wsrc}")
                    if a is None:
                        continue
                    ka, kb = a.factors, b.factors
                    h = H[key]
                    if i == 0:
                        h += (_word_h_step(key, sigma[key]) if direction == "e"
                              else -_word_h_step(ka, kb))
                    if ka not in sigma:
                        sigma[ka], H[ka] = kb, h
                        nxt.append(ka)
                    elif sigma[ka] != kb:
                        raise IsomorphismError(f"conflicting images for {a}")
                    elif H[ka] != h:
                        raise EnergyConsistencyError(f"H mismatch at {a}")
        frontier = nxt
    size = len(factor_elements(desc2)) * len(factor_elements(desc1))
    if len(sigma) != size or len(set(sigma.values())) != size:
        raise IsomorphismError("not a bijection of connected pair graphs")
    at = {x: a for d in (desc2, desc1)
          for a, x in enumerate(factor_elements(d))}
    return tuple(tuple((H[(x2, x1)], *map(at.get, sigma[(x2, x1)]))
                       for x1 in factor_elements(desc1))
                 for x2 in factor_elements(desc2))


def scanned_color(w: TensorWord, level) -> int | None:
    """The pairing color of ``involution_phi`` by building each suffix of
    the letter expansion as a word and reading its strings, shortest
    suffix first."""
    letters = w.flatten()
    for k in range(1, len(letters) + 1):
        suffix = letters_word(w.kind, w.n, letters[-k:])
        hits = [i for i in range(1, w.n + 1) if string_stats(suffix, i)[0] > 0]
        if level is not None and string_stats(suffix, 0)[0] > level:
            hits.append(0)
        if hits:
            if len(hits) > 1:
                raise InvolutionError(f"color not unique at {suffix}: {hits}")
            return hits[0]
    return None


def per_word_pairs(shape, lam, level) -> list:
    """The pair set of ``involution_phi`` as (w, b) in product order, by
    walking wt(b) + rho of every word b into the chamber or alcove, once
    per word."""
    data = cartan_data(shape[0].kind, shape[0].n)
    target = tuple(l + r for l, r in zip(lam, data.rho))
    pairs = []
    for b in shape_elements(shape):
        v = tuple(x + r for x, r in zip(word_weight(b), data.rho))
        reached, walk = reduce_to_alcove(data, v, level)
        if reached == target:
            pairs.append((element(data, walk, level), b))
    return pairs
