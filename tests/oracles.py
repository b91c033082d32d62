"""Independent oracles used to derive expected test values.

These deliberately avoid the code paths they check: box partitions are
enumerated directly, tensor multiplicities come from characters (weight
multisets plus Weyl alternation) rather than crystal arrows, series
coefficients come from explicit partition counting, path sets come
from filtering the whole tensor product instead of the pruned search, the
level alternating sum visits its whole translation window, and the
involution's pair sets scan every (affine) Weyl element against every word
instead of walking each word into the chamber or alcove.  The crystal
helpers only tests use (a component as an explicit graph, the level of a
crystal, the coroot pairing of a word's weight) live here too.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import crystalsums.crystal as crystal

from crystalsums.bosonic import _supernomial_uncached
from crystalsums.cartan import (WeylElement, cartan_data,
                                translation_lattice_box, weyl_enumerate)
from crystalsums.crystal import (FactorDescriptor, TensorWord, shape_elements,
                                 string_stats, tensor_arrow, word_weight)
from crystalsums.errors import CapExceeded
from crystalsums.qpoly import ZERO, q_power


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


def gf_from_sizes(sizes) -> dict[int, int]:
    cnt = Counter(sizes)
    return dict(sorted(cnt.items()))


def factor_weight_multiset(kind: str, n: int, r: int, s: int) -> Counter:
    """Weight multiset of one factor crystal, combinatorially."""
    dim = n + 1 if kind == "A" else n
    out: Counter = Counter()
    if kind == "C":
        assert (r, s) == (1, 1)
        for k in range(n):
            for sign in (1, -1):
                w = [0] * n
                w[k] = sign
                out[tuple(w)] += 1
        return out
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
    """The level alternating sum over every translation of
    ``bosonic_level``'s window times every Weyl element, through the
    uncached supernomial: no translation is skipped and no support test
    runs."""
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
                seen[mu] = _supernomial_uncached(shape, mu)
            if not seen[mu].is_zero():
                out = out + q_power(expo) * (seen[mu] if sign > 0
                                             else -seen[mu])
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
