"""Combinatorial R-matrices, local energies, and direct configuration sums.

The R-matrix (sigma, H) for an ordered pair of factors is found by a
parallel breadth-first search over the affine crystal graphs of B2 (x) B1
and B1 (x) B2, matching arrow colors from the extremal vertices
u(B2) (x) u(B1) -> u(B1) (x) u(B2); simplicity of the factors makes the
graphs connected, so the isomorphism is unique.  H is then propagated from
H(u (x) u) = 0 along every edge and re-checked on every edge, so a cycle
inconsistency (which would falsify the promotion-based 0-arrows) is a hard
error rather than a silent wrong table.

Everything here is type A: type C carries no affine arrows in this package,
so its sums come from the bosonic and fermionic modules only.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import EnergyConsistencyError, IsomorphismError
from .crystal import (Factor, FactorDescriptor, TensorWord, factor_elements,
                      factor_stats, highest_weight_element, search_paths,
                      tensor_arrow, word)
# kept as the alias energy.enumerate_paths, which perfbench/selftest.py
# checks the benchmark's tracer rebinds
from .crystal import enumerate_paths  # noqa: F401
from .qpoly import QLaurent

PairKey = tuple[Factor, Factor]


@dataclass
class RMatrixTable:
    """sigma and H for one ordered pair (B2, B1); write-once."""

    desc2: FactorDescriptor
    desc1: FactorDescriptor
    sigma: dict[PairKey, PairKey]
    H: dict[PairKey, int]


_TABLES: dict[tuple[FactorDescriptor, FactorDescriptor], RMatrixTable] = {}


def _pair_word(x2: Factor, x1: Factor) -> TensorWord:
    return word((x2, x1))


def _match_isomorphism(desc2: FactorDescriptor,
                       desc1: FactorDescriptor) -> dict[PairKey, PairKey]:
    n = desc2.n
    colors = tuple(range(0, n + 1))
    u2 = highest_weight_element(desc2)
    u1 = highest_weight_element(desc1)
    sigma: dict[PairKey, PairKey] = {(u2, u1): (u1, u2)}
    frontier = [(u2, u1)]
    while frontier:
        nxt = []
        for key in frontier:
            wsrc = _pair_word(*key)
            wimg = _pair_word(*sigma[key])
            for i in colors:
                for direction in ("e", "f"):
                    a = tensor_arrow(wsrc, i, direction)
                    b = tensor_arrow(wimg, i, direction)
                    if (a is None) != (b is None):
                        raise IsomorphismError(
                            f"arrow {direction}_{i} defined on only one side "
                            f"at {wsrc} -> {wimg}")
                    if a is None:
                        continue
                    ka = (a.factors[0], a.factors[1])
                    kb = (b.factors[0], b.factors[1])
                    if ka in sigma:
                        if sigma[ka] != kb:
                            raise IsomorphismError(
                                f"conflicting images for {a}")
                    else:
                        sigma[ka] = kb
                        nxt.append(ka)
        frontier = nxt
    size = len(factor_elements(desc2)) * len(factor_elements(desc1))
    if len(sigma) != size:
        raise IsomorphismError(
            f"pair graph not connected: reached {len(sigma)} of {size}")
    if len(set(sigma.values())) != size:
        raise IsomorphismError("matched map is not a bijection")
    return sigma


def _h_step(key: PairKey, sigma: dict[PairKey, PairKey]) -> int:
    """The increment of H along the e_0 arrow leaving this vertex."""
    x2, x1 = key
    left_word = factor_stats(x2, 0)[0] > factor_stats(x1, 0)[1]
    y1, y2 = sigma[key]
    left_image = factor_stats(y1, 0)[0] > factor_stats(y2, 0)[1]
    if left_word and left_image:
        return -1
    if not left_word and not left_image:
        return 1
    return 0


def combinatorial_r(desc2: FactorDescriptor,
                    desc1: FactorDescriptor) -> RMatrixTable:
    """The combinatorial R-matrix for B2 (x) B1, memoized per ordered pair."""
    table = _TABLES.get((desc2, desc1))
    if table is not None:
        return table
    sigma = _match_isomorphism(desc2, desc1)
    n = desc2.n
    u2 = highest_weight_element(desc2)
    u1 = highest_weight_element(desc1)

    # every edge of the pair graph, as (e-source, color, f-source) triples
    edges = []
    for key in sigma:
        w = _pair_word(*key)
        for i in range(0, n + 1):
            img = tensor_arrow(w, i, "f")
            if img is not None:
                edges.append((key, i, (img.factors[0], img.factors[1])))

    H: dict[PairKey, int] = {(u2, u1): 0}
    frontier = [(u2, u1)]
    adj: dict[PairKey, list[tuple[PairKey, int]]] = {}
    for src, i, dst in edges:
        # crossing src -> dst follows f_i; the H rule is stated at the
        # e-source, which is dst
        delta = _h_step(dst, sigma) if i == 0 else 0
        adj.setdefault(src, []).append((dst, -delta))
        adj.setdefault(dst, []).append((src, delta))
    while frontier:
        nxt = []
        for v in frontier:
            for u, d in adj.get(v, ()):
                if u not in H:
                    H[u] = H[v] + d
                    nxt.append(u)
        frontier = nxt
    if len(H) != len(sigma):
        raise EnergyConsistencyError("energy propagation did not reach "
                                     "every vertex")
    for src, i, dst in edges:
        delta = _h_step(dst, sigma) if i == 0 else 0
        if H[src] != H[dst] + delta:
            raise EnergyConsistencyError(
                f"local energy rule violated on a color-{i} edge "
                f"{_pair_word(*src)} -> {_pair_word(*dst)}")
    table = RMatrixTable(desc2, desc1, sigma, H)
    _TABLES[(desc2, desc1)] = table
    return table


def apply_sigma(w: TensorWord, k: int) -> TensorWord:
    """sigma_k: exchange the k-th and (k+1)-st factors counted from the
    right (positions k and k+1, 1-based)."""
    L = w.length
    left, right = L - k - 1, L - k
    x2, x1 = w.factors[left], w.factors[right]
    table = combinatorial_r(x2.desc, x1.desc)
    y1, y2 = table.sigma[(x2, x1)]
    factors = w.factors[:left] + (y1, y2) + w.factors[right + 1:]
    return TensorWord(w.kind, w.n, factors)


def local_h(w: TensorWord, k: int) -> int:
    L = w.length
    x2, x1 = w.factors[L - k - 1], w.factors[L - k]
    return combinatorial_r(x2.desc, x1.desc).H[(x2, x1)]


def energy_EB(w: TensorWord) -> int:
    """The energy E_B(b) = sum over i < j of H_i sigma_{i+1}...sigma_{j-1}."""
    total = 0
    for j in range(2, w.length + 1):
        cur = w
        for i in range(j - 1, 0, -1):
            if i != j - 1:
                cur = apply_sigma(cur, i + 1)
            total += local_h(cur, i)
    return total


def intrinsic_D(w: TensorWord) -> int:
    """Intrinsic energy of a word.

    The general formula adds, to E_B, the factor intrinsic energies along
    sigma shuffles; every factor supported here has a single classical
    component and is normalized to zero on it, so those summands vanish
    identically and D = E.
    """
    return energy_EB(w)


def coenergy_D(w: TensorWord) -> int:
    return -intrinsic_D(w)


def _step_table(desc2: FactorDescriptor, desc1: FactorDescriptor):
    """R-matrix data of B2 (x) B1 by element index: entry [a][b] of
    x2 (x) x1 = elements a and b is (H, index of the right image factor,
    which lies in B2)."""
    table = combinatorial_r(desc2, desc1)
    at = {x: a for a, x in enumerate(factor_elements(desc2))}
    return [[(table.H[(x2, x1)], at[table.sigma[(x2, x1)][1]])
             for x1 in factor_elements(desc1)]
            for x2 in factor_elements(desc2)]


def energy_extension(shape: tuple[FactorDescriptor, ...]):
    """The ``extend`` hook of ``search_paths`` that scores a path by E_B.

    The j-th summand of E_B, sum over i < j of H_i sigma_{i+1}...sigma_{j-1},
    moves b_j right through b_{j-1}, ..., b_1 by the R-matrix and reads H
    at each step, so it depends on b_j and the factors to its right only.
    Placing b_j costs one such pass over lookup tables resolved here, once.
    """
    right = shape[::-1]
    tables: dict[tuple[FactorDescriptor, FactorDescriptor], list] = {}
    rows = []
    for j, dj in enumerate(right):
        for di in right[:j]:
            if (dj, di) not in tables:
                tables[(dj, di)] = _step_table(dj, di)
        rows.append([tables[(dj, di)] for di in right[:j]])

    def extend(j: int, chosen: list[int], a: int) -> int:
        row = rows[j]
        total = 0
        for i in range(j - 1, -1, -1):
            h, a = row[i][a][chosen[i]]
            total += h
        return total

    return extend


def direct_sum(shape: tuple[FactorDescriptor, ...],
               weight: tuple[int, ...],
               restriction: str = "none",
               statistic: str = "coenergy",
               level: int | None = None) -> QLaurent:
    """Sum of q^{D(b)} (or coenergy) over the chosen path set, by a pruned
    path search that accumulates each path's energy E_B = D as it grows."""
    if statistic not in ("energy", "coenergy"):
        raise ValueError(f"unknown statistic {statistic!r}")
    sign = -1 if statistic == "coenergy" else 1
    paths = search_paths(shape, weight, restriction, level,
                         extend=energy_extension(shape))
    return QLaurent.from_exponents(sign * e for _, e in paths)
