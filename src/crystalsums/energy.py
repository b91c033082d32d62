"""Combinatorial R-matrices, local energies, and direct configuration sums.

The R-matrix (sigma, H) for an ordered pair of factors is built by one
breadth-first search from u(B2) (x) u(B1) that follows every e_i and f_i,
i = 0..n, on B2 (x) B1 and B1 (x) B2 together.  Each pair of matched arrows
extends sigma, and H is carried along each arrow from H(u (x) u) = 0 by
the local energy rule.  A vertex reached again must get the same image and
the same H, so every edge is checked from both ends: a cycle inconsistency
(which would falsify the 0-arrows) is a hard error rather
than a silent wrong table.  Simplicity of the factors makes the graphs
connected, so the isomorphism is unique.

A direct sum over a homogeneous shape B^(x)L is one transfer-matrix sweep
from right to left over states of partial paths, each carrying its
polynomial, as in the corner-transfer-matrix view of one-dimensional sums
(Date-Jimbo-Kuniba-Miwa-Okado 1987); no path is listed.  A mixed shape is
summed over the paths of the pruned search, each scored as it grows.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import crystal
from .errors import CapExceeded, EnergyConsistencyError, IsomorphismError
from .crystal import (Factor, FactorDescriptor, TensorWord, _element_table,
                      _place, _walk_setup, factor_elements, factor_stats,
                      highest_weight_element, search_paths, tensor_arrow,
                      word)
# kept as the alias energy.enumerate_paths, which perfbench/selftest.py
# checks the benchmark's tracer rebinds
from .crystal import enumerate_paths  # noqa: F401
from .qpoly import QLaurent, ZERO

PairKey = tuple[Factor, Factor]


@dataclass
class RMatrixTable:
    """sigma and H for one ordered pair (B2, B1); write-once.  ``step[a][b]``
    is the same data by element index: for x2 (x) x1 = elements a and b,
    (H, index of the right image factor, which lies in B2)."""

    sigma: dict[PairKey, PairKey]
    H: dict[PairKey, int]
    step: list[list[tuple[int, int]]]


_TABLES: dict[tuple[FactorDescriptor, FactorDescriptor], RMatrixTable] = {}


def _h_step(key: PairKey, image: PairKey) -> int:
    """The increment of H along the e_0 arrow leaving this vertex, whose
    image under sigma is ``image``."""
    x2, x1 = key
    left_word = factor_stats(x2, 0)[0] > factor_stats(x1, 0)[1]
    y1, y2 = image
    left_image = factor_stats(y1, 0)[0] > factor_stats(y2, 0)[1]
    if left_word and left_image:
        return -1
    if not left_word and not left_image:
        return 1
    return 0


def combinatorial_r(desc2: FactorDescriptor,
                    desc1: FactorDescriptor) -> RMatrixTable:
    """The combinatorial R-matrix for B2 (x) B1, memoized per ordered pair.

    One search matches the arrows of B2 (x) B1 and B1 (x) B2 from the
    extremal vertices.  An e_0 step from x adds _h_step(x, sigma(x)) to H,
    an f_0 step to y subtracts _h_step(y, sigma(y)), and classical steps
    keep H."""
    table = _TABLES.get((desc2, desc1))
    if table is not None:
        return table
    start = (highest_weight_element(desc2), highest_weight_element(desc1))
    sigma: dict[PairKey, PairKey] = {start: start[::-1]}
    H: dict[PairKey, int] = {start: 0}
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
                            f"arrow {direction}_{i} defined on only one side "
                            f"at {wsrc} -> {wimg}")
                    if a is None:
                        continue
                    ka, kb = a.factors, b.factors
                    h = H[key]
                    if i == 0:
                        h += (_h_step(key, sigma[key]) if direction == "e"
                              else -_h_step(ka, kb))
                    if ka not in sigma:
                        sigma[ka], H[ka] = kb, h
                        nxt.append(ka)
                    elif sigma[ka] != kb:
                        raise IsomorphismError(f"conflicting images for {a}")
                    elif H[ka] != h:
                        raise EnergyConsistencyError(
                            f"local energy rule violated on a color-{i} "
                            f"edge {wsrc} -> {a}")
        frontier = nxt
    size = len(factor_elements(desc2)) * len(factor_elements(desc1))
    if len(sigma) != size:
        raise IsomorphismError(
            f"pair graph not connected: reached {len(sigma)} of {size}")
    if len(set(sigma.values())) != size:
        raise IsomorphismError("matched map is not a bijection")
    at = {x: a for a, x in enumerate(factor_elements(desc2))}
    step = [[(H[(x2, x1)], at[sigma[(x2, x1)][1]])
             for x1 in factor_elements(desc1)]
            for x2 in factor_elements(desc2)]
    table = RMatrixTable(sigma, H, step)
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


def coenergy_D(w: TensorWord) -> int:
    """Minus the intrinsic energy D of a word.

    The general formula for D adds, to E_B, the factor intrinsic energies
    along sigma shuffles; every factor supported here has a single
    classical component and is normalized to zero on it, so those summands
    vanish identically and D = E_B.
    """
    return -energy_EB(w)


def energy_extension(shape: tuple[FactorDescriptor, ...]):
    """The ``extend`` hook of ``search_paths`` that scores a path by E_B.

    The j-th summand of E_B, sum over i < j of H_i sigma_{i+1}...sigma_{j-1},
    moves b_j right through b_{j-1}, ..., b_1 by the R-matrix and reads H
    at each step, so it depends on b_j and the factors to its right only.
    Placing b_j costs one such pass over the R-matrices' index tables.
    """
    right = shape[::-1]
    rows = [[combinatorial_r(dj, di).step for di in right[:j]]
            for j, dj in enumerate(right)]

    def extend(j: int, chosen: list[int], a: int) -> int:
        row = rows[j]
        total = 0
        for i in range(j - 1, -1, -1):
            h, a = row[i][a][chosen[i]]
            total += h
        return total

    return extend


def _sweep(desc: FactorDescriptor, L: int, weight: tuple[int, ...],
           restriction: str, level: int | None, sign: int) -> QLaurent:
    """The direct sum over the paths of B^{(x)L} by a transfer matrix.

    On B (x) B the R-matrix is the identity, so E_B = sum over i of
    (L - i) H(b_{i+1} (x) b_i).  The sweep places b_1, ..., b_L right to
    left like ``search_paths`` and prunes by the same ``_place``, but keeps
    one {exponent: count} polynomial per state (weight, phi_i over the
    colors, eps_0, phi_0, index of the last placed element) instead of one
    leaf per path.  ``VERTEX_CAP`` bounds the transitions."""
    setup = _walk_setup((desc,) * L, weight, restriction, level)
    if setup is None:
        return ZERO
    kind, _, target, colors, level = setup
    table = _element_table(desc, colors, level is not None)
    H = [[sign * h for h, _ in row]
         for row in combinatorial_r(desc, desc).step]
    cap = crystal.VERTEX_CAP
    moves = 0
    # the first element has no left neighbour yet: index 0, factor 0
    layer = {((0,) * len(target), (0,) * len(colors), 0, 0): {0: {0: 1}}}
    for p in range(L):
        factor = L - p if p else 0
        room = (L - p - 1) * desc.boxes
        nxt: dict = {}
        for state, by_last in layer.items():
            for entry in table:
                nstate = _place(kind, target, room, level, state, entry)
                if nstate is None:
                    continue
                moves += len(by_last)
                if moves > cap:
                    raise CapExceeded(f"transfer-matrix sweep made more "
                                      f"than {cap} transitions")
                k = entry[0]
                row = H[k]
                acc = nxt.setdefault(nstate, {}).setdefault(k, {})
                for j, poly in by_last.items():
                    s = factor * row[j]
                    for e, c in poly.items():
                        e += s
                        acc[e] = acc.get(e, 0) + c
        layer = nxt
    out: dict[int, int] = {}
    for state, by_last in layer.items():
        if state[0] == target:
            for poly in by_last.values():
                for e, c in poly.items():
                    out[e] = out.get(e, 0) + c
    return QLaurent.from_dict(out)


def direct_sum(shape: tuple[FactorDescriptor, ...],
               weight: tuple[int, ...],
               restriction: str = "none",
               statistic: str = "coenergy",
               level: int | None = None) -> QLaurent:
    """Sum of q^{D(b)} (or coenergy) over the chosen path set.  A
    homogeneous shape B^{(x)L} is summed by the transfer-matrix ``_sweep``;
    a mixed shape by a pruned path search that accumulates each path's
    energy E_B = D as it grows."""
    if statistic not in ("energy", "coenergy"):
        raise ValueError(f"unknown statistic {statistic!r}")
    sign = -1 if statistic == "coenergy" else 1
    if shape and all(d == shape[0] for d in shape):
        return _sweep(shape[0], len(shape), weight, restriction, level, sign)
    paths = search_paths(shape, weight, restriction, level,
                         extend=energy_extension(shape))
    return QLaurent.from_exponents(sign * e for _, e in paths)
