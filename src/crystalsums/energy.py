"""Combinatorial R-matrices, local energies, and direct configuration sums.

The R-matrix (sigma, H) for an ordered pair of factors is built by one
breadth-first search from u(B2) (x) u(B1) that follows every e_i and f_i,
i = 0..n, on B2 (x) B1 and B1 (x) B2 together.  Each pair of matched arrows
extends sigma, and H is carried along each arrow from H(u (x) u) = 0 by
the local energy rule.  A vertex reached again must get the same image and
the same H, so every edge is checked from both ends: a cycle inconsistency
(which would falsify the 0-arrows) is a hard error rather
than a silent wrong table.  Simplicity of the factors makes the graphs
connected, so the isomorphism is unique.  The search runs on element
indices: it reads each factor through its one cached index table,
``crystal._factor_table``, and the arrows of a two-factor product follow
from the tensor rule.  The R-matrix is kept as one index table, step[a][b]
= (H, c, d) with sigma(x_a (x) x_b) = y_c (x) y_d, which holds both image
indices; nothing keyed by ``Factor`` is kept.

A direct sum over a homogeneous shape B^(x)L is one transfer-matrix sweep
from right to left over states of partial paths, each carrying its
polynomial, as in the corner-transfer-matrix view of one-dimensional sums
(Date-Jimbo-Kuniba-Miwa-Okado 1987); no path is listed.  A mixed shape is
summed over the paths of the pruned search, each scored as it grows by
``energy_extension``, the one implementation of E_B (the involution's
statistic check scores its words by the same pass).
"""
from __future__ import annotations

from . import crystal
from .cartan import vanishes
from .errors import (CapExceeded, EnergyConsistencyError, IsomorphismError,
                     UnsupportedError)
from .crystal import (FactorDescriptor, _element_table, _factor_table,
                      _place, _search, _walk_setup, highest_weight_element)
# kept as the alias energy.enumerate_paths, which perfbench/selftest.py
# checks the benchmark's tracer rebinds
from .crystal import enumerate_paths  # noqa: F401
from .qpoly import QLaurent, ZERO

# the index table of ``combinatorial_r`` per ordered pair; write-once
_TABLES: dict[tuple[FactorDescriptor, FactorDescriptor], tuple] = {}


def _product_arrows(left: tuple, right: tuple) -> list[tuple[int, ...]]:
    """The arrows of left (x) right, given by their ``_factor_table``s, by
    pair index a * |right| + b for elements a of left and b of right: per
    pair, the targets of e_0, f_0, e_1, f_1, ..., e_n, f_n (-1 for none).
    e_i acts on the left factor iff eps_i(a) > phi_i(b), and f_i iff
    eps_i(a) >= phi_i(b)."""
    _, eps_l, _, e_l, f_l = left
    _, _, phi_r, e_r, f_r = right
    m = len(phi_r[0])
    colors = range(len(eps_l))
    rows = []
    for a in range(len(eps_l[0])):
        for b in range(m):
            row = []
            for i in colors:
                gap = eps_l[i][a] - phi_r[i][b]
                t = e_l[i][a] if gap > 0 else e_r[i][b]
                row.append(-1 if t < 0 else
                           t * m + b if gap > 0 else a * m + t)
                t = f_l[i][a] if gap >= 0 else f_r[i][b]
                row.append(-1 if t < 0 else
                           t * m + b if gap >= 0 else a * m + t)
            rows.append(tuple(row))
    return rows


def _h_step(t2: tuple, t1: tuple, key: tuple[int, int],
            image: tuple[int, int]) -> int:
    """The increment of H along the e_0 arrow leaving the vertex with
    element indices ``key`` of B2 (x) B1, whose image under sigma has
    indices ``image`` in B1 (x) B2; t2 and t1 are the ``_factor_table`` of
    B2 and B1."""
    (a, b), (c, d) = key, image
    (_, eps2, phi2, _, _), (_, eps1, phi1, _, _) = t2, t1
    left_word = eps2[0][a] > phi1[0][b]
    left_image = eps1[0][c] > phi2[0][d]
    if left_word and left_image:
        return -1
    if not left_word and not left_image:
        return 1
    return 0


def combinatorial_r(desc2: FactorDescriptor,
                    desc1: FactorDescriptor
                    ) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The combinatorial R-matrix for B2 (x) B1, memoized per ordered pair,
    as the index table step[a][b] = (H, c, d): sigma(x_a (x) x_b) = y_c
    (x) y_d, where x_a and y_d are elements of B2, x_b and y_c of B1, and
    H is the local energy of x_a (x) x_b.

    One search matches the arrows of B2 (x) B1 and B1 (x) B2 from the
    extremal vertices, on pair indices x2 * |B1| + x1 and y1 * |B2| + y2.
    An e_0 step from x adds _h_step(x, sigma(x)) to H, an f_0 step to y
    subtracts _h_step(y, sigma(y)), and classical steps keep H."""
    table = _TABLES.get((desc2, desc1))
    if table is not None:
        return table
    if (desc2.kind, desc2.n) != (desc1.kind, desc1.n):
        raise UnsupportedError("an R-matrix cannot mix types or ranks")
    t2, t1 = _factor_table(desc2), _factor_table(desc1)
    E2, E1 = t2[0], t1[0]
    m2, m1 = len(E2), len(E1)
    source, target = _product_arrows(t2, t1), _product_arrows(t1, t2)

    def vertex(p: int) -> str:  # a pair index of B2 (x) B1, for messages
        return f"{E2[p // m1]}(x){E1[p % m1]}"

    size = m2 * m1
    u2 = E2.index(highest_weight_element(desc2))
    u1 = E1.index(highest_weight_element(desc1))
    sigma, H = [-1] * size, [0] * size
    sigma[u2 * m1 + u1] = u1 * m2 + u2
    order = [u2 * m1 + u1]  # breadth first: the loop reads what it appends
    for p in order:
        img = sigma[p]
        for k, (u, v) in enumerate(zip(source[p], target[img])):
            if (u < 0) != (v < 0):
                raise IsomorphismError(
                    f"arrow {'ef'[k % 2]}_{k // 2} defined on only one side "
                    f"at {vertex(p)} -> {E1[img // m2]}(x){E2[img % m2]}")
            if u < 0:
                continue
            h = H[p]
            if k == 0:
                h += _h_step(t2, t1, divmod(p, m1), divmod(img, m2))
            elif k == 1:
                h -= _h_step(t2, t1, divmod(u, m1), divmod(v, m2))
            if sigma[u] < 0:
                sigma[u], H[u] = v, h
                order.append(u)
            elif sigma[u] != v:
                raise IsomorphismError(f"conflicting images for {vertex(u)}")
            elif H[u] != h:
                raise EnergyConsistencyError(
                    f"local energy rule violated on a color-{k // 2} edge "
                    f"{vertex(p)} -> {vertex(u)}")
    if len(order) != size:
        raise IsomorphismError(
            f"pair graph not connected: reached {len(order)} of {size}")
    if len(set(sigma)) != size:
        raise IsomorphismError("matched map is not a bijection")
    table = tuple(tuple((H[p], *divmod(sigma[p], m2))
                        for p in range(a * m1, (a + 1) * m1))
                  for a in range(m2))
    _TABLES[(desc2, desc1)] = table
    return table


def energy_extension(shape: tuple[FactorDescriptor, ...]):
    """The ``extend`` hook of ``search_paths`` that scores a path by E_B,
    which here equals the intrinsic energy D: every supported factor has a
    single classical component, so the intrinsic energies of the factors
    vanish.

    The j-th summand of E_B, sum over i < j of H_i sigma_{i+1}...sigma_{j-1},
    moves b_j right through b_{j-1}, ..., b_1 by the R-matrix and reads H
    at each step, so it depends on b_j and the factors to its right only.
    Placing b_j costs one such pass over the R-matrices' index tables.
    """
    right = shape[::-1]
    rows = [[combinatorial_r(dj, di) for di in right[:j]]
            for j, dj in enumerate(right)]

    def extend(j: int, chosen: list[int], a: int) -> int:
        row = rows[j]
        total = 0
        for i in range(j - 1, -1, -1):
            h, _, a = row[i][a][chosen[i]]
            total += h
        return total

    return extend


def _sweep(desc: FactorDescriptor, L: int, setup) -> QLaurent:
    """The direct sum over the paths of B^{(x)L} by a transfer matrix.

    On B (x) B the R-matrix is the identity, so E_B = sum over i of
    (L - i) H(b_{i+1} (x) b_i).  The sweep places b_1, ..., b_L right to
    left like ``search_paths`` and prunes by the same ``_place``, but keeps
    one {exponent: count} polynomial per state (weight, phi_i over the
    colors, eps_0, phi_0, index of the last placed element) instead of one
    leaf per path.  ``setup`` is the walk's part of what ``_walk_setup``
    returned for the sum.  ``VERTEX_CAP`` bounds the transitions."""
    kind, target, colors, level = setup
    table = _element_table(desc, colors, level is not None)
    H = [[-h for h, _, _ in row] for row in combinatorial_r(desc, desc)]
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
               weight: tuple[int, ...], level: int | None = None,
               restricted: bool = True) -> QLaurent:
    """Sum of q^{-D(b)}, the coenergy, over the paths of
    ``enumerate_paths``.  A homogeneous shape B^{(x)L} is summed by the
    transfer-matrix ``_sweep``; a mixed shape by the pruned ``_search``,
    which accumulates each path's energy E_B = D as it grows.  Both walk
    the setup of the one input check, ``_walk_setup``, before any R-matrix
    is built.  A sum that ``vanishes`` by definition is ZERO without a
    walk, which would find no path but can take long to see it."""
    data, L, setup = _walk_setup(shape, weight, level, restricted)
    if vanishes(data, L, weight, level, restricted):
        return ZERO
    if all(d == shape[0] for d in shape):
        return _sweep(shape[0], len(shape), setup)
    paths = _search(shape, setup, extend=energy_extension(shape))
    return QLaurent.from_exponents(-e for _, e in paths)
