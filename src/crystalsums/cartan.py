"""Root data and (affine) Weyl group actions for types A_n and C_n.

Weights live in an integer ambient lattice: Z^{n+1} for type A (content
vectors, not reduced modulo the all-ones vector) and Z^n for type C.  With
this choice every quantity the sums need is an integer.  The type C
bilinear form carries a denominator of 2, so ``CartanData.form`` returns
the integer 2(v|w) in both types, and every expression built on it divides
once, exactly, through ``_exact_quotient``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product as iproduct

from .errors import CapExceeded, NonIntegralExponent

WEYL_RANK_CAP = 6


def _exact_quotient(x: int, d: int, what: str) -> int:
    """x / d, which must be an integer."""
    q, r = divmod(x, d)
    if r:
        raise NonIntegralExponent(f"{what} {x}/{d} is not an integer")
    return q


@dataclass(frozen=True)
class CartanData:
    kind: str                     # "A" or "C"
    n: int
    simple_roots: tuple[tuple[int, ...], ...]
    t: tuple[int, ...]            # t_a = 2 / (alpha_a | alpha_a)
    rho: tuple[int, ...]
    h_dual: int
    a0: int

    @property
    def dim(self) -> int:
        return self.n + 1 if self.kind == "A" else self.n

    def form(self, v: tuple[int, ...], w: tuple[int, ...]) -> int:
        """2(v|w): the dot product in type C, twice it in type A."""
        dot = sum(a * b for a, b in zip(v, w))
        return dot if self.kind == "C" else 2 * dot

    def is_dominant(self, v: tuple[int, ...]) -> bool:
        """<h_a, v> >= 0 for a = 1..n: weakly decreasing coordinates, and
        in type C a nonnegative last one."""
        return (all(a >= b for a, b in zip(v, v[1:]))
                and (self.kind == "A" or v[-1] >= 0))

    def coroot_pairing(self, a: int, v: tuple[int, ...]) -> int:
        """<h_a, v> = t_a (alpha_a | v); always an integer: the type C
        denominator 2 meets t_a = 2 or the long root's even coordinate."""
        return _exact_quotient(
            self.t[a - 1] * self.form(self.simple_roots[a - 1], v), 2,
            "coroot pairing")


@cache
def cartan_data(kind: str, n: int) -> CartanData:
    if n < 1:
        raise ValueError("rank must be at least 1")
    if kind == "A":
        dim = n + 1
        roots = tuple(
            tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(dim))
            for i in range(n))
        rho = tuple(range(n, -1, -1))
        t = (1,) * n
    elif kind == "C":
        dim = n
        roots = []
        for i in range(n - 1):
            roots.append(tuple(1 if j == i else -1 if j == i + 1 else 0
                               for j in range(dim)))
        roots.append(tuple(2 if j == n - 1 else 0 for j in range(dim)))
        roots = tuple(roots)
        rho = tuple(range(n, 0, -1))
        t = (2,) * (n - 1) + (1,)
    else:
        raise ValueError(f"unsupported type {kind!r}")
    return CartanData(kind, n, roots, t, rho, h_dual=n + 1, a0=1)


# A Weyl group element acts on coordinates as a signed permutation.  The
# action is encoded as a tuple of (source index, sign) pairs per target
# coordinate; type A elements carry sign +1 everywhere.

Action = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class WeylElement:
    word: tuple[int, ...]
    action: Action
    sign: int

    def apply(self, v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(s * v[i] for i, s in self.action)


def _generator_actions(data: CartanData) -> list[Action]:
    dim = data.dim
    gens = []
    for a in range(1, data.n + 1):
        act = [(j, 1) for j in range(dim)]
        if data.kind == "C" and a == data.n:
            act[-1] = (dim - 1, -1)
        else:
            act[a - 1], act[a] = act[a], act[a - 1]
        gens.append(tuple(act))
    return gens


def generator_action(data: CartanData, i: int) -> Action:
    """The signed-permutation encoding of the simple reflection r_i."""
    if not 1 <= i <= data.n:
        raise IndexError(f"generator index {i} out of range")
    return _generator_actions(data)[i - 1]


def weyl_enumerate(data: CartanData, rank_cap: int = WEYL_RANK_CAP) -> list[WeylElement]:
    """Every element of the finite Weyl group, once, with its sign.

    BFS over the generators: the discovery depth is the reduced word
    length, so sign = (-1)^depth.
    """
    if data.n > rank_cap:
        raise CapExceeded(
            f"rank {data.n} exceeds Weyl enumeration cap {rank_cap}")
    gens = _generator_actions(data)
    ident: Action = tuple((j, 1) for j in range(data.dim))
    seen: dict[Action, WeylElement] = {
        ident: WeylElement((), ident, 1)}
    frontier = [seen[ident]]
    while frontier:
        nxt = []
        for el in frontier:
            for a, g in enumerate(gens, start=1):
                # compose g after el: permute/flip the rows of el's encoding
                new = tuple(el.action[i] if s == 1 else (el.action[i][0], -el.action[i][1])
                            for i, s in g)
                if new not in seen:
                    # new element is g o el, so g is leftmost in the word
                    w = WeylElement((a,) + el.word, new, -el.sign)
                    seen[new] = w
                    nxt.append(w)
        frontier = nxt
    return list(seen.values())


def apply_simple_reflection(data: CartanData, i: int, v: tuple[int, ...],
                            level: int | None = None) -> tuple[int, ...]:
    """r_i acting on coordinates; i = 0 is the affine reflection and needs
    the level."""
    n = data.n
    if i == 0:
        if level is None:
            raise ValueError("the affine reflection r_0 requires a level")
        c = level + n + 1
        if data.kind == "A":
            return (v[n] + c,) + v[1:n] + (v[0] - c,)
        return (-v[0] + 2 * c,) + v[1:]
    if not 1 <= i <= n:
        raise IndexError(f"reflection index {i} out of range for rank {n}")
    if data.kind == "C" and i == n:
        return v[:-1] + (-v[-1],)
    w = list(v)
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def translation_lattice_box(data: CartanData, level: int,
                            coordinate_bound: int) -> list[tuple[int, ...]]:
    """The finite window of the translation lattice M that can contribute to
    the level-restricted alternating sum.

    Includes every alpha in M whose coordinates stay within
    ceil(coordinate_bound / (level + h_dual)) plus one safety ring; the
    caller checks that the outermost ring contributes zero.
    """
    if coordinate_bound < 0:
        raise ValueError("coordinate bound must be nonnegative")
    c = level + data.h_dual
    cap = -(-coordinate_bound // c) + 1
    if data.kind == "A":
        rng = range(-cap, cap + 1)
        return [beta for beta in iproduct(rng, repeat=data.n + 1)
                if sum(beta) == 0]
    # type C: M = 2 Z^n
    half = -(-cap // 2)
    rng = range(-2 * half, 2 * half + 1, 2)
    return [beta for beta in iproduct(rng, repeat=data.n)]

