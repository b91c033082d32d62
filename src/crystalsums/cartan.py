"""Root data and (affine) Weyl group actions for types A_n and C_n.

The simple reflections r_0, ..., r_n are defined once, in
``simple_reflections``, as their actions on coordinates; the alcove walk
and the involution apply them one at a time.  The sums read the finite
Weyl group as the (signed) permutations of coordinates, and the affine
one as those times the translations, in ``weyl_images``.

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

from .errors import (CapExceeded, NonIntegralExponent, ShapeSyntaxError,
                     UnsupportedError)

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

    def theta_pairing(self, v: tuple[int, ...]) -> int:
        """(v|theta) for the highest root theta: v_1 - v_{n+1} in type A,
        v_1 in type C.  For a dominant weight it is the level."""
        return v[0] - v[-1] if self.kind == "A" else v[0]


@cache
def cartan_data(kind: str, n: int) -> CartanData:
    if n < 1:
        raise UnsupportedError("rank must be >= 1")
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
        raise UnsupportedError(f"unsupported type {kind!r}")
    return CartanData(kind, n, roots, t, rho, h_dual=n + 1, a0=1)


# ---------------------------------------------------------------------------
# the one input check and the one vanishing rule of every route's entry
# point

def shape_type(shape) -> tuple[str, int, dict[tuple[int, int], int]]:
    """(kind, n, L) of a tensor shape, L the number of its factors B^{r,s}
    for each (r, s), as the fermionic sums take it; refuses an empty shape
    and one that mixes types or ranks."""
    if not shape:
        raise UnsupportedError("empty shape")
    kind, n = shape[0].kind, shape[0].n
    L: dict[tuple[int, int], int] = {}
    for d in shape:  # a plain loop: this runs once per sum of every route
        if d.kind != kind or d.n != n:
            raise UnsupportedError("shape mixes types or ranks")
        key = d.r, d.s
        L[key] = L.get(key, 0) + 1
    return kind, n, L


def check_sum(kind: str, n: int, weight: tuple[int, ...] | None,
              level: int | None = None,
              L: dict[tuple[int, int], int] | None = None) -> CartanData:
    """The root data of a sum, once its input is checked: ShapeSyntaxError
    for malformed input (a weight of the wrong length, a negative level, a
    negative multiplicity in ``L``), UnsupportedError for input no route
    covers (a key (r, s) of ``L`` that no factor crystal B^{r,s} has, a
    type C factor that is not a single column, a factor wider than the
    level).  ``L`` holds the factor multiplicities, as ``shape_type``
    reads them, None to check no factor; zero multiplicities pass.
    ``weight`` None checks no weight."""
    data = cartan_data(kind, n)
    if weight is not None and len(weight) != data.dim:
        raise ShapeSyntaxError(f"weight {tuple(weight)} needs {data.dim} "
                               f"coordinates")
    if level is not None and level < 0:
        raise ShapeSyntaxError(f"level {level} is negative")
    if not L:
        return data
    for (r, s), m in L.items():
        if m < 0:
            raise ShapeSyntaxError(f"B^{{{r},{s}}} has multiplicity {m}")
    for r, s in L:
        if s < 1 or not 1 <= r <= data.dim:
            raise UnsupportedError(f"{kind}_{n} has no factor B^{{{r},{s}}}")
    widest = max(s for _, s in L)
    if kind == "C" and widest > 1:
        raise UnsupportedError("type C factors must be single columns")
    if level is not None and widest > level:
        raise UnsupportedError(f"a factor is wider than the level {level}")
    return data


def vanishes(data: CartanData, L: dict[tuple[int, int], int],
             weight: tuple[int, ...], level: int | None = None,
             restricted: bool = True) -> bool:
    """Is the sum over the paths of the factors ``L`` (see ``shape_type``)
    at ``weight`` zero by definition: classically restricted without a
    ``level``, level restricted at one, unrestricted if not
    ``restricted``?  It is when no path has the weight (type A: a negative
    content or a content sum other than the boxes; type C: an L1 norm
    above the boxes or of the other parity; for some a, the a largest
    |weight| coordinates sum to more than s min(a, r) summed over the
    factors B^{r,s}, as B^{r,s} holds at most s min(a, r) letters of any a
    values), or the restriction admits none: a non-dominant weight, or one
    whose level (weight|theta) exceeds the level.  The column bound is
    Gale-Ryser for columns, and for a dominant weight it says that a row
    size of ``fermionic.config_sizes`` is negative.  A factor with r = 1
    adds s to every bound, which the box count covers, so the bound is
    tested only when some factor has r > 1.  Every route's entry point
    reads this right after ``check_sum``."""
    boxes = sum(r * s * m for (r, s), m in L.items())
    if data.kind == "A":
        if sum(weight) != boxes or min(weight) < 0:
            return True
    else:
        norm = sum(map(abs, weight))
        if norm > boxes or (boxes - norm) % 2:
            return True
    if any(r > 1 for r, _ in L):
        top = 0
        for a, x in enumerate(sorted(map(abs, weight), reverse=True), 1):
            top += x
            if top > sum(s * min(a, r) * m for (r, s), m in L.items()):
                return True
    if not restricted:
        return False
    if not data.is_dominant(weight):
        return True
    return level is not None and data.theta_pairing(weight) > level


# A simple reflection acts on coordinates as a signed permutation followed
# by a shift: coordinate k of r(v) is s * v[i] + t for the row (i, s, t) of
# its action.  The finite reflections have every shift zero.

Action = tuple[tuple[int, int, int], ...]


def _act(rows: Action, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(s * v[i] + t for i, s, t in rows)


@cache
def simple_reflections(data: CartanData, level: int | None = None
                       ) -> tuple[Action | None, ...]:
    """The actions of (r_0, r_1, ..., r_n) on rho-shifted weights; r_0 is
    the affine reflection at the level, v -> v - ((v|theta) - c) theta with
    c = level + h_dual, and is None without a level."""
    dim = data.dim
    ident = [(j, 1, 0) for j in range(dim)]
    gens: list[Action | None] = [None]
    if level is not None:
        check_sum(data.kind, data.n, None, level)
        c = level + data.h_dual
        rows = list(ident)
        if data.kind == "A":
            rows[0], rows[-1] = (dim - 1, 1, c), (0, 1, -c)
        else:
            rows[0] = (0, -1, 2 * c)
        gens[0] = tuple(rows)
    for a in range(1, data.n + 1):
        rows = list(ident)
        if data.kind == "C" and a == data.n:
            rows[-1] = (dim - 1, -1, 0)
        else:
            rows[a - 1], rows[a] = rows[a], rows[a - 1]
        gens.append(tuple(rows))
    return tuple(gens)


def reduce_to_alcove(data: CartanData, v: tuple[int, ...],
                     level: int | None = None
                     ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Walk v with simple reflections into the dominant chamber (no level)
    or the fundamental alcove at the level; return the point reached and
    the word of the walk, leftmost acting last: the product of its
    simple reflections maps v onto that point, and has sign
    (-1)^len(word).

    Each step reflects in a wall that separates the point from the
    chamber or alcove: <h_a, v> < 0, or (v|theta) > level + h_dual for r_0.
    """
    gens = simple_reflections(data, level)
    c = None if level is None else level + data.h_dual
    swaps = data.n if data.kind == "A" else data.n - 1
    word: list[int] = []
    while True:
        i = next((a for a in range(1, swaps + 1) if v[a - 1] < v[a]), None)
        if i is None:
            if data.kind == "C" and v[-1] < 0:
                i = data.n
            elif c is not None and data.theta_pairing(v) > c:
                i = 0
            else:
                return v, tuple(reversed(word))
        v = _act(gens[i], v)
        word.append(i)


def weyl_images(data: CartanData, v: tuple[int, ...], boxes: int,
                c: int | None = None
                ) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """(sign(w), beta, w(v) - c beta - rho) for every w of the finite Weyl
    group and every beta of the translation lattice M (only beta = 0
    without ``c``) whose image passes supernomial's support test: it is
    nonnegative (type A), or has L1 norm at most ``boxes`` (type C).

    w(v) permutes v, with signs in type C; M is the vectors of sum zero
    (type A) or 2Z^n (type C).  A depth-first walk fills the image one
    coordinate at a time, y = s x - c t - rho_i, from an unused coordinate
    x of v, a sign s and a translation t, and drops a prefix once it fails
    the test.  A type A image sums to sum(v) - sum(rho), so each of its
    coordinates lies in [0, sum(v) - sum(rho)], and a leaf needs
    sum(beta) = 0.  sign(w) is the inversion parity (the j-th unused
    coordinate inverts with the j before it) times the flips."""
    if data.n > WEYL_RANK_CAP:
        raise CapExceeded(
            f"rank {data.n} exceeds Weyl enumeration cap {WEYL_RANK_CAP}")
    type_a = data.kind == "A"
    signs = (1,) if type_a else (1, -1)
    step = 1 if type_a else 2  # a coordinate of a beta in M is in step Z
    period = step * c if c else 0
    top = sum(v) - sum(data.rho)
    out = []

    def walk(image, beta, rest, sign, spent):
        if not rest:
            if not (type_a and sum(beta)):
                out.append((sign, beta, image))
            return
        r = data.rho[len(image)]
        lo, hi = (0, top) if type_a else (spent - boxes, boxes - spent)
        for j, x in enumerate(rest):
            for s in signs:
                u = s * x - r
                # every k with y = u - period k in [lo, hi]
                ks = (range(-((hi - u) // period), (u - lo) // period + 1)
                      if period else (0,) if lo <= u <= hi else ())
                for k in ks:
                    y = u - period * k
                    walk(image + (y,), beta + (step * k,),
                         rest[:j] + rest[j + 1:],
                         -s * sign if j % 2 else s * sign, spent + abs(y))

    walk((), (), tuple(v), 1, 0)
    del walk  # walk refers to itself; free it without the cyclic collector
    return out
