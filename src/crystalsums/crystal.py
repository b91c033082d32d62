"""Finite crystals of types A_n and C_n and their tensor products.

Conventions fixed here, once:

* An element b_L (x) ... (x) b_1 of a tensor product is a tuple of element
  indices in display order: entry p is the index of its factor in
  ``factor_elements`` of the p-th descriptor of the shape, so index 1 of
  the mathematical labelling is the RIGHTMOST factor and lives at the END
  of the tuple.
* For a two-factor product b (x) b' the operators act as

      e_i(b (x) b') = e_i b (x) b'   if eps_i(b) >  phi_i(b'), else b (x) e_i b'
      f_i(b (x) b') = f_i b (x) b'   if eps_i(b) >= phi_i(b'), else b (x) f_i b'

  extended associatively to longer products: ``_route`` finds the factor
  an arrow acts on from the factors' (eps_i, phi_i, phi_i - eps_i).
* Supported factors: B^{1,1} in both types; B^{r,1} (columns, r <= n+1)
  and B^{1,s} (rows) in type A.  Type A factors carry affine 0-arrows
  realised by promotion: e_0 = pr^{-1} o e_1 o pr where pr shifts letter
  values cyclically.  The type C box B^{1,1} of C_n^(1) has the single
  0-arrow 1bar --0--> 1 (Kang-Kashiwara-Misra-Miwa-Nakashima-Nakayashiki).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, combinations_with_replacement
from operator import add, gt, sub

from .cartan import CartanData, check_sum, shape_type
from .errors import CapExceeded, CrystalStructureError, UnsupportedError

VERTEX_CAP = 2 * 10 ** 6


# ---------------------------------------------------------------------------
# letters

def letters_of(kind: str, n: int) -> tuple[int, ...]:
    """Type A: 1..n+1.  Type C: 1..n then the barred letters encoded -n..-1
    (so -k prints as k-bar); crystal order is 1,..,n,nbar,..,1bar."""
    if kind == "A":
        return tuple(range(1, n + 2))
    return tuple(range(1, n + 1)) + tuple(range(-n, 0))


def letter_weight(kind: str, n: int, b: int) -> tuple[int, ...]:
    if kind == "A":
        return tuple(1 if j == b else 0 for j in range(1, n + 2))
    k = abs(b)
    s = 1 if b > 0 else -1
    return tuple(s if j == k else 0 for j in range(1, n + 1))


def letter_f(kind: str, n: int, i: int, b: int) -> int | None:
    """The arrow b --i--> from the classical crystal of the vector
    representation, or None."""
    if kind == "A":
        return b + 1 if b == i else None
    if i == 0:
        return 1 if b == -1 else None
    if i < n:
        if b == i:
            return i + 1
        if b == -(i + 1):
            return -i
        return None
    return -n if b == n else None


def letter_e(kind: str, n: int, i: int, b: int) -> int | None:
    """e_i b, read off ``letter_f``: e_i y = x exactly when f_i x = y."""
    return next((x for x in letters_of(kind, n)
                 if letter_f(kind, n, i, x) == b), None)


def letter_arrow(kind: str, n: int, i: int, b: int, direction: str) -> int | None:
    if direction == "f":
        return letter_f(kind, n, i, b)
    if direction == "e":
        return letter_e(kind, n, i, b)
    raise ValueError(f"direction must be 'e' or 'f', got {direction!r}")


def letter_str(b: int) -> str:
    return str(b) if b > 0 else f"{-b}b"


# ---------------------------------------------------------------------------
# generic tensor-rule plumbing, used both for letters inside a factor and
# for factors inside a word

def _combine_stats(stats: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """Fold (eps, phi, <h_i, wt>) triples of the items of a product, given
    left to right, into the triple of the whole product."""
    E, P, H = 0, 0, 0  # stats of the (initially empty) right tail
    for eb, pb, hb in reversed(stats):
        E = max(E, eb - H)
        P = max(pb, P + hb)
        H += hb
    return E, P, H


def _route(stats: list[tuple[int, int, int]], direction: str) -> int | None:
    """Index of the item an arrow acts on, or None when the product-level
    string is empty in that direction."""
    if not stats:
        return None
    # phi/eps of suffixes, right to left
    m = len(stats)
    suffix = [(0, 0, 0)] * (m + 1)
    E, P, H = 0, 0, 0
    for k in range(m - 1, -1, -1):
        eb, pb, hb = stats[k]
        E = max(E, eb - H)
        P = max(pb, P + hb)
        H += hb
        suffix[k] = (E, P, H)
    if direction == "e" and suffix[0][0] == 0:
        return None
    if direction == "f" and suffix[0][1] == 0:
        return None
    for j in range(m - 1):
        eps_left = stats[j][0]
        phi_tail = suffix[j + 1][1]
        if direction == "e":
            if eps_left > phi_tail:
                return j
        else:
            if eps_left >= phi_tail:
                return j
    return m - 1


# ---------------------------------------------------------------------------
# factors

@dataclass(frozen=True)
class FactorDescriptor:
    """One tensor factor B^{r,s}.  Only (1,1) [both types], (r,1) and (1,s)
    [type A] are constructible."""

    kind: str
    n: int
    r: int = 1
    s: int = 1

    def __post_init__(self):
        if self.kind not in ("A", "C"):
            raise UnsupportedError(f"unsupported type {self.kind!r}")
        if self.n < 1:
            raise UnsupportedError("rank must be >= 1")
        if self.r < 1 or self.s < 1:
            raise UnsupportedError("factor indices must be >= 1")
        if self.r > 1 and self.s > 1:
            raise UnsupportedError(
                f"B^{{{self.r},{self.s}}} is not supported")
        if self.kind == "C" and (self.r, self.s) != (1, 1):
            raise UnsupportedError(
                "only B^{1,1} factors are supported in type C")
        if self.kind == "A" and self.r > self.n + 1:
            raise UnsupportedError(
                f"column height {self.r} exceeds n+1 = {self.n + 1}")

    @property
    def boxes(self) -> int:
        return self.r * self.s

    def __str__(self) -> str:
        return f"B[{self.kind}{self.n}]^({self.r},{self.s})"


@dataclass(frozen=True)
class Factor:
    """An element of one factor crystal, as its canonical letter tuple in
    display order: columns strictly decreasing, rows weakly increasing."""

    desc: FactorDescriptor
    letters: tuple[int, ...]

    def __str__(self) -> str:
        return "".join(letter_str(b) for b in self.letters)


@cache
def factor_elements(desc: FactorDescriptor) -> tuple[Factor, ...]:
    kind, n = desc.kind, desc.n
    if desc.r > 1:
        return tuple(Factor(desc, tuple(sorted(c, reverse=True)))
                     for c in combinations(range(1, n + 2), desc.r))
    if desc.s > 1:
        return tuple(Factor(desc, c)
                     for c in combinations_with_replacement(range(1, n + 2), desc.s))
    order = letters_of(kind, n)
    return tuple(Factor(desc, (b,)) for b in order)


@cache
def factor_weight(x: Factor) -> tuple[int, ...]:
    kind, n = x.desc.kind, x.desc.n
    dim = n + 1 if kind == "A" else n
    w = [0] * dim
    for b in x.letters:
        for j, c in enumerate(letter_weight(kind, n, b)):
            w[j] += c
    return tuple(w)


def _letter_stats(kind: str, n: int, i: int, b: int) -> tuple[int, int, int]:
    e = 1 if letter_e(kind, n, i, b) is not None else 0
    f = 1 if letter_f(kind, n, i, b) is not None else 0
    return e, f, f - e


def _canonical(desc: FactorDescriptor, letters: tuple[int, ...]) -> tuple[int, ...]:
    if desc.r > 1:
        return tuple(sorted(letters, reverse=True))
    if desc.s > 1:
        return tuple(sorted(letters))
    return letters


def _promote(x: Factor) -> Factor:
    m = x.desc.n + 1
    shifted = tuple(b % m + 1 for b in x.letters)
    return Factor(x.desc, _canonical(x.desc, shifted))


def _demote(x: Factor) -> Factor:
    m = x.desc.n + 1
    shifted = tuple((b - 2) % m + 1 for b in x.letters)
    return Factor(x.desc, _canonical(x.desc, shifted))


@cache
def factor_arrow(x: Factor, i: int, direction: str) -> Factor | None:
    """e_i / f_i on one factor; a type A i = 0 goes through promotion."""
    kind, n = x.desc.kind, x.desc.n
    if i == 0 and kind == "A":
        y = factor_arrow(_promote(x), 1, direction)
        return None if y is None else _demote(y)
    stats = [_letter_stats(kind, n, i, b) for b in x.letters]
    j = _route(stats, direction)
    if j is None:
        return None
    nb = letter_arrow(kind, n, i, x.letters[j], direction)
    if nb is None:
        return None
    letters = x.letters[:j] + (nb,) + x.letters[j + 1:]
    return Factor(x.desc, _canonical(x.desc, letters))


@cache
def factor_stats(x: Factor, i: int) -> tuple[int, int, int]:
    """(eps_i, phi_i, phi_i - eps_i) of a factor element; a type A i = 0
    goes through promotion, as e_0 = pr^{-1} o e_1 o pr."""
    kind, n = x.desc.kind, x.desc.n
    if i == 0 and kind == "A":
        return factor_stats(_promote(x), 1)
    E, P, H = _combine_stats(
        [_letter_stats(kind, n, i, b) for b in x.letters])
    return E, P, H


@cache
def _factor_table(desc: FactorDescriptor) -> tuple:
    """One factor by element index: (elements, eps, phi, e, f), where
    eps[i][k] and phi[i][k] are eps_i and phi_i of element k, and e[i][k]
    and f[i][k] the indices of e_i and f_i of it (-1 for none), i = 0..n.
    e_i is read off f_i, since e_i y = x exactly when f_i x = y.  Every
    walk, search and R-matrix reads a factor through this table, which
    every caller shares, so it is built of tuples."""
    elements = factor_elements(desc)
    at = {x: k for k, x in enumerate(elements)}
    colors = range(desc.n + 1)
    f = tuple(tuple(at.get(factor_arrow(x, i, "f"), -1) for x in elements)
              for i in colors)
    e = [[-1] * len(elements) for _ in colors]
    for ei, fi in zip(e, f):
        for k, t in enumerate(fi):
            if t >= 0:
                ei[t] = k
    return (elements,
            tuple(tuple(factor_stats(x, i)[0] for x in elements)
                  for i in colors),
            tuple(tuple(factor_stats(x, i)[1] for x in elements)
                  for i in colors),
            tuple(map(tuple, e)), f)


# ---------------------------------------------------------------------------
# path sets

def _walk_spec(data: CartanData, weight: tuple[int, ...] | None,
               level: int | None = None, restricted: bool = True) -> tuple:
    """What a walk over the paths at ``weight`` tests, as (kind, target
    weight, classical colors to test, level to test or None); a walk with
    ``weight`` None has no target and reaches the paths of every weight.
    ``level`` and ``restricted`` read as in ``cartan.vanishes``: the paths
    are level restricted at a ``level`` (killed by every classical e_i and
    by e_0^{level+1}), classically restricted without one, and of the
    weight alone if not ``restricted``."""
    return (data.kind, None if weight is None else tuple(weight),
            range(1, data.n + 1) if restricted else (),
            level if restricted else None)


def _walk_setup(shape: tuple[FactorDescriptor, ...],
                weight: tuple[int, ...], level: int | None = None,
                restricted: bool = True):
    """The root data, the factor multiplicities L (``cartan.shape_type``)
    and the ``_walk_spec`` of a walk over the paths of ``shape``, once
    ``cartan.check_sum`` has checked the input.  A factor wider than the
    level passes: its paths are still well defined."""
    kind, n, L = shape_type(shape)
    data = check_sum(kind, n, weight, level)
    return data, L, _walk_spec(data, weight, level, restricted)


def _element_table(desc: FactorDescriptor, colors, affine: bool) -> list:
    """Each element of one factor as (index, weight, eps_i and phi_i -
    eps_i over the colors, eps_0, phi_0); eps_0 = phi_0 = 0 unless
    ``affine``."""
    elements, eps, phi, _, _ = _factor_table(desc)
    return [(k, factor_weight(x),
             tuple(eps[i][k] for i in colors),
             tuple(phi[i][k] - eps[i][k] for i in colors),
             *((eps[0][k], phi[0][k]) if affine else (0, 0)))
            for k, x in enumerate(elements)]


def _place(kind: str, target: tuple[int, ...] | None, room: int,
           level: int | None, state: tuple, entry: tuple) -> tuple | None:
    """The state (weight, phi_i over the colors, eps_0, phi_0) of b (x) S
    from the state of S and b's ``_element_table`` entry, or None when no
    path to ``target`` ends in b (x) S with ``room`` boxes left to place.
    With ``target`` None the weight rules are skipped: the walk reaches
    the paths of every weight.

    * Highest weight: b (x) S is killed by every classical e_i iff S is
      and eps_i(b) <= phi_i(S), and then phi_i(b (x) S) = phi_i(b) +
      phi_i(S) - eps_i(b).  So every right suffix of a restricted path is
      itself highest weight.
    * Weight: type A letter weights are nonnegative, so no coordinate may
      exceed the target; a type C box moves the weight by one unit vector,
      so the L1 distance to the target may not exceed the room.
    * Level: eps_0 of the suffix never decreases as it grows to the left,
      so the suffix dies once it exceeds the level.
    """
    wt, phis, eps0, phi0 = state
    _, xw, xe, xh, xe0, xp0 = entry
    if any(map(gt, xe, phis)):
        return None
    w = tuple(map(add, wt, xw))
    if target is None:
        pass
    elif kind == "A":
        if any(map(gt, w, target)):
            return None
    elif sum(map(abs, map(sub, target, w))) > room:
        return None
    nphis = tuple(map(add, phis, xh))
    if level is None:
        return w, nphis, 0, 0
    neps0 = max(eps0, xe0 - phi0 + eps0)
    if neps0 > level:
        return None
    return w, nphis, neps0, max(xp0, phi0 + xp0 - xe0)


def search_paths(shape: tuple[FactorDescriptor, ...],
                 weight: tuple[int, ...], level: int | None = None,
                 restricted: bool = True,
                 extend=None) -> list[tuple[tuple[int, ...], int]]:
    """The path set of ``enumerate_paths`` as (path, score) pairs: the
    ``_search`` of the checked input, at its target weight.

    ``extend(j, chosen, k)``, when given, is called each time b_{j+1}, the
    element ``factor_elements(...)[k]`` of its factor, is placed to the
    left of b_j (x) ... (x) b_1, whose element indices are chosen[0..j-1];
    a path's score is the sum of what it returned along the path (0
    without a hook).
    """
    setup = _walk_setup(shape, weight, level, restricted)[2]
    return _search(shape, setup, extend)[1].get(setup[1], [])


def _search(shape: tuple[FactorDescriptor, ...], setup,
            extend=None) -> tuple[int, dict]:
    """The number of search nodes visited and the (path, score) pairs of
    ``search_paths`` grouped by weight, {weight: pairs}, for the walk
    ``setup`` (a ``_walk_spec``): one group at its target weight, or one
    per weight reached when it has none.  A depth-first search places b_1
    first and grows each path to the left, pruning each partial path b_j
    (x) ... (x) b_1 by ``_place``.  ``VERTEX_CAP`` bounds the nodes."""
    kind, target, colors, level = setup
    right = shape[::-1]
    L = len(right)
    boxes_left = [sum(d.boxes for d in right[p + 1:]) for p in range(L)]
    if target is not None and sum(map(abs, target)) > sum(
            d.boxes for d in right):
        # ``_place``'s L1 rule at the empty suffix; in type A it reads the
        # same at every node, as sum(target - w) - room never changes
        return 0, {}
    tables = {d: _element_table(d, colors, level is not None)
              for d in set(right)}
    options = [tables[d] for d in right]

    out: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    chosen = [0] * L
    nodes = 0

    def grow(p, state, score):
        nonlocal nodes
        if p == L:
            if target is None or state[0] == target:
                out.setdefault(state[0], []).append(
                    (tuple(reversed(chosen)), score))
            return
        for entry in options[p]:
            nstate = _place(kind, target, boxes_left[p], level, state, entry)
            if nstate is None:
                continue
            nodes += 1
            if nodes > VERTEX_CAP:
                raise CapExceeded(f"path search visited more than "
                                  f"{VERTEX_CAP} nodes")
            k = chosen[p] = entry[0]
            grow(p + 1, nstate,
                 score if extend is None else score + extend(p, chosen, k))

    # the weight's length from the first factor: a shape is never empty
    grow(0, ((0,) * len(options[0][0][1]), (0,) * len(colors), 0, 0), 0)
    del grow  # grow refers to itself; without this the search state
    # (and the hook's tables) would wait for the cyclic garbage collector
    return nodes, out


def enumerate_paths(shape: tuple[FactorDescriptor, ...],
                    weight: tuple[int, ...], level: int | None = None,
                    restricted: bool = True) -> list[tuple[int, ...]]:
    """The paths of ``shape`` at ``weight``, as element index tuples in
    display order; ``level`` and ``restricted`` as in ``_walk_spec``.
    ``VERTEX_CAP`` bounds the search nodes visited."""
    return [w for w, _ in search_paths(shape, weight, level, restricted)]


@cache
def highest_weight_element(desc: FactorDescriptor) -> Factor:
    """u(B) of one factor: its unique classical highest weight element."""
    elements, _, _, e, _ = _factor_table(desc)
    for k, x in enumerate(elements):
        if all(e[i][k] < 0 for i in range(1, desc.n + 1)):
            return x
    raise CrystalStructureError(f"{desc} has no highest weight element")
