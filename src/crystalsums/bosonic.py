"""Bosonic (Weyl alternating sum) evaluations of the configuration sums.

All outputs are coenergy graded, matching the fermionic side; energy-graded
polynomials are obtained with invert_q.  Supernomials outside the
achievable content set are zero, which is what makes every alternating sum
here finite.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from operator import add

from . import crystal
from .cartan import (CartanData, _act, _exact_quotient, cartan_data,
                     check_sum, reduce_to_alcove, shape_type,
                     simple_reflections, vanishes, weyl_images)
from .crystal import (FactorDescriptor, _combine_stats, _factor_table,
                      _route, _search, _walk_spec, factor_elements,
                      factor_weight)
# kept as the alias bosonic.enumerate_paths, which perfbench/selftest.py reads
from .crystal import enumerate_paths  # noqa: F401
from .energy import energy_extension
from .errors import CapExceeded, InvolutionError, UnsupportedError
from .partitions import (conjugate, horizontal_strip_extensions, part,
                         superpartitions)
from .qpoly import ONE, QLaurent, ZERO, qbinomial, qmultinomial

Shape = tuple[FactorDescriptor, ...]

PAIR_SET_CACHE = 1  # (shape, level) product walks kept, least recently used
SUPERNOMIAL_CACHE = 1024  # closed forms kept; a seed-1 weylrc round fills 130


def _chain_sum(n: int, mu: tuple[int, ...], lam: tuple[int, ...], step,
               term) -> QLaurent:
    """Sum of term(chain) over the chains () = nu^(0), nu^(1), ...,
    nu^(n+1) = mu^t in which nu^(a) is one of step(nu^(a-1), lam_a, mu^t)."""
    target = conjugate(tuple(sorted(mu, reverse=True)))
    chains = [((),)]
    for x in lam:
        chains = [c + (nxt,) for c in chains for nxt in step(c[-1], x, target)]
    out = ZERO
    for c in chains:
        if c[-1] == target:
            out = out + term(c)
    return out


def _supernomial_A_columns(n: int, mu: tuple[int, ...],
                           lam: tuple[int, ...]) -> QLaurent:
    """Closed form of the type A supernomial for a product of single-column
    factors B^{mu_L,1} (x) ... (x) B^{mu_1,1}, as a sum over chains of
    partitions joined by horizontal strips."""
    width = mu[0] if mu else 0

    def term(nu) -> QLaurent:
        out = ONE
        for a in range(1, n + 1):
            for i in range(1, width + 1):
                top = part(nu[a + 1], i) - part(nu[a + 1], i + 1)
                bot = part(nu[a], i) - part(nu[a + 1], i + 1)
                out = out * qbinomial(top - bot, bot)
        return out

    return _chain_sum(n, mu, lam, horizontal_strip_extensions, term)


def _supernomial_A_rows(n: int, mu: tuple[int, ...],
                        lam: tuple[int, ...]) -> QLaurent:
    """Closed form of the type A supernomial for a product of single-row
    factors B^{1,mu_L} (x) ... (x) B^{1,mu_1}."""
    width = mu[0] if mu else 0

    def term(nu) -> QLaurent:
        phi = 0
        out = ONE
        for a in range(1, n + 1):
            for i in range(1, width + 1):
                top = part(nu[a + 1], i) - part(nu[a], i + 1)
                bot = part(nu[a], i) - part(nu[a], i + 1)
                out = out * qbinomial(top - bot, bot)
                phi += part(nu[a], i + 1) * (part(nu[a + 1], i) - part(nu[a], i))
        return out.shift(phi)

    return _chain_sum(n, mu, lam, superpartitions, term)


def _supernomial_C_boxes(n: int, boxes: int,
                         lam: tuple[int, ...]) -> QLaurent:
    """Type C supernomial for (B^{1,1})^{(x) boxes}: pick the forced letters
    of the weight, then pair up the rest barred/unbarred."""
    spare = boxes - sum(abs(x) for x in lam)
    out = ZERO

    def rec(a: int, remaining: int, mu: list[int]):
        nonlocal out
        if a == n:
            if remaining == 0:
                parts = [abs(lam[b]) + mu[b] for b in range(n)] + list(mu)
                out = out + qmultinomial(boxes, parts)
            return
        for m in range(remaining + 1):
            mu.append(m)
            rec(a + 1, remaining - m, mu)
            mu.pop()

    rec(0, spare // 2, [])
    return out


# ---------------------------------------------------------------------------
# supernomial dispatch per tensor shape

def _check_bosonic(shape: Shape, weight: tuple[int, ...],
                   level: int | None = None
                   ) -> tuple[CartanData, dict[tuple[int, int], int]]:
    """(root data, factor multiplicities L) of a bosonic sum, once
    ``check_sum`` has passed and a type A shape mixing rows and columns,
    which has no supernomial closed form, is refused."""
    kind, n, L = shape_type(shape)
    data = check_sum(kind, n, weight, level, L)
    if any(r > 1 for r, _ in L) and any(s > 1 for _, s in L):
        raise UnsupportedError("bosonic sums need all rows or all columns")
    return data, L


def supernomial(shape: Shape, weight: tuple[int, ...]) -> QLaurent:
    """S-bar(B, weight) for an all-rows or all-columns shape, its input
    checked as at every route's entry point (``_check_bosonic``); the
    value is ``_supernomial``'s."""
    return _supernomial(*_check_bosonic(shape, weight), weight)


def _supernomial(data: CartanData, L: dict[tuple[int, int], int],
                 weight: tuple[int, ...]) -> QLaurent:
    """S-bar of the checked factors ``L`` at ``weight``: zero off the
    achievable content set, where no path of the factors has the weight
    (``vanishes``).  That test runs before the cached closed form, so
    those zeros are neither keyed nor cached, and no kernel sees them.

    The unrestricted sum is invariant under the finite Weyl group: s_i
    stays inside each classical component, where the energy is constant.
    So the closed form is cached by, and evaluated at, the dominant
    representative of the weight's orbit: the content sorted in
    decreasing order (type A), or the sorted absolute values (type C)."""
    if vanishes(data, L, weight, restricted=False):
        return ZERO
    dominant = tuple(sorted(map(abs, weight) if data.kind == "C" else weight,
                            reverse=True))
    return _supernomial_closed_form(data.kind, data.n,
                                    tuple(sorted(L.items())), dominant)


@lru_cache(maxsize=SUPERNOMIAL_CACHE)
def _supernomial_closed_form(kind: str, n: int, factors: tuple,
                             weight: tuple[int, ...]) -> QLaurent:
    """The closed form of S-bar for the factors (the sorted items of an
    L-map) of an all-rows or all-columns shape: single boxes in type C,
    else columns when every factor is one, else rows.  Its kernels trust
    ``_supernomial`` to have ruled out every weight that ``vanishes``,
    which they need not see as zero (type C at an odd spare, say)."""
    if kind == "C":
        return _supernomial_C_boxes(n, sum(m for _, m in factors), weight)
    column = all(s == 1 for (_, s), _ in factors)
    mu = tuple(sorted((r if column else s for (r, s), m in factors
                       for _ in range(m)), reverse=True))
    return (_supernomial_A_columns if column else _supernomial_A_rows)(
        n, mu, weight)


# ---------------------------------------------------------------------------
# alternating sums

def alternating_sum(shape: Shape, lam: tuple[int, ...],
                    level: int | None = None) -> QLaurent:
    """X-bar(B, Lambda), or X-bar^level(B, Lambda) at a ``level``: the sum
    over w in the finite Weyl group and beta in the translation lattice M
    (only beta = 0 without a level) of sign(w) q^e S(w(lam + rho - c beta)
    - rho), with c = level + h_dual and e = a0/2 (beta|beta) c - a0 (lam +
    rho|beta).

    M and the form are W-invariant, so with beta' = w beta the image is
    w(lam + rho) - c beta' - rho and e = a0/2 (beta'|beta') c - a0 (w(lam +
    rho)|beta').  One walk (``weyl_images``) lists every (w, beta') whose
    image lies in the supernomial support; every other term is zero, and e
    is read only for the terms whose supernomial is not.

    The input is checked as in ``compute_sum``: what ``check_sum`` refuses
    raises, then a shape mixing rows and columns raises UnsupportedError;
    a sum that ``vanishes`` by definition is ZERO.  There the alternating
    form is not a sum over paths: at a non-dominant weight, or one above
    the level, its terms need not cancel."""
    data, L = _check_bosonic(shape, lam, level)
    if vanishes(data, L, lam, level):
        return ZERO
    boxes = sum(d.boxes for d in shape)
    c = None if level is None else level + data.h_dual
    lam_rho = tuple(l + r for l, r in zip(lam, data.rho))
    out = ZERO
    for sign, beta, mu in weyl_images(data, lam_rho, boxes, c):
        s = _supernomial(data, L, mu)
        if s.is_zero():
            continue
        if c is not None:
            w_lam_rho = tuple(m + r + c * x
                              for m, r, x in zip(mu, data.rho, beta))
            # the exponent e over the integer form
            s = s.shift(_exact_quotient(
                data.a0 * (c * data.form(beta, beta)
                           - 2 * data.form(w_lam_rho, beta)),
                4, f"level prefactor at beta={beta}"))
        out = out + s if sign > 0 else out - s
    return out


# ---------------------------------------------------------------------------
# the sign-reversing involution

@dataclass
class InvolutionReport:
    size: int
    fixed_points: int
    fixed_equals_paths: bool
    involution_ok: bool
    sign_reversing_ok: bool
    statistic_preserved: bool | None
    findings: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (self.fixed_equals_paths and self.involution_ok
                and self.sign_reversing_ok and not self.findings
                and self.statistic_preserved in (None, True))


def _letter_table(kind: str, n: int) -> dict[int, tuple]:
    """(eps_i, phi_i - eps_i) over i = 0..n of each letter, read as a box."""
    elements, eps, phi, _, _ = _factor_table(FactorDescriptor(kind, n))
    return {x.letters[0]: tuple((e[k], p[k] - e[k]) for e, p in zip(eps, phi))
            for k, x in enumerate(elements)}


def _select_color(letters: tuple[int, ...], table: dict[int, tuple],
                  level: int | None) -> int | None:
    """The pairing color: the first color whose string condition fires on
    a suffix of the letter expansion (a positive classical string, or in
    level mode an affine string longer than the level).  One fold from the
    right carries eps_i and phi_i - eps_i of the growing suffix, as
    ``crystal._combine_stats`` does, over the per-letter ``table``.

    At the first firing suffix the color is automatically unique: the
    affine condition can only jump when the new letter is a 1, which
    carries no classical string.
    """
    colors = range(len(table[1]))  # every alphabet has the letter 1
    eps, hs = [0] * len(colors), [0] * len(colors)
    for k, b in enumerate(reversed(letters), 1):
        for i, (eb, hb) in zip(colors, table[b]):
            eps[i] = max(eps[i], eb - hs[i])
            hs[i] += hb
        hits = [i for i in colors[1:] if eps[i] > 0]
        if level is not None and eps[0] > level:
            hits.append(0)
        if hits:
            if len(hits) > 1:
                raise InvolutionError(f"pairing color not unique at "
                                      f"{letters[-k:]}: {hits}")
            return hits[0]
    return None


# A word of the involution is a tuple of element indices in display order;
# ``tables[p]`` is the ``_factor_table`` (elements, eps, phi, e, f) of its
# p-th factor.

def _strings(tables: list, b: tuple[int, ...], i: int) -> list:
    """(eps_i, phi_i, phi_i - eps_i) of each factor of the word b."""
    return [(eps[i][k], phi[i][k], phi[i][k] - eps[i][k])
            for (_, eps, phi, _, _), k in zip(tables, b)]


def _arrow(tables: list, b: tuple[int, ...], i: int,
           direction: str) -> tuple[int, ...] | None:
    """e_i or f_i of the word b by the tensor rule, or None."""
    j = _route(_strings(tables, b, i), direction)
    if j is None:
        return None
    y = tables[j][3 if direction == "e" else 4][i][b[j]]
    return None if y < 0 else b[:j] + (y,) + b[j + 1:]


def _reflect(tables: list, b: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The crystal reflection s_i: slide to the far end of the i-string."""
    eps, phi, _ = _combine_stats(_strings(tables, b, i))
    direction = "f" if phi > eps else "e"
    for _ in range(abs(phi - eps)):  # within the string: phi f's, eps e's
        b = _arrow(tables, b, i, direction)
    return b


def _phi_move(tables: list, b: tuple[int, ...], i: int,
              level: int | None) -> tuple[int, ...]:
    """e_i (e_0^{level+1} for the color 0, selected only in level mode),
    then s_i."""
    for _ in range(level + 1 if i == 0 else 1):
        b = _arrow(tables, b, i, "e")
        if b is None:
            raise InvolutionError(
                "e_0 string shorter than level + 1" if i == 0
                else f"e_{i} empty on a word selected for color {i}")
    return _reflect(tables, b, i)


def _word_energy(shape: Shape):
    """E_B of a word of ``shape``, by the pass that scores the paths of a
    mixed direct sum: b_1, ..., b_L placed in turn."""
    extend = energy_extension(shape)

    def energy(b: tuple[int, ...]) -> int:
        right = b[::-1]
        return sum(extend(j, right, k) for j, k in enumerate(right))

    return energy


def _pair_set(shape: Shape, lam: tuple[int, ...], level: int | None
              ) -> dict[tuple[int, ...], tuple[tuple[int, ...], int]]:
    """The signed set S of pairs (w, b) with w(wt(b) + rho) = lam + rho,
    w in the finite Weyl group (no level) or the affine one at the level,
    as a map from each word b to (wt(b) + rho, sign(w)).  lam is dominant,
    so lam + rho is regular: each b has at most one w, the one with
    w^-1(lam + rho) = wt(b) + rho, which the walk of wt(b) + rho into the
    chamber or alcove finds when it ends at lam + rho; sign(w) is
    (-1)^len(walk).  So S is the group of words reaching lam + rho in the
    one walk of the product per (shape, level), ``_pair_sets``, copied;
    ``VERTEX_CAP`` bounds the size of the product on every call."""
    if prod(len(factor_elements(d)) for d in shape) > crystal.VERTEX_CAP:
        raise CapExceeded(
            f"tensor product has more than {crystal.VERTEX_CAP} elements")
    rho = cartan_data(shape[0].kind, shape[0].n).rho
    return dict(_pair_sets(shape, level).get(tuple(map(add, lam, rho)), {}))


@lru_cache(maxsize=PAIR_SET_CACHE)
def _pair_sets(shape: Shape, level: int | None) -> dict[tuple, dict]:
    """Every word of the product, as an element index tuple, grouped by the
    point its wt(b) + rho reaches in the chamber or alcove: {reached: {b:
    (wt(b) + rho, (-1)^len(walk))}}, each group in product order.  The
    words are listed depth first with a running weight, and each distinct
    weight is walked (``reduce_to_alcove``) once.  A point on a wall (two
    equal coordinates, a zero last one in type C, or (v|theta) = level +
    h_dual) is no lam + rho of a dominant lam at most the level, so no
    group of one is kept."""
    data = cartan_data(shape[0].kind, shape[0].n)
    c = None if level is None else level + data.h_dual
    options = [list(enumerate(map(factor_weight, factor_elements(d))))
               for d in shape]
    chosen: dict[tuple[int, ...], tuple] = {}
    groups: dict[tuple, dict] = {}
    L = len(shape)
    placed: list = [None] * L

    def walk(p, wt):
        if p == L:
            hit = chosen.get(wt)
            if hit is None:
                v = tuple(map(add, wt, data.rho))
                reached, word = reduce_to_alcove(data, v, level)
                wall = (len(set(reached)) < data.dim
                        or data.kind == "C" and reached[-1] == 0
                        or data.theta_pairing(reached) == c)
                hit = chosen[wt] = () if wall else (
                    groups.setdefault(reached, {}), (v, (-1) ** len(word)))
            if hit:
                hit[0][tuple(placed)] = hit[1]
            return
        for k, xw in options[p]:
            placed[p] = k
            walk(p + 1, tuple(map(add, wt, xw)))

    walk(0, (0,) * data.dim)
    del walk  # walk refers to itself; free it without the cyclic collector
    return groups


def involution_phi(shape: Shape, lam: tuple[int, ...],
                   level: int | None = None) -> InvolutionReport:
    """Build the signed pair set S of a dominant weight, classical or at
    the ``level``, apply the involution, and report its structure.
    Property failures are findings, not exceptions, except for a pairing
    color that stops being well defined.  S is the group of lam + rho in
    the one walk of the product per (shape, level) (``_pair_set``).
    phi(w, b) = (w r_i, b') lies in S iff r_i(wt(b) + rho) = wt(b') + rho,
    as (w r_i)^-1(lam + rho) = r_i w^-1(lam + rho), and phi(w r_i, b') =
    (w, b) iff phi moves b' by the color i back to b.  phi is applied once
    per word of S: that check reads phi(b') from the same pass, as b' is
    then in S.  Where the sum ``vanishes`` by definition, there is nothing
    to report, and it raises UnsupportedError."""
    kind, n, L = shape_type(shape)
    data = check_sum(kind, n, lam, level, L)
    if level is not None and any(key != (1, 1) for key in L):
        # the color fold reads affine strings letterwise, which only
        # matches the crystal for single-box factors
        raise UnsupportedError(
            "the level involution supports single-box factors only")
    if vanishes(data, L, lam, level):
        # lam + rho need not be regular, and the report would be vacuous
        raise UnsupportedError(f"the sum at weight {lam} is zero by "
                               f"definition")
    pairs = _pair_set(shape, lam, level)
    target = tuple(l + r for l, r in zip(lam, data.rho))
    gens = simple_reflections(data, level)
    letters = _letter_table(data.kind, data.n)
    tables = [_factor_table(d) for d in shape]

    findings: list[str] = []
    expected_fixed = {w for w, _ in _search(shape,
                                            _walk_spec(data, lam, level))}

    def text(b):
        return "(x)".join(str(t[0][k]) for t, k in zip(tables, b))

    def apply_phi(b):
        flat = tuple(c for t, k in zip(tables, b) for c in t[0][k].letters)
        i = _select_color(flat, letters, level)
        if i is None:  # fixed: w is the identity, wt(b) + rho = lam + rho
            if pairs[b][0] != target:
                raise InvolutionError(
                    f"pairing color undefined on non fixed point ({text(b)})")
            return None
        return i, _phi_move(tables, b, i, level)

    fixed = set()
    images = {}
    for b in pairs:
        out = apply_phi(b)
        if out is None:
            fixed.add(b)
        else:
            images[b] = out

    involution_ok = True
    sign_ok = True
    stat_ok: bool | None = None
    if level is None and data.kind == "A":
        stat_ok = True
        energy = _word_energy(shape)
    for b1, (i, b2) in images.items():
        v1, sign1 = pairs[b1]
        v2, sign2 = pairs.get(b2, (None, 0))
        if v2 != _act(gens[i], v1):
            findings.append(f"image {text(b2)} left the pair set")
            involution_ok = False
            continue
        if images.get(b2) != (i, b1):  # b2 is in S: phi(b2) is known
            involution_ok = False
            findings.append(f"not an involution at {text(b2)}")
        if sign1 * sign2 != -1:
            sign_ok = False
        if stat_ok is not None and energy(b1) != energy(b2):
            stat_ok = False
    return InvolutionReport(len(pairs), len(fixed),
                            fixed == expected_fixed, involution_ok, sign_ok,
                            stat_ok, findings)
