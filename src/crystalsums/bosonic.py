"""Bosonic (Weyl alternating sum) evaluations of the configuration sums.

All outputs are coenergy graded, matching the fermionic side; energy-graded
polynomials are obtained with invert_q.  Supernomials outside the
achievable content set are zero, which is what makes every alternating sum
here finite.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from .cartan import (CartanData, WeylElement, _exact_quotient, cartan_data,
                     element, reduce_to_alcove, simple_reflections,
                     translation_lattice_box, weyl_enumerate)
from .crystal import (FactorDescriptor, TensorWord, enumerate_paths,
                      letters_word, reflection_s, shape_elements,
                      string_stats, tensor_arrow, word_weight)
from .energy import coenergy_D
from .errors import (CapExceeded, CrystalSumsError, InvolutionError,
                     UnsupportedError)
from .partitions import (conjugate, horizontal_strip_extensions, part,
                         superpartitions)
from .qpoly import ONE, QLaurent, ZERO, q_power, qbinomial, qmultinomial

Shape = tuple[FactorDescriptor, ...]


def _qbin_from_top(top: int, bottom: int) -> QLaurent:
    # binomial given its total: a box of width top-bottom and height bottom
    return qbinomial(top - bottom, bottom)


def _chain_sum(n: int, mu: tuple[int, ...], lam: tuple[int, ...], step,
               term) -> QLaurent:
    """Sum of term(chain) over the chains () = nu^(0), nu^(1), ...,
    nu^(n+1) = mu^t in which nu^(a) is one of step(nu^(a-1), lam_a, mu^t)."""
    if len(lam) != n + 1 or any(x < 0 for x in lam) or sum(lam) != sum(mu):
        return ZERO
    target = conjugate(tuple(sorted(mu, reverse=True)))
    chains = [((),)]
    for x in lam:
        chains = [c + (nxt,) for c in chains for nxt in step(c[-1], x, target)]
    out = ZERO
    for c in chains:
        if c[-1] == target:
            out = out + term(c)
    return out


def supernomial_A_columns(n: int, mu: tuple[int, ...],
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
                out = out * _qbin_from_top(top, bot)
                if out.is_zero():
                    return out
        return out

    return _chain_sum(n, mu, lam, horizontal_strip_extensions, term)


def supernomial_A_rows(n: int, mu: tuple[int, ...],
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
                out = out * _qbin_from_top(top, bot)
                if out.is_zero():
                    return out
                phi += part(nu[a], i + 1) * (part(nu[a + 1], i) - part(nu[a], i))
        return out.shift(phi)

    return _chain_sum(n, mu, lam, superpartitions, term)


def supernomial_C_boxes(n: int, boxes: int, lam: tuple[int, ...]) -> QLaurent:
    """Type C supernomial for (B^{1,1})^{(x) boxes}: pick the forced letters
    of the weight, then pair up the rest barred/unbarred."""
    if len(lam) != n:
        return ZERO
    norm = sum(abs(x) for x in lam)
    spare = boxes - norm
    if spare < 0 or spare % 2:
        return ZERO
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

_SUPER_CACHE: dict[tuple, QLaurent] = {}


def supernomial(shape: Shape, weight: tuple[int, ...]) -> QLaurent:
    """S-bar(B, weight) for any supported shape; zero off the achievable
    content set.  The cheap part of that test runs before the cache key is
    built, so those zeros are neither keyed nor cached: a negative type A
    content; for type A columns, a content that no 0-1 matrix with the
    column heights as row sums reaches (Gale-Ryser: sorted in decreasing
    order, its partial sums must stay within those of the conjugate of the
    heights, as a column holds each letter at most once); a type C weight
    whose L1 norm exceeds the boxes or differs from them in parity.

    The unrestricted sum is invariant under the finite Weyl group: s_i
    stays inside each classical component, where the energy is constant.
    So the cache is keyed by, and the closed form evaluated at, the
    dominant representative of the weight's orbit: the content sorted in
    decreasing order (type A), or the sorted absolute values (type C)."""
    type_c = bool(shape) and shape[0].kind == "C"
    dominant = tuple(sorted(map(abs, weight) if type_c else weight,
                            reverse=True))
    columns = all(d.s == 1 for d in shape)
    if type_c:
        norm = sum(dominant)
        if norm > len(shape) or (len(shape) - norm) % 2:
            return ZERO
    elif columns or all(d.r == 1 for d in shape):  # a mixed shape raises below
        if min(dominant, default=0) < 0:
            return ZERO
        if columns:
            heights = conjugate(tuple(sorted((d.r for d in shape),
                                             reverse=True)))
            reach = accumulate(part(heights, i)
                               for i in range(1, len(weight) + 1))
            if any(a > b for a, b in zip(accumulate(dominant), reach)):
                return ZERO
    key = (tuple(sorted((d.r, d.s) for d in shape)),
           shape[0].kind if shape else "A",
           shape[0].n if shape else 0, dominant)
    hit = _SUPER_CACHE.get(key)
    if hit is not None:
        return hit
    out = _supernomial_uncached(shape, dominant)
    _SUPER_CACHE[key] = out
    return out


def _supernomial_uncached(shape: Shape, weight: tuple[int, ...]) -> QLaurent:
    if not shape:
        return q_power(0) if all(x == 0 for x in weight) else ZERO
    kind, n = shape[0].kind, shape[0].n
    if kind == "C":
        return supernomial_C_boxes(n, len(shape), tuple(weight))
    if all(d.s == 1 for d in shape):
        mu = tuple(sorted((d.r for d in shape), reverse=True))
        return supernomial_A_columns(n, mu, tuple(weight))
    if all(d.r == 1 for d in shape):
        mu = tuple(sorted((d.s for d in shape), reverse=True))
        return supernomial_A_rows(n, mu, tuple(weight))
    raise UnsupportedError(
        "no supernomial closed form for mixed row and column shapes")


# ---------------------------------------------------------------------------
# alternating sums

def _rho_shifted(data: CartanData, w: WeylElement,
                 v: tuple[int, ...]) -> tuple[int, ...]:
    """w(v) - rho, for v a rho-shifted weight."""
    return tuple(a - r for a, r in zip(w.apply(v), data.rho))


def _orbit_meets_support(data: CartanData, v: tuple[int, ...],
                         boxes: int) -> bool:
    """Can w(v) - rho pass supernomial's support test for some w in W?

    Type A: a content is nonnegative, and some permutation of v dominates
    rho coordinatewise iff v sorted in decreasing order does.  Type C: the
    least L1 distance from rho to a signed permutation of v is reached by
    making every coordinate positive and matching both in decreasing order
    (rho is positive and decreasing); it must not exceed the boxes."""
    if data.kind == "A":
        return all(x >= r for x, r in zip(sorted(v, reverse=True), data.rho))
    return sum(abs(x - r) for x, r in zip(
        sorted((abs(x) for x in v), reverse=True), data.rho)) <= boxes


def bosonic_classical(shape: Shape, lam: tuple[int, ...]) -> QLaurent:
    """X-bar(B, Lambda) as the signed Weyl sum of supernomials."""
    kind, n = shape[0].kind, shape[0].n
    data = cartan_data(kind, n)
    lam_rho = tuple(l + r for l, r in zip(lam, data.rho))
    out = ZERO
    for w in weyl_enumerate(data):
        s = supernomial(shape, _rho_shifted(data, w, lam_rho))
        if not s.is_zero():
            out = out + s if w.sign > 0 else out - s
    return out


def bosonic_level(shape: Shape, lam: tuple[int, ...], level: int) -> QLaurent:
    """X-bar^level(B, Lambda): the double sum over the finite Weyl group and
    the translation lattice window.

    A translation beta whose rho-shifted weight v = lam + rho - c beta has
    no Weyl image in the supernomial support (``_orbit_meets_support``)
    contributes exactly zero and is skipped before its Weyl loop; the
    window and its outer-ring check are unchanged.  A weight whose level
    (lam|theta) exceeds the level raises, as in ``level_restricted``: the
    alternating sum there is not a sum over paths."""
    if any(d.s > level for d in shape):
        raise UnsupportedError("factor wider than the level")
    kind, n = shape[0].kind, shape[0].n
    data = cartan_data(kind, n)
    weight_level = data.theta_pairing(lam)
    if weight_level > level:
        raise CrystalSumsError(f"weight level {weight_level} exceeds {level}")
    c = level + data.h_dual
    total = sum(d.boxes for d in shape)
    coordinate_bound = total + data.dim + max(
        abs(l + r) for l, r in zip(tuple(lam) + (0,) * data.dim, data.rho))
    box = translation_lattice_box(data, level, coordinate_bound)
    outermost = max(max(abs(x) for x in beta) for beta in box)
    lam_rho = tuple(l + r for l, r in zip(lam, data.rho))
    elements = weyl_enumerate(data)

    out = ZERO
    ring_contribution = ZERO
    for beta in box:
        v = tuple(a - c * x for a, x in zip(lam_rho, beta))
        # supernomial counts type C boxes as factors
        if not _orbit_meets_support(data, v, len(shape)):
            continue
        # a0/2 (beta|beta) c - a0 (lam+rho|beta), over the integer form
        expo = _exact_quotient(
            data.a0 * (c * data.form(beta, beta)
                       - 2 * data.form(lam_rho, beta)),
            4, f"level prefactor at beta={beta}")
        beta_term = ZERO
        for w in elements:
            s = supernomial(shape, _rho_shifted(data, w, v))
            if not s.is_zero():
                beta_term = beta_term + s if w.sign > 0 else beta_term - s
        contrib = beta_term.shift(expo)
        out = out + contrib
        if max(abs(x) for x in beta) == outermost:
            ring_contribution = ring_contribution + contrib
    if not ring_contribution.is_zero():
        raise CapExceeded(
            "translation lattice window too small: outer ring contributes")
    return out


# ---------------------------------------------------------------------------
# the sign-reversing involution

@dataclass
class InvolutionReport:
    mode: str
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


def _select_color(w: TensorWord, level: int | None) -> int | None:
    """The pairing color: scan suffixes of the letter expansion for the
    first color whose string condition fires (a positive classical string,
    or in level mode an affine string longer than the level).

    At the first firing suffix the color is automatically unique: the
    affine condition can only jump when the new letter is a 1, which
    carries no classical string.
    """
    letters = w.flatten()
    kind, n = w.kind, w.n
    for k in range(1, len(letters) + 1):
        suffix = letters_word(kind, n, letters[-k:])
        hits = [i for i in range(1, n + 1) if string_stats(suffix, i)[0] > 0]
        if level is not None and string_stats(suffix, 0)[0] > level:
            hits.append(0)
        if hits:
            if len(hits) > 1:
                raise InvolutionError(
                    f"pairing color not unique at {suffix}: {hits}")
            return hits[0]
    return None


def _phi_move(w: TensorWord, i: int, level: int | None) -> TensorWord:
    if i == 0:  # selected only in level mode
        b = w
        for _ in range(level + 1):
            b = tensor_arrow(b, 0, "e")
            if b is None:
                raise InvolutionError("e_0 string shorter than level + 1")
        return reflection_s(b, 0)
    b = tensor_arrow(w, i, "e")
    if b is None:
        raise InvolutionError(f"e_{i} empty on a word selected for color {i}")
    return reflection_s(b, i)


def _pair_set(shape: Shape, lam: tuple[int, ...], level: int | None):
    """The signed set S of pairs (w, b) with w(wt(b) + rho) = lam + rho,
    w in the finite Weyl group (no level) or the affine one at the level.
    lam + rho is regular, so each b has at most one w: the one its walk
    into the chamber or alcove finds, when the walk ends at lam + rho."""
    data = cartan_data(shape[0].kind, shape[0].n)
    target = tuple(l + r for l, r in zip(lam, data.rho))
    pairs = []
    for b in shape_elements(shape):
        v = tuple(x + r for x, r in zip(word_weight(b), data.rho))
        reached, word = reduce_to_alcove(data, v, level)
        if reached == target:
            w = element(data, word, level)
            if w.apply(v) != target:
                raise InvolutionError(
                    f"walk element does not map {v} to {target}")
            pairs.append((w, b))
    return data, pairs


def involution_phi(shape: Shape, lam: tuple[int, ...], mode: str = "classical",
                   level: int | None = None) -> InvolutionReport:
    """Build the signed pair set S, apply the involution, and report its
    structure.  Property failures are findings, not exceptions, except for
    a pairing color that stops being well defined."""
    if mode not in ("classical", "level"):
        raise ValueError(f"unknown mode {mode!r}")
    lv = None
    if mode == "level":
        if level is None:
            raise ValueError("level mode needs a level")
        if any((d.r, d.s) != (1, 1) for d in shape):
            # the suffix scan reads affine strings letterwise, which only
            # matches the crystal for single-box factors
            raise UnsupportedError(
                "the level involution supports single-box factors only")
        lv = level
    data, pairs = _pair_set(shape, lam, lv)
    gens = simple_reflections(data, lv)
    identity = element(data, ())

    findings: list[str] = []
    expected_fixed = set(enumerate_paths(shape, lam, mode, lv))

    def apply_phi(w, b):
        i = _select_color(b, lv)
        if i is None:
            if w != identity:
                raise InvolutionError(
                    f"pairing color undefined on non fixed point ({b})")
            return None  # fixed
        return (w.compose(gens[i]), _phi_move(b, i, lv))

    members = set(pairs)
    fixed = []
    images = {}
    for w, b in pairs:
        out = apply_phi(w, b)
        if out is None:
            fixed.append((w, b))
        else:
            images[(w, b)] = out

    involution_ok = True
    sign_ok = True
    stat_ok: bool | None = None
    if mode == "classical" and shape[0].kind == "A":
        stat_ok = True
    for (w1, b1), (w2, b2) in images.items():
        if (w2, b2) not in members:
            findings.append(f"image {b2} left the pair set")
            involution_ok = False
            continue
        if apply_phi(w2, b2) != (w1, b1):
            involution_ok = False
            findings.append(f"not an involution at {b2}")
        if w1.sign * w2.sign != -1:
            sign_ok = False
        if stat_ok is not None and coenergy_D(b1) != coenergy_D(b2):
            stat_ok = False
    fixed_set = {b for _, b in fixed}
    fixed_ok = (fixed_set == expected_fixed
                and all(w == identity for w, _ in fixed))
    return InvolutionReport(mode, len(pairs), len(fixed), fixed_ok,
                            involution_ok, sign_ok, stat_ok, findings)
