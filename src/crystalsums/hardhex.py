"""The hard-hexagon path model and Rogers-Ramanujan style checks.

Paths are 0/1 height sequences sigma_0..sigma_L with no two adjacent 1's
and sigma_L = 0; the unprimed family starts at 0, the primed one at 1.
Their energy-graded counting polynomial X(L) has four independent
evaluations (enumeration, recurrence, fermionic sum, bosonic alternating
sum) which must coincide, and an equivalent formulation as walks in a
strip of height four.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CapExceeded, UnsupportedError
# The q-binomial sums below step their own rows and never call qbinomial;
# the name stays bound because perfbench/selftest.py checks that its
# tracer rebinds this alias.
from .qpoly import ONE, QLaurent, ZERO, _binomial_step, qbinomial  # noqa: F401

ENUMERATE_CAP = 24
SERIES_CAP = 200
STRIP_CAP = 20


def hh_paths(L: int, primed: bool = False):
    """Yield all height sequences in D_L (or D'_L)."""
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


def _path_energies(L: int, primed: bool):
    """Yield the energy of every path of D_L (or D'_L), one per path.

    A depth-first walk grows paths left to right on an explicit stack.  An
    entry (i, energy) is a path whose particles so far are placed and whose
    next particle, if any, may sit at i..L-1.  Popping it pushes, for each
    such position p, the path with its next particle at p (the one after
    may sit at p + 2 or later), then yields the path with no more particles.
    """
    if primed and L == 0:
        return  # sigma_0 = 1 and sigma_L = 0 conflict
    stack = [(2 if primed else 1, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        i, energy = pop()
        while i < L:
            push((i + 2, energy + i))
            i += 1
        yield energy


def _x_recurrence(L: int, primed: bool) -> QLaurent:
    # X(L) = X(L-1) + q^{L-1} X(L-2); primed only changes the initials
    prev, cur = (ZERO, ONE) if primed else (ONE, ONE)  # X(0), X(1)
    if L == 0:
        return prev
    for m in range(2, L + 1):
        prev, cur = cur, cur + prev.shift(m - 1)
    return cur


def _x_fermionic(L: int, primed: bool) -> QLaurent:
    """Sum over n of q^(n^2) [N - n; n] (N = L), or of q^(n(n+1)) [N - n; n]
    (N = L - 1) when primed.  One walk steps [A; n] -> [A - 1; n] -> [A - 1;
    n + 1], A = N - n, on one coefficient list: two multiplications and
    two exact divisions per term."""
    N = L - 1 if primed else L
    out = ZERO
    row = [1]  # [N; 0]
    for n in range(N // 2 + 1):
        if n:
            A = N - n + 1  # the previous row is [A; n - 1]
            _binomial_step(row, A - n + 1, A)
            _binomial_step(row, A - n, n)
        out = out + QLaurent(n * (n + 1 if primed else n), tuple(row))
    return out


def _x_bosonic(L: int, primed: bool) -> QLaurent:
    """The alternating sum over j of q^(j(5j+1)/2) [L; k], k = floor((L -
    5j)/2), or of q^(j(5j+3)/2) [L; k], k = floor((L - 5j - 1)/2), when
    primed.  [L; k] = [L; L - k], so one walk [L; k - 1] -> [L; k] up to
    k = L/2 on one coefficient list gives every term.  The j-window
    carries a guard ring at each end, whose terms must vanish."""
    lo, hi = -(L + 5) // 5 - 1, (L + 5) // 5 + 1
    terms: dict[int, list[tuple[int, int]]] = {}  # k -> (exponent, j odd)
    for j in range(lo, hi + 1):
        k = (L - 5 * j - primed) // 2
        if not 0 <= k <= L:
            continue  # [L; k] is zero
        if j in (lo, hi):
            raise CapExceeded("guard ring of the j-truncation is nonzero")
        # j(5j+1) and j(5j+3) are always even
        expo = j * (5 * j + (3 if primed else 1)) // 2
        terms.setdefault(min(k, L - k), []).append((expo, j % 2))
    out = ZERO
    row = [1]  # [L; 0]
    for k in range(max(terms, default=-1) + 1):
        if k:
            _binomial_step(row, L - k + 1, k)
        for expo, odd in terms.get(k, ()):
            term = QLaurent(expo, tuple(row))
            out = out - term if odd else out + term
    return out


def hh_X(L: int, method: str = "recurrence", primed: bool = False) -> QLaurent:
    """The configuration sum X(L) (or X'(L)) by the chosen method."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    if method == "enumerate":
        if L > ENUMERATE_CAP:
            raise CapExceeded(f"enumeration capped at L = {ENUMERATE_CAP}")
        return QLaurent.from_exponents(_path_energies(L, primed))
    if method == "recurrence":
        return _x_recurrence(L, primed)
    if method == "fermionic":
        return _x_fermionic(L, primed)
    if method == "bosonic":
        return _x_bosonic(L, primed)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# strip reformulation

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


# ---------------------------------------------------------------------------
# series limits

# Every series is a QLaurent holding its terms through q^cutoff.

def _fermionic_series(which: int, cutoff: int) -> QLaurent:
    out = ZERO
    inv_pochhammer = ONE  # 1/(q)_n, grown as n does
    n = 0
    while True:
        expo = n * n if which == 1 else n * (n + 1)
        if expo > cutoff:
            break
        if n > 0:
            inv_pochhammer = inv_pochhammer.div_one_minus_q(n, cutoff - expo)
        out = out + inv_pochhammer.shift(expo)
        n += 1
    return out


def product_series(which: int, cutoff: int) -> QLaurent:
    """1 / prod (1 - q^k) through q^cutoff, over k = +-1 mod 5 (identity
    1) or k = +-2 mod 5 (identity 2)."""
    residues = (1, 4) if which == 1 else (2, 3)
    out = ONE
    for k in range(1, cutoff + 1):
        if k % 5 in residues:
            out = out.div_one_minus_q(k, cutoff)
    return out


def _alternating_series(which: int, cutoff: int) -> QLaurent:
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
        out = out.div_one_minus_q(k, cutoff)
    return out


@dataclass
class SeriesReport:
    which: int
    cutoff: int
    fermionic_eq_product: bool
    fermionic_eq_alternating: bool
    finite_limit_ok: bool
    stable_prefix: int

    @property
    def passed(self) -> bool:
        return (self.fermionic_eq_product and self.fermionic_eq_alternating
                and self.finite_limit_ok)


def rr_series_check(which: int, cutoff: int) -> SeriesReport:
    """Compare the fermionic sum, the modular product, and the alternating
    sum of identity 1 or 2 through q^cutoff, and check the finite
    polynomials converge to the same series."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if cutoff > SERIES_CAP:
        raise CapExceeded(f"series cutoff capped at {SERIES_CAP}")
    fer = _fermionic_series(which, cutoff)
    prod = product_series(which, cutoff)
    alt = _alternating_series(which, cutoff)

    primed = which == 2
    L = min(40, 2 * cutoff + 2)
    xa = hh_X(L, "recurrence", primed)
    xb = hh_X(L + 1, "recurrence", primed)
    stable = 0
    while stable <= cutoff and xa.coeff(stable) == xb.coeff(stable):
        stable += 1
    stable -= 1
    upto = min(stable, cutoff)
    limit_ok = xa.truncate(upto) == fer.truncate(upto)
    return SeriesReport(which, cutoff, fer == prod, fer == alt, limit_ok,
                        stable)
