"""The hard-hexagon path model and Rogers-Ramanujan style checks.

Paths are 0/1 height sequences sigma_0..sigma_L with no two adjacent 1's
and sigma_L = 0; the unprimed family starts at 0, the primed one at 1.
Their energy-graded counting polynomial X(L) has four independent
evaluations (enumeration, recurrence, fermionic sum, bosonic alternating
sum) which must coincide.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, ShapeSyntaxError, UnsupportedError
# The q-binomial sums below step their own rows and never call qbinomial;
# the name stays bound because perfbench/selftest.py checks that its
# tracer rebinds this alias.
from .qpoly import ONE, QLaurent, ZERO, _binomial_step, qbinomial  # noqa: F401

ENUMERATE_CAP = 24
SERIES_CAP = 200


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
    holds every j with 0 <= k <= L: at j = lo, k >= L + 4, and at j = hi,
    k <= -3."""
    lo, hi = -(L + 5) // 5 - 1, (L + 5) // 5 + 1
    terms: dict[int, list[tuple[int, int]]] = {}  # k -> (exponent, j odd)
    for j in range(lo, hi + 1):
        k = (L - 5 * j - primed) // 2
        if not 0 <= k <= L:
            continue  # [L; k] is zero
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
    """The configuration sum X(L) (or X'(L)) by the chosen method.  A
    negative L raises ShapeSyntaxError and an unknown method
    UnsupportedError, as ``cli.compute_sum`` does for a sum."""
    if L < 0:
        raise ShapeSyntaxError(f"L = {L} is negative")
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
    raise UnsupportedError(f"unknown method {method!r}")


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
    polynomials converge to the same series.  A negative cutoff raises
    ShapeSyntaxError and an identity other than 1 or 2 UnsupportedError."""
    if cutoff < 0:
        raise ShapeSyntaxError(f"series cutoff {cutoff} is negative")
    if which not in (1, 2):
        raise UnsupportedError(f"no Rogers-Ramanujan identity {which!r}")
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
