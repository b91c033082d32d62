"""The hard-hexagon path model and Rogers-Ramanujan style checks.

Paths are 0/1 height sequences sigma_0..sigma_L with no two adjacent 1's
and sigma_L = 0; the unprimed family starts at 0, the primed one at 1.
Their energy-graded counting polynomial X(L) has four independent
evaluations (enumeration, recurrence, fermionic sum, bosonic alternating
sum) which must coincide.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from .errors import CapExceeded, ShapeSyntaxError, UnsupportedError
# The q-binomial sums below step their own rows and never call qbinomial;
# the name stays bound because perfbench/selftest.py checks that its
# tracer rebinds this alias.
from .qpoly import (QLaurent, _add_at, _binomial_step, _dense,  # noqa: F401
                    _div_one_minus_q, qbinomial)

ENUMERATE_CAP = 24
SERIES_CAP = 200


def _path_energies(L: int, primed: bool) -> list[int]:
    """The number of paths of D_L (or D'_L) at each energy 0 .. floor(L^2 / 4).

    A depth-first walk grows paths left to right on an explicit stack.  An
    entry (i, energy) is a path whose particles so far are placed and whose
    next particle, if any, may sit at i..L-1.  Popping it pushes, for each
    such position p, the path with its next particle at p (the one after
    may sit at p + 2 or later), then counts the path with no more particles.
    """
    counts = [0] * (L * L // 4 + 1)
    if primed and L == 0:
        return counts  # sigma_0 = 1 and sigma_L = 0 conflict
    stack = [(2 if primed else 1, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        i, energy = pop()
        while i < L:
            push((i + 2, energy + i))
            i += 1
        counts[energy] += 1
    return counts


def _x_recurrence(L: int, primed: bool) -> tuple[list, list]:
    """The coefficient lists of X(L - 1) and X(L), by X(m) = X(m - 1) +
    q^(m-1) X(m - 2) from X(-1) = 0, X(0) = 1, or X'(-1) = 1, X'(0) = 0
    when primed (these give X(1) = X'(1) = 1)."""
    prev, cur = ([1], []) if primed else ([], [1])
    for m in range(1, L + 1):
        prev, cur = cur, _add_at(cur[:], m - 1, prev, add)
    return prev, cur


def _x_fermionic(L: int, primed: bool) -> QLaurent:
    """Sum over n of q^(n^2) [N - n; n] (N = L), or of q^(n(n+1)) [N - n; n]
    (N = L - 1) when primed.  One walk steps [A; n] -> [A - 1; n] -> [A - 1;
    n + 1], A = N - n, on one coefficient list: two multiplications and
    two exact divisions per term."""
    N = L - 1 if primed else L
    out: list[int] = []
    row = [1]  # [N; 0]
    for n in range(N // 2 + 1):
        if n:
            A = N - n + 1  # the previous row is [A; n - 1]
            _binomial_step(row, A - n + 1, A)
            _binomial_step(row, A - n, n)
        _add_at(out, n * (n + 1 if primed else n), row, add)
    return _dense(0, out)


def _x_bosonic(L: int, primed: bool) -> QLaurent:
    """The alternating sum over j of q^(j(5j+1)/2) [L; k], k = floor((L -
    5j)/2), or of q^(j(5j+3)/2) [L; k], k = floor((L - 5j - 1)/2), when
    primed.  [L; k] = [L; L - k], so one walk [L; k - 1] -> [L; k] up to
    k = L/2 on one coefficient list gives every term.  The j-window
    holds every j with 0 <= k <= L: at j = lo, k >= L + 4, and at j = hi,
    k <= -3.  Every exponent is at least 0."""
    lo, hi = -(L + 5) // 5 - 1, (L + 5) // 5 + 1
    terms: dict[int, list[tuple[int, int]]] = {}  # k -> (exponent, j odd)
    for j in range(lo, hi + 1):
        k = (L - 5 * j - primed) // 2
        if not 0 <= k <= L:
            continue  # [L; k] is zero
        # j(5j+1) and j(5j+3) are always even
        expo = j * (5 * j + (3 if primed else 1)) // 2
        terms.setdefault(min(k, L - k), []).append((expo, j % 2))
    out: list[int] = []
    row = [1]  # [L; 0]
    for k in range(max(terms, default=-1) + 1):
        if k:
            _binomial_step(row, L - k + 1, k)
        for expo, odd in terms.get(k, ()):
            _add_at(out, expo, row, sub if odd else add)
    return _dense(0, out)


def hh_X(L: int, method: str = "recurrence", primed: bool = False) -> QLaurent:
    """The configuration sum X(L) (or X'(L)) by the chosen method.  A
    negative L raises ShapeSyntaxError and an unknown method
    UnsupportedError, as ``cli.compute_sum`` does for a sum."""
    if L < 0:
        raise ShapeSyntaxError(f"L = {L} is negative")
    if method == "enumerate":
        if L > ENUMERATE_CAP:
            raise CapExceeded(f"enumeration capped at L = {ENUMERATE_CAP}")
        return _dense(0, _path_energies(L, primed))
    if method == "recurrence":
        return _dense(0, _x_recurrence(L, primed)[1])
    if method == "fermionic":
        return _x_fermionic(L, primed)
    if method == "bosonic":
        return _x_bosonic(L, primed)
    raise UnsupportedError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# series limits

# Every series is a QLaurent holding its terms through q^cutoff.  Each is
# built on one coefficient list of cutoff + 1 entries, divided in place.

def _fermionic_series(which: int, cutoff: int) -> QLaurent:
    """The sum over n of q^(n^2) / (q)_n (identity 1) or q^(n(n+1)) /
    (q)_n (identity 2) through q^cutoff: 1/(q)_n is one list, divided by
    (1 - q^n) in place and cut to the entries that reach q^cutoff."""
    out = [0] * (cutoff + 1)
    inv_pochhammer = [1] + [0] * cutoff  # 1/(q)_n, grown as n does
    n = 0
    while True:
        expo = n * n if which == 1 else n * (n + 1)
        if expo > cutoff:
            break
        if n > 0:
            del inv_pochhammer[cutoff - expo + 1:]
            _div_one_minus_q(inv_pochhammer, n, exact=False)
        _add_at(out, expo, inv_pochhammer, add)
        n += 1
    return _dense(0, out)


def product_series(which: int, cutoff: int) -> QLaurent:
    """1 / prod (1 - q^k) through q^cutoff, over k = +-1 mod 5 (identity
    1) or k = +-2 mod 5 (identity 2)."""
    residues = (1, 4) if which == 1 else (2, 3)
    out = [1] + [0] * cutoff
    for k in range(1, cutoff + 1):
        if k % 5 in residues:
            _div_one_minus_q(out, k, exact=False)
    return _dense(0, out)


def _alternating_series(which: int, cutoff: int) -> QLaurent:
    """The sum over j of (-1)^j q^(j(5j+1)/2) (identity 1) or q^(j(5j+3)/2)
    (identity 2), divided by (q)_cutoff, through q^cutoff."""
    out = [0] * (cutoff + 1)
    j = 0
    while True:
        done = True
        for jj in (j, -j) if j else (0,):
            e = jj * (5 * jj + (1 if which == 1 else 3)) // 2
            if 0 <= e <= cutoff:
                out[e] = 1 if jj % 2 == 0 else -1
                done = False
        if done and j > 0:
            break
        j += 1
    for k in range(1, cutoff + 1):
        _div_one_minus_q(out, k, exact=False)
    return _dense(0, out)


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
    prev, cur = _x_recurrence(L + 1, primed)
    xa, xb = _dense(0, prev), _dense(0, cur)  # X(L), X(L + 1)
    stable = 0
    while stable <= cutoff and xa.coeff(stable) == xb.coeff(stable):
        stable += 1
    stable -= 1
    upto = min(stable, cutoff)
    limit_ok = xa.truncate(upto) == fer.truncate(upto)
    return SeriesReport(which, cutoff, fer == prod, fer == alt, limit_ok,
                        stable)
