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
from .qpoly import (_PACKED, QLaurent, _dense, _packed_div,  # noqa: F401
                    _unpack, _walk_kernel, qbinomial)

ENUMERATE_CAP = 24
SERIES_CAP = 200
POLYNOMIAL_CAP = 400


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


# The three polynomial evaluators walk on the kernel that qpoly's one
# choice, ``_walk_kernel``, gives their caller, and return its polynomials.

def _x_recurrence(L: int, primed: bool, kernel) -> tuple:
    """X(L - 1) and X(L), by X(m) = X(m - 1) + q^(m-1) X(m - 2) from X(-1)
    = 0, X(0) = 1, or X'(-1) = 1, X'(0) = 0 when primed (these give X(1) =
    X'(1) = 1)."""
    prev, cur = kernel.new([]), kernel.new([1])
    if primed:
        prev, cur = cur, prev
    for m in range(1, L + 1):
        prev, cur = cur, kernel.add_at(kernel.copy(cur), m - 1, prev, add)
    return prev, cur


def _x_fermionic(L: int, primed: bool, kernel):
    """Sum over n of q^(n^2) [N - n; n] (N = L), or of q^(n(n+1)) [N - n; n]
    (N = L - 1) when primed.  One walk steps [A; n] -> [A - 1; n] -> [A - 1;
    n + 1], A = N - n, on one polynomial: two multiplications and two exact
    divisions per term."""
    N = L - 1 if primed else L
    out, row = kernel.new([]), kernel.new([1])  # row: [N; 0]
    for n in range(N // 2 + 1):
        if n:
            A = N - n + 1  # the previous row is [A; n - 1]
            row = kernel.step(row, A - n + 1, A)
            row = kernel.step(row, A - n, n)
        out = kernel.add_at(out, n * (n + 1 if primed else n), row, add)
    return out


def _x_bosonic(L: int, primed: bool, kernel):
    """The alternating sum over j of q^(j(5j+1)/2) [L; k], k = floor((L -
    5j)/2), or of q^(j(5j+3)/2) [L; k], k = floor((L - 5j - 1)/2), when
    primed.  [L; k] = [L; L - k], so one walk [L; k - 1] -> [L; k] up to
    k = L/2 on one polynomial gives every term.  The j-window
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
    out, row = kernel.new([]), kernel.new([1])  # row: [L; 0]
    for k in range(max(terms, default=-1) + 1):
        if k:
            row = kernel.step(row, L - k + 1, k)
        for expo, odd in terms.get(k, ()):
            out = kernel.add_at(out, expo, row, sub if odd else add)
    return out


def hh_X(L: int, method: str = "recurrence", primed: bool = False) -> QLaurent:
    """The configuration sum X(L) (or X'(L)) by the chosen method.  A
    negative L raises ShapeSyntaxError and an unknown method
    UnsupportedError, as ``cli.compute_sum`` does for a sum; an L above
    the method's cap raises CapExceeded before any work."""
    if L < 0:
        raise ShapeSyntaxError(f"L = {L} is negative")
    if method == "enumerate":
        if L > ENUMERATE_CAP:
            raise CapExceeded(f"enumeration capped at L = {ENUMERATE_CAP}")
        return _dense(0, _path_energies(L, primed))
    if method not in ("recurrence", "fermionic", "bosonic"):
        raise UnsupportedError(f"unknown method {method!r}")
    if L > POLYNOMIAL_CAP:
        raise CapExceeded(f"X(L) capped at L = {POLYNOMIAL_CAP}")
    # every coefficient is at most its value at q = 1: C(A, n) <= 2^L for
    # a row [A; n], A <= L, and the path count X(L)(1) <= 2^L
    kernel = _walk_kernel(2 ** L)
    if method == "recurrence":
        return kernel.poly(_x_recurrence(L, primed, kernel)[1])
    walk = _x_fermionic if method == "fermionic" else _x_bosonic
    return kernel.poly(walk(L, primed, kernel))


# ---------------------------------------------------------------------------
# series limits

# Every series is a QLaurent holding its terms through q^cutoff.  Each is
# built on one packed polynomial, divided modulo q^(cutoff + 1): SERIES_CAP
# keeps every coefficient of the three series, which is at most the number
# of partitions of its exponent, within a signed word (p(200) < 2^42).

def _fermionic_series(which: int, cutoff: int) -> QLaurent:
    """The sum over n of q^(n^2) / (q)_n (identity 1) or q^(n(n+1)) /
    (q)_n (identity 2) through q^cutoff: 1/(q)_n is one polynomial, divided
    by (1 - q^n) modulo the terms that reach q^cutoff."""
    out, inv_pochhammer = _PACKED.new([]), _PACKED.new([1])  # 1/(q)_n
    n = 0
    while True:
        expo = n * n if which == 1 else n * (n + 1)
        if expo > cutoff:
            break
        if n > 0:
            inv_pochhammer = _packed_div(inv_pochhammer, n, cutoff - expo + 1)
        out = _PACKED.add_at(out, expo, inv_pochhammer, add)
        n += 1
    return _dense(0, _unpack(out, cutoff + 1))


def product_series(which: int, cutoff: int) -> QLaurent:
    """1 / prod (1 - q^k) through q^cutoff, over k = +-1 mod 5 (identity
    1) or k = +-2 mod 5 (identity 2).  A negative cutoff raises
    ShapeSyntaxError, an identity other than 1 or 2 UnsupportedError, and
    a cutoff above SERIES_CAP CapExceeded."""
    if cutoff < 0:
        raise ShapeSyntaxError(f"series cutoff {cutoff} is negative")
    if which not in (1, 2):
        raise UnsupportedError(f"no Rogers-Ramanujan identity {which!r}")
    if cutoff > SERIES_CAP:
        raise CapExceeded(f"series cutoff capped at {SERIES_CAP}")
    residues = (1, 4) if which == 1 else (2, 3)
    out = _PACKED.new([1])
    for k in range(1, cutoff + 1):
        if k % 5 in residues:
            out = _packed_div(out, k, cutoff + 1)
    return _dense(0, _unpack(out, cutoff + 1))


def _alternating_series(which: int, cutoff: int) -> QLaurent:
    """The sum over j of (-1)^j q^(j(5j+1)/2) (identity 1) or q^(j(5j+3)/2)
    (identity 2), divided by (q)_cutoff, through q^cutoff."""
    signs = [0] * (cutoff + 1)
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
    out = _PACKED.new(signs)
    for k in range(1, cutoff + 1):
        out = _packed_div(out, k, cutoff + 1)
    return _dense(0, _unpack(out, cutoff + 1))


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
    polynomials converge to the same series.  Its input is checked by
    ``product_series``, which it calls first."""
    prod = product_series(which, cutoff)
    fer = _fermionic_series(which, cutoff)
    alt = _alternating_series(which, cutoff)

    primed = which == 2
    L = min(40, 2 * cutoff + 2)
    kernel = _walk_kernel(2 ** (L + 1))  # as in hh_X
    prev, cur = _x_recurrence(L + 1, primed, kernel)
    xa, xb = kernel.poly(prev), kernel.poly(cur)  # X(L), X(L + 1)
    stable = 0
    while stable <= cutoff and xa.coeff(stable) == xb.coeff(stable):
        stable += 1
    stable -= 1
    upto = min(stable, cutoff)
    limit_ok = xa.truncate(upto) == fer.truncate(upto)
    return SeriesReport(which, cutoff, fer == prod, fer == alt, limit_ok,
                        stable)
