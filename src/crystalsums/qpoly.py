"""Exact Laurent polynomials in q over arbitrary-precision integers.

Every generating function in the package is a ``QLaurent``, and so is
every power series: a series is kept exactly through a cutoff exponent.
Division by (1 - q^k) is the one division there is; it gives the
q-binomials exactly and the series reciprocals of products through a
cutoff.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import add, sub
from typing import Iterable, Mapping

from .errors import InexactDivision

QBINOMIAL_CACHE = 2048  # q-binomials kept by qbinomial, least recently used


@dataclass(frozen=True)
class QLaurent:
    """A Laurent polynomial in q with integer coefficients.

    ``coeffs[k]`` is the coefficient of q^(low + k).  Neither end of
    ``coeffs`` is zero, and the zero polynomial is QLaurent(0, ()), so
    equal polynomials are equal instances.  Instances are immutable and
    hashable.
    """

    low: int = 0
    coeffs: tuple[int, ...] = ()

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """The (exponent, coefficient) pairs with nonzero coefficient,
        in increasing exponent."""
        return tuple((e, c) for e, c in enumerate(self.coeffs, self.low) if c)

    @staticmethod
    def from_dict(d: Mapping[int, int]) -> "QLaurent":
        exps = [e for e, c in d.items() if c]
        if not exps:
            return ZERO
        low = min(exps)
        out = [0] * (max(exps) - low + 1)
        for e in exps:
            out[e - low] = d[e]
        return QLaurent(low, tuple(out))

    @staticmethod
    def from_exponents(exponents: Iterable[int]) -> "QLaurent":
        """The sum of q^e over the exponents, counted with multiplicity."""
        return QLaurent.from_dict(Counter(exponents))

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, e: int) -> int:
        k = e - self.low
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return self.low + len(self.coeffs) - 1

    def __add__(self, other: "QLaurent | int") -> "QLaurent":
        other = _coerce(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        return _combine(self, other, add)

    __radd__ = __add__

    def __neg__(self) -> "QLaurent":
        return QLaurent(self.low, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QLaurent | int") -> "QLaurent":
        other = _coerce(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return -other
        return _combine(self, other, sub)

    def __rsub__(self, other: "QLaurent | int") -> "QLaurent":
        return _coerce(other) - self

    def __mul__(self, other: "QLaurent | int") -> "QLaurent":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for j, c in enumerate(b):
            if c:
                end = j + len(a)
                out[j:end] = map(add, out[j:end], [c * x for x in a])
        # the extreme coefficients are products of nonzero integers
        return QLaurent(self.low + other.low, tuple(out))

    __rmul__ = __mul__

    def shift(self, k: int) -> "QLaurent":
        """Multiply by q**k."""
        return QLaurent(self.low + k, self.coeffs) if self.coeffs else ZERO

    def truncate(self, cutoff: int) -> "QLaurent":
        """Drop every term above q**cutoff."""
        return _dense(self.low, self.coeffs[:max(0, cutoff - self.low + 1)])

    def div_one_minus_q(self, k: int, cutoff: int | None = None) -> "QLaurent":
        """Divide by (1 - q**k), k >= 1.

        The quotient r satisfies r_e = p_e + r_(e-k): a running sum along
        each residue class mod k.  Without a cutoff the division must be
        exact, and a nonzero remainder raises InexactDivision.  With one,
        the result is the power-series quotient through q**cutoff.
        """
        if k < 1:
            raise ValueError(f"cannot divide by 1 - q^{k}")
        if cutoff is None:
            return _dense(self.low, _div_one_minus_q(list(self.coeffs), k))
        n = max(0, cutoff - self.low + 1)
        out = list(self.coeffs[:n])
        out.extend([0] * (n - len(out)))
        return _dense(self.low, _div_one_minus_q(out, k, exact=False))

    def to_json(self) -> str:
        """Canonical JSON: [[exponent, coefficient-as-string], ...], one
        pair per nonzero coefficient in increasing exponent, with no
        spaces.  The text is built straight from the coefficient tuple."""
        return "[" + ",".join(f'[{e},"{c}"]' for e, c
                              in enumerate(self.coeffs, self.low) if c) + "]"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.terms:
            mono = "1" if e == 0 else ("q" if e == 1 else f"q^{e}")
            if e == 0:
                piece = str(c)
            elif c == 1:
                piece = mono
            elif c == -1:
                piece = "-" + mono
            else:
                piece = f"{c}*{mono}"
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return out


def _combine(a: QLaurent, b: QLaurent, op) -> QLaurent:
    """a op b coefficientwise, for op add or sub and a, b nonzero."""
    low = min(a.low, b.low)
    out = [0] * (a.low - low)
    out += a.coeffs
    return _dense(low, _add_at(out, b.low - low, b.coeffs, op))


def _add_at(out: list, start: int, coeffs, op) -> list:
    """out[start + k] = out[start + k] op coeffs[k] for every k, for op add
    or sub, in place on a coefficient list, which grows with zeros where
    ``coeffs`` reaches past its end; the list is returned.  Accumulating
    into one list this way builds no polynomial per term."""
    end = start + len(coeffs)
    if end > len(out):
        out.extend([0] * (end - len(out)))
    out[start:end] = map(op, out[start:end], coeffs)
    return out


def _div_one_minus_q(out: list, k: int, exact: bool = True) -> list:
    """The running sums of ``QLaurent.div_one_minus_q``, in place on a
    coefficient list, which is returned.  When exact, the last k sums are
    the remainder: they must vanish, and are dropped.

    r_e = p_e + r_(e-k) can be summed in two orders.  Along each residue
    class mod k, one ``accumulate`` per class, it takes min(k, len - k)
    slice steps; block by block, adding the k sums before each block of k
    entries, it takes ceil(len / k) - 1.  The walk takes the order with
    fewer steps: residue classes when k * k < len, else blocks."""
    n = len(out)
    if k * k < n:
        for r in range(k):
            out[r::k] = accumulate(out[r::k])
    else:
        for s in range(k, n, k):
            out[s:s + k] = map(add, out[s:s + k], out[s - k:s])
    if exact:
        n -= k
        if out and (n < 0 or any(out[n:])):
            raise InexactDivision(f"division by 1 - q^{k} is not exact")
        del out[n:]
    return out


def _binomial_step(out: list, a: int, b: int) -> list:
    """Multiply a coefficient list by (1 - q^a), a >= 1, then divide it by
    (1 - q^b) exactly, in place; the list is returned.  One step of a
    q-binomial walk: [m + n; n] times (1 - q^(m+n+1)) / (1 - q^(n+1)) is
    [m + n + 1; n + 1]."""
    return _div_one_minus_q(_add_at(out, a, out[:], sub), b)


def _dense(low: int, coeffs) -> QLaurent:
    """The canonical QLaurent with ``coeffs[k]`` at q^(low + k)."""
    hi = len(coeffs)
    while hi and not coeffs[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not coeffs[lo]:
        lo += 1
    return QLaurent(low + lo, tuple(coeffs[lo:hi])) if hi else ZERO


def _coerce(x: "QLaurent | int") -> QLaurent:
    if isinstance(x, QLaurent):
        return x
    if isinstance(x, int):
        return QLaurent(0, (x,)) if x else ZERO
    raise TypeError(f"cannot coerce {x!r} to QLaurent")


ZERO = QLaurent()
ONE = QLaurent(0, (1,))


def q_power(e: int, c: int = 1) -> QLaurent:
    """The monomial c * q**e."""
    return QLaurent(e, (c,)) if c else ZERO


def qmultinomial(total: int, parts: Iterable[int]) -> QLaurent:
    """(q)_total / prod (q)_part when the parts are nonnegative and sum to
    total, else zero.  From the largest part on, each further part p at
    running total t multiplies in [t + p; p] by p ``_binomial_step``s on
    one coefficient list; every partial product is a product of
    q-binomials, so every division is exact."""
    parts = sorted(parts, reverse=True)
    if total < 0 or any(p < 0 for p in parts) or sum(parts) != total:
        return ZERO
    out, t = [1], parts[0] if parts else 0
    for p in parts[1:]:
        for i in range(1, p + 1):
            _binomial_step(out, t + i, i)
        t += p
    return QLaurent(0, tuple(out))


@lru_cache(maxsize=QBINOMIAL_CACHE)
def qbinomial(m: int, n: int) -> QLaurent:
    """Gaussian binomial for a box of width m and height n: the two-part
    q-multinomial [m + n; m, n], zero when either argument is negative.

    Generating function of partitions with at most n parts, each at most m;
    equals (q)_{m+n} / ((q)_m (q)_n).  The last ``QBINOMIAL_CACHE`` results
    are kept; a walk over neighbouring q-binomials of one large family
    steps its own list instead of calling this.
    """
    return qmultinomial(m + n, (m, n))


def invert_q(p: QLaurent) -> QLaurent:
    """q -> 1/q substitution; an involution and a ring homomorphism."""
    return QLaurent(-p.degree(), p.coeffs[::-1]) if p.coeffs else ZERO
