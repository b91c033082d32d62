"""Exact Laurent polynomials in q over arbitrary-precision integers.

Every generating function in the package is a ``QLaurent``, and so is
every power series: a series is kept exactly through a cutoff exponent.
Division by (1 - q^k) is the one division there is; it gives the
q-binomials exactly and the series reciprocals of products through a
cutoff.
"""
from __future__ import annotations

import json
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

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

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

    def at_one(self) -> int:
        """Evaluate at q = 1 (the sum of all coefficients)."""
        return sum(self.coeffs)

    def to_json(self) -> str:
        """Canonical JSON: [[exponent, coefficient-as-string], ...]."""
        return json.dumps([[e, str(c)] for e, c in self.terms],
                          separators=(",", ":"))

    @staticmethod
    def from_json(s: str) -> "QLaurent":
        return QLaurent.from_dict({int(e): int(c) for e, c in json.loads(s)})

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
    start = b.low - low
    end = start + len(b.coeffs)
    out.extend([0] * (end - len(out)))
    out[start:end] = map(op, out[start:end], b.coeffs)
    return _dense(low, out)


def _div_one_minus_q(out: list, k: int, exact: bool = True) -> list:
    """The running sums of ``QLaurent.div_one_minus_q``, in place on a
    coefficient list, which is returned.  When exact, the last k sums are
    the remainder: they must vanish, and are dropped.  A residue class
    with one entry is its own running sum, so only the first len - k
    classes are summed."""
    for r in range(min(k, len(out) - k)):
        out[r::k] = accumulate(out[r::k])
    if exact:
        n = len(out) - k
        if out and (n < 0 or any(out[n:])):
            raise InexactDivision(f"division by 1 - q^{k} is not exact")
        del out[n:]
    return out


def _binomial_step(out: list, a: int, b: int) -> list:
    """Multiply a coefficient list by (1 - q^a), a >= 1, then divide it by
    (1 - q^b) exactly, in place; the list is returned.  One step of a
    q-binomial walk: [m + n; n] times (1 - q^(m+n+1)) / (1 - q^(n+1)) is
    [m + n + 1; n + 1]."""
    old = len(out)
    out.extend([0] * a)
    out[a:] = map(sub, out[a:], out[:old])
    return _div_one_minus_q(out, b)


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


@lru_cache(maxsize=QBINOMIAL_CACHE)
def qbinomial(m: int, n: int) -> QLaurent:
    """Gaussian binomial for a box of width m and height n.

    Generating function of partitions with at most n parts, each at most m;
    equals (q)_{m+n} / ((q)_m (q)_n), built as the product over i = 1..n
    of (1 - q^(m+i)) / (1 - q^i), every partial product a polynomial.
    All n rounds are ``_binomial_step``s on one coefficient list.  Zero
    when either argument is negative.  The last ``QBINOMIAL_CACHE``
    results are kept; a walk over neighbouring q-binomials of one large
    family steps its own list instead of calling this.
    """
    if m < 0 or n < 0:
        return ZERO
    if n > m:
        m, n = n, m  # symmetric; fewer division rounds
    out = [1]
    for i in range(1, n + 1):
        _binomial_step(out, m + i, i)
    # both end coefficients are 1
    return QLaurent(0, tuple(out))


def qmultinomial(total: int, parts: Iterable[int]) -> QLaurent:
    """(q)_total / prod (q)_part when the parts are nonnegative and sum to
    total, else zero."""
    parts = list(parts)
    if total < 0 or any(p < 0 for p in parts) or sum(parts) != total:
        return ZERO
    out = ONE
    rem = total
    for p in parts:
        out = out * qbinomial(rem - p, p)
        rem -= p
    return out


def invert_q(p: QLaurent) -> QLaurent:
    """q -> 1/q substitution; an involution and a ring homomorphism."""
    return QLaurent(-p.degree(), p.coeffs[::-1]) if p.coeffs else ZERO
