"""Exact Laurent polynomials in q over arbitrary-precision integers.

Every generating function in the package is a ``QLaurent``, and so is
every power series: a series is kept exactly through a cutoff exponent.
Division by (1 - q^k) happens inside the walks that build them: a
q-binomial step multiplies by (1 - q^a) and divides by (1 - q^b) exactly,
and a series reciprocal of a product divides through a cutoff.  A walk runs
on one of two kernels, which ``_walk_kernel`` picks from a bound on its
coefficients: coefficient lists, or one int per polynomial, sum c_k
2^(64k), when every coefficient fits a signed 64-bit word (Kronecker
substitution q -> 2^64).  The series are always packed.
"""
from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import add, sub
from types import SimpleNamespace
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

    def to_json(self) -> str:
        """Canonical JSON: [[exponent, coefficient-as-string], ...], one
        pair per nonzero coefficient in increasing exponent, with no
        spaces.  The text is built straight from the coefficient tuple, by
        joining a list: ``str.join`` builds one from a generator anyway."""
        return "[" + ",".join([f'[{e},"{c}"]' for e, c
                               in enumerate(self.coeffs, self.low) if c]) + "]"

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


def _binomial_step(out: list, a: int, b: int) -> list:
    """Multiply a coefficient list by (1 - q^a), a >= 1, then divide it by
    (1 - q^b), b >= 1, exactly, in place; the list is returned.  One step of
    a q-binomial walk: [m + n; n] times (1 - q^(m+n+1)) / (1 - q^(n+1)) is
    [m + n + 1; n + 1].

    The quotient is the running sum r_e = p_e + r_(e-b), in one of two
    orders.  Along each residue class mod b, one ``accumulate`` per class,
    it takes min(b, len - b) slice steps; block by block, adding the b sums
    before each block of b entries, it takes ceil(len / b) - 1.  The step
    takes the order with fewer steps: residue classes when b * b < len,
    else blocks.  The last b sums are the remainder: they must vanish, else
    InexactDivision, and are dropped."""
    _add_at(out, a, out[:], sub)
    n = len(out)
    if b * b < n:
        for r in range(b):
            out[r::b] = accumulate(out[r::b])
    else:
        for s in range(b, n, b):
            out[s:s + b] = map(add, out[s:s + b], out[s - b:s])
    n -= b
    if out and (n < 0 or any(out[n:])):
        raise InexactDivision(f"division by 1 - q^{b} is not exact")
    del out[n:]
    return out


# ---------------------------------------------------------------------------
# packed polynomials: one int, sum c_k 2^(64k), each c_k a signed 64-bit word

_LITTLE = sys.byteorder == "little"


def _bias(n: int) -> int:
    """2^63 at each of n words."""
    return int.from_bytes((bytes(7) + b"\x80") * n, "little")


def _pack(coeffs: list) -> int:
    """The packed polynomial of signed words (else OverflowError).  Read
    unsigned, a word is c mod 2^64; xor 2^63 makes it c + 2^63."""
    bias = _bias(len(coeffs))
    words = b"".join(c.to_bytes(8, "little", signed=True) for c in coeffs)
    return (int.from_bytes(words, "little") ^ bias) - bias


def _unpack(p: int, n: int) -> list:
    """The coefficients of q^0 .. q^(n-1) of a packed polynomial, read
    modulo 2^(64n).  Adding 2^63 at each word makes it c + 2^63, with no
    carry, and xor 2^63 makes that c mod 2^64, a native signed word."""
    bias = _bias(n)
    p = ((p + bias) & ((1 << 64 * n) - 1)) ^ bias
    words = memoryview(p.to_bytes(8 * n, sys.byteorder)).cast("q").tolist()
    return words if _LITTLE else words[::-1]


def _words(p: int) -> int:
    """Words enough to read a packed polynomial back.  Its top nonzero word
    is word bit_length // 64 or the next one: a top word 1 above a word
    near -2^63 leaves the int just under 2^(64k - 1)."""
    return p.bit_length() // 64 + 2


def _packed_div(p: int, k: int, n: int) -> int:
    """p / (1 - q^k), k >= 1, through q^(n-1): p (1 + q^k + q^2k + ...)
    mod 2^(64n), by ceil(log2(n / k)) shift-adds that each double the run
    of the geometric series.  It reads back exactly when the quotient's
    coefficients fit words, whatever the coefficients on the way."""
    if k < 1:
        raise ValueError(f"cannot divide by 1 - q^{k}")
    mask = (1 << 64 * n) - 1
    p &= mask
    while k < n:
        p = (p + (p << 64 * k)) & mask
        k *= 2
    return p


def _packed_step(p: int, a: int, b: int) -> int:
    """``_binomial_step`` on a packed polynomial; the quotient r must give
    the product back, r - q^b r, else InexactDivision.  Exact when the
    coefficients of p, the product and r fit words, as on a walk over
    q-binomials below 2^63."""
    m = max(_words(p) + a - b, 1)  # words enough for r
    p -= p << 64 * a
    r = _packed_div(p, b, m)
    if r >> (64 * m - 1):  # a negative top word
        r -= 1 << 64 * m
    if r - (r << 64 * b) != p:
        raise InexactDivision(f"division by 1 - q^{b} is not exact")
    return r


# A kernel is the arithmetic of a walk on one representation of its
# polynomials: new(coeffs) from a coefficient list; copy(p), a value that
# add_at may reuse while p stays; add_at(out, start, p, op), out op q^start
# p for op add or sub, which may reuse out; step(p, a, b), p (1 - q^a) /
# (1 - q^b) exactly, which may reuse p; poly(p), the QLaurent.
_LISTS = SimpleNamespace(new=list, copy=list.copy, add_at=_add_at,
                         step=_binomial_step, poly=lambda p: _dense(0, p))
# an int never changes in place, so a copy is the int itself
_PACKED = SimpleNamespace(
    new=_pack, copy=lambda p: p,
    add_at=lambda out, start, p, op: op(out, p << 64 * start),
    step=_packed_step,
    poly=lambda p: _dense(0, _unpack(p, _words(p))))


def _walk_kernel(bound: int) -> SimpleNamespace:
    """The kernel of a walk whose coefficients lie from 0 to ``bound``:
    packed when the bound is below 2^63, so that every coefficient and
    every difference of two fits a word, else lists (padded words would
    lose to lists)."""
    return _PACKED if bound < 1 << 63 else _LISTS


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
