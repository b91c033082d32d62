"""Exact sparse Laurent polynomials in q over arbitrary-precision integers.

Every generating function in the package is a ``QLaurent``: a finite map
from (possibly negative) integer exponents to nonzero integer coefficients.
``TruncatedSeries`` handles the infinite-product / infinite-sum limits,
exactly up to a cutoff exponent.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class QLaurent:
    """A Laurent polynomial in q with integer coefficients.

    ``terms`` is a tuple of (exponent, coefficient) pairs, strictly
    increasing in exponent with no zero coefficients; the zero polynomial
    is the empty tuple.  Instances are immutable and hashable.
    """

    terms: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def from_dict(d: Mapping[int, int]) -> "QLaurent":
        return QLaurent(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, e: int) -> int:
        for ee, cc in self.terms:
            if ee == e:
                return cc
        return 0

    def valuation(self) -> int:
        """Lowest exponent; undefined (raises) on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no valuation")
        return self.terms[0][0]

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return self.terms[-1][0]

    def __add__(self, other: "QLaurent | int") -> "QLaurent":
        other = _coerce(other)
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return QLaurent.from_dict(d)

    __radd__ = __add__

    def __neg__(self) -> "QLaurent":
        return QLaurent(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "QLaurent | int") -> "QLaurent":
        return self + (-_coerce(other))

    def __rsub__(self, other: "QLaurent | int") -> "QLaurent":
        return _coerce(other) + (-self)

    def __mul__(self, other: "QLaurent | int") -> "QLaurent":
        other = _coerce(other)
        d: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return QLaurent.from_dict(d)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QLaurent":
        if k < 0:
            raise ValueError("negative powers are not supported")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, k: int) -> "QLaurent":
        """Multiply by q**k."""
        return QLaurent(tuple((e + k, c) for e, c in self.terms))

    def at_one(self) -> int:
        """Evaluate at q = 1 (the sum of all coefficients)."""
        return sum(c for _, c in self.terms)

    def subs_inverse(self) -> "QLaurent":
        """Substitute q -> 1/q, negating every exponent."""
        return QLaurent(tuple(sorted((-e, c) for e, c in self.terms)))

    def to_json(self) -> str:
        """Canonical JSON: [[exponent, coefficient-as-string], ...]."""
        return json.dumps([[e, str(c)] for e, c in self.terms],
                          separators=(",", ":"))

    @staticmethod
    def from_json(s: str) -> "QLaurent":
        return QLaurent.from_dict({int(e): int(c) for e, c in json.loads(s)})

    def __str__(self) -> str:
        if not self.terms:
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


def _coerce(x: "QLaurent | int") -> QLaurent:
    if isinstance(x, QLaurent):
        return x
    if isinstance(x, int):
        return QLaurent(((0, x),)) if x else ZERO
    raise TypeError(f"cannot coerce {x!r} to QLaurent")


ZERO = QLaurent()
ONE = QLaurent(((0, 1),))


def q_power(e: int, c: int = 1) -> QLaurent:
    """The monomial c * q**e."""
    return QLaurent(((e, c),)) if c else ZERO


def exact_div(p: QLaurent, d: QLaurent) -> QLaurent:
    """Divide p by d, requiring zero remainder.

    Used by the q-binomial product formula, where divisibility is a theorem;
    a nonzero remainder means a bug, not bad input.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return ZERO
    rem = dict(p.terms)
    dlo, dc = d.terms[0]
    quot: dict[int, int] = {}
    while rem:
        lo = min(rem)
        c, r = divmod(rem[lo], dc)
        if r:
            raise ValueError("division is not exact")
        e = lo - dlo
        quot[e] = c
        for de, dcc in d.terms:
            ee = de + e
            v = rem.get(ee, 0) - dcc * c
            if v:
                rem[ee] = v
            else:
                rem.pop(ee, None)
    return QLaurent.from_dict(quot)


def _one_minus_q(k: int) -> QLaurent:
    return QLaurent.from_dict({0: 1, k: -1})


def qbinomial(m: int, n: int) -> QLaurent:
    """Gaussian binomial for a box of width m and height n.

    Generating function of partitions with at most n parts, each at most m;
    equals (q)_{m+n} / ((q)_m (q)_n).  Zero when either argument is
    negative.
    """
    if m < 0 or n < 0:
        return ZERO
    if n > m:
        m, n = n, m  # symmetric; fewer division rounds
    out = ONE
    for i in range(1, n + 1):
        out = exact_div(out * _one_minus_q(m + i), _one_minus_q(i))
    return out


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
    return p.subs_inverse()


@dataclass(frozen=True)
class TruncatedSeries:
    """A power series known exactly for exponents 0..cutoff."""

    cutoff: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        if len(self.coeffs) != self.cutoff + 1:
            raise ValueError("coefficient list does not match cutoff")

    @staticmethod
    def one(cutoff: int) -> "TruncatedSeries":
        return TruncatedSeries(cutoff, (1,) + (0,) * cutoff)

    @staticmethod
    def from_poly(p: QLaurent, cutoff: int) -> "TruncatedSeries":
        if p.terms and p.valuation() < 0:
            raise ValueError("negative exponents cannot be truncated at 0")
        co = [0] * (cutoff + 1)
        for e, c in p.terms:
            if e <= cutoff:
                co[e] = c
        return TruncatedSeries(cutoff, tuple(co))

    def coeff(self, e: int) -> int:
        if not 0 <= e <= self.cutoff:
            raise IndexError(f"exponent {e} beyond cutoff {self.cutoff}")
        return self.coeffs[e]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.cutoff, other.cutoff)
        return TruncatedSeries(
            n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.cutoff, other.cutoff)
        return TruncatedSeries(
            n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncatedSeries | QLaurent | int") -> "TruncatedSeries":
        if isinstance(other, int):
            return TruncatedSeries(self.cutoff,
                                   tuple(other * a for a in self.coeffs))
        if isinstance(other, QLaurent):
            other = TruncatedSeries.from_poly(other, self.cutoff)
        n = min(self.cutoff, other.cutoff)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[:n + 1]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[:n + 1 - i]):
                out[i + j] += a * b
        return TruncatedSeries(n, tuple(out))

    def reciprocal(self) -> "TruncatedSeries":
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError("reciprocal needs unit constant term")
        out = [c0] + [0] * self.cutoff
        for k in range(1, self.cutoff + 1):
            s = sum(self.coeffs[j] * out[k - j] for j in range(1, k + 1))
            out[k] = -c0 * s
        return TruncatedSeries(self.cutoff, tuple(out))

    def truncate(self, cutoff: int) -> "TruncatedSeries":
        if cutoff > self.cutoff:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(cutoff, self.coeffs[:cutoff + 1])

    def agrees_with(self, other: "TruncatedSeries", upto: int | None = None) -> bool:
        n = min(self.cutoff, other.cutoff)
        if upto is not None:
            n = min(n, upto)
        return self.coeffs[:n + 1] == other.coeffs[:n + 1]


def truncated_product(progressions: Iterable[tuple[int, int]], cutoff: int,
                      reciprocal: bool = False) -> TruncatedSeries:
    """prod (1 - q^k) over k <= cutoff with k ≡ r (mod m) for each (r, m)
    pair, or the series reciprocal of that product.

    Each progression contributes its own factors, so overlapping
    progressions multiply twice.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    out = TruncatedSeries.one(cutoff)
    for r, m in progressions:
        if m < 1:
            raise ValueError(f"modulus must be >= 1, got {m}")
        k = r % m
        if k == 0:
            k = m
        while k <= cutoff:
            out = out * _one_minus_q(k)
            k += m
    return out.reciprocal() if reciprocal else out
