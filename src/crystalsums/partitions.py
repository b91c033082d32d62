"""Integer partition helpers shared by the bosonic and fermionic sums.

Partitions are tuples of weakly decreasing positive ints; () is empty.
"""
from __future__ import annotations

from functools import cache


@cache
def partitions_of(total: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of ``total`` with parts at most ``max_part``."""
    if total < 0:
        return ()
    if total == 0:
        return ((),)
    if max_part is None:
        max_part = total
    out = []
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions_of(total - first, first):
            out.append((first,) + rest)
    return tuple(out)


@cache
def partitions_in_box(rows: int, width: int) -> tuple[tuple[int, ...], ...]:
    """Partitions with at most ``rows`` parts, each at most ``width``."""
    if rows < 0 or width < 0:
        return ()
    if rows == 0 or width == 0:
        return ((),)
    out = [()]
    for first in range(1, width + 1):
        for rest in partitions_in_box(rows - 1, first):
            out.append((first,) + rest)
    return tuple(out)


def conjugate(mu: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    rows = len(mu)  # the parts that reach column i
    for i in range(1, (mu[0] if mu else 0) + 1):
        while mu[rows - 1] < i:
            rows -= 1
        out.append(rows)
    return tuple(out)


def part(mu: tuple[int, ...], i: int) -> int:
    """The i-th part (1-indexed), zero beyond the length."""
    return mu[i - 1] if 1 <= i <= len(mu) else 0


def superpartitions(inner: tuple[int, ...], size: int,
                    bound: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All partitions outer ⊇ inner of |inner| + size contained in bound."""
    rows = len(bound)
    out: list[tuple[int, ...]] = []

    def rec(row: int, remaining: int, acc: list[int]):
        if remaining < 0:
            return
        if row > rows:
            if remaining == 0:
                out.append(tuple(p for p in acc if p > 0))
            return
        lo = part(inner, row)
        hi = min(part(bound, row), acc[-1] if acc else 10**9)
        for v in range(lo, hi + 1):
            if v - lo > remaining:
                break
            acc.append(v)
            rec(row + 1, remaining - (v - lo), acc)
            acc.pop()

    rec(1, size, [])
    return out


def horizontal_strip_extensions(inner: tuple[int, ...], size: int,
                                bound: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All partitions outer with outer/inner a horizontal strip of the given
    size and outer contained in ``bound``: the superpartitions whose row
    r > 1 also stays within inner's row r - 1."""
    return superpartitions(inner, size, bound[:1] + tuple(
        min(b, part(inner, r)) for r, b in enumerate(bound[1:], start=1)))
