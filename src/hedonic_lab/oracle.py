"""Exhaustive ground truth for small games.

Set partitions are enumerated as restricted growth strings.  ``rgs_strings``
mutates one list in place and allocates nothing per string;
``enumerate_partitions`` builds one ``Partition`` per yield.  Counting uses
exact integer arithmetic throughout.
"""
from __future__ import annotations

from typing import Iterator

from .games import HedonicGame, Partition
from .stability import Concept, check

__all__ = [
    "EnumerationLimitError",
    "DEFAULT_ENUMERATION_LIMIT",
    "rgs_strings",
    "enumerate_partitions",
    "stirling2",
    "bell",
    "exists_stable",
    "count_stable",
]

DEFAULT_ENUMERATION_LIMIT = 13


class EnumerationLimitError(ValueError):
    """Refusal to enumerate partitions of a set beyond the configured limit."""


def rgs_strings(n: int) -> Iterator[list[int]]:
    """Yield every restricted growth string of length ``n`` in lexicographic order.

    The same list object is yielded each time; callers must copy if they keep it.
    """
    a = [0] * n
    # b[i] = 1 + max(a[:i]): the ceiling a[i] may not exceed.
    b = [1] * n
    while True:
        yield a
        i = n - 1
        while i > 0 and a[i] >= b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        nb = max(b[i], a[i] + 1)
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = nb


def _guard(n: int, limit: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if n > limit:
        raise EnumerationLimitError(
            f"n={n} exceeds the enumeration limit {limit}; raise limit= explicitly if intended")


def enumerate_partitions(n: int, k: int | None = None, *,
                         limit: int = DEFAULT_ENUMERATION_LIMIT) -> Iterator[Partition]:
    """Every set partition of ``{0..n-1}``, in restricted-growth-string order.

    With ``k`` given, only partitions with exactly ``k`` blocks are yielded.
    """
    _guard(n, limit)
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    for labels in rgs_strings(n):
        nblocks = max(labels) + 1
        if k is not None and nblocks != k:
            continue
        blocks: list[list[int]] = [[] for _ in range(nblocks)]
        for a, lab in enumerate(labels):
            blocks[lab].append(a)
        yield Partition(n, [tuple(blk) for blk in blocks], _trusted=True)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), exact.

    ``k > n`` returns 0 by convention.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    # Row-by-row recurrence S(n,k) = k*S(n-1,k) + S(n-1,k-1).
    row = [0] * (k + 1)
    row[min(1, k)] = 1 if k >= 1 else 0
    for m in range(2, n + 1):
        hi = min(m, k)
        for j in range(hi, 0, -1):
            row[j] = j * row[j] + row[j - 1]
    return row[k]


def bell(n: int) -> int:
    """Bell number: the count of all set partitions of ``n`` elements."""
    return sum(stirling2(n, k) for k in range(n + 1)) if n >= 0 else 0


def exists_stable(game: HedonicGame, concept: Concept, *,
                  limit: int = DEFAULT_ENUMERATION_LIMIT) -> Partition | None:
    """First stable partition in enumeration order, or ``None`` if none exists."""
    _guard(game.n, limit)
    for partition in enumerate_partitions(game.n, limit=limit):
        if check(game, partition, concept).stable:
            return partition
    return None


def count_stable(game: HedonicGame, concept: Concept, *,
                 limit: int = DEFAULT_ENUMERATION_LIMIT) -> int:
    """Exact count of stable partitions among all Bell(n) partitions."""
    _guard(game.n, limit)
    total = 0
    for partition in enumerate_partitions(game.n, limit=limit):
        if check(game, partition, concept).stable:
            total += 1
    return total
