"""Additively separable hedonic games: utility tables, partitions, deviations.

Agents are dense integers ``0..n-1`` so that utility lookups are plain array
indexing.  An agent's utility for a coalition is the sum of its utilities for
the other members; the empty sum is 0, so a singleton coalition is worth 0 to
its occupant.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "InvalidAgentError",
    "PartitionError",
    "HedonicGame",
    "Partition",
    "PartialPartition",
    "Deviation",
    "NEW_SINGLETON",
    "coalition_utility",
    "favor_in",
    "favor_out",
    "enumerate_deviations",
]


class InvalidAgentError(ValueError):
    """An agent id outside ``0..n-1`` was supplied."""


class PartitionError(ValueError):
    """A coalition structure violates disjointness, coverage, or nonemptiness."""


class HedonicGame:
    """Square utility table over ``n`` agents.

    Entry ``(a, b)`` is agent ``a``'s utility for agent ``b``.  The diagonal is
    stored as exactly 0 and is excluded from every aggregation, so the table
    stays rectangular without special-casing the owner.  Instances are
    immutable after construction and safe to share across threads.
    """

    __slots__ = ("_u",)

    def __init__(self, utilities) -> None:
        arr = np.array(utilities, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("utility table must be a square matrix")
        if arr.shape[0] < 1:
            raise ValueError("a game needs at least one agent")
        if not np.all(np.isfinite(arr)):
            raise ValueError("utility table must be fully populated with finite reals")
        if np.any(np.diagonal(arr) != 0.0):
            raise ValueError("diagonal self-utilities must be exactly 0")
        arr.setflags(write=False)
        self._u = arr

    @classmethod
    def from_validated_array(cls, arr: np.ndarray) -> "HedonicGame":
        """Wrap a float64 square array the caller guarantees satisfies the invariants.

        Skips validation and the defensive copy; the caller must not mutate
        ``arr`` afterwards (it is frozen here).
        """
        obj = object.__new__(cls)
        arr.setflags(write=False)
        obj._u = arr
        return obj

    @property
    def n(self) -> int:
        return self._u.shape[0]

    @property
    def utilities(self) -> np.ndarray:
        """Read-only view of the full utility table."""
        return self._u

    def u(self, a: int, b: int) -> float:
        self.check_agent(a)
        self.check_agent(b)
        return float(self._u[a, b])

    def check_agent(self, a: int) -> None:
        if not 0 <= a < self.n:
            raise InvalidAgentError(f"agent id {a} outside 0..{self.n - 1}")

    def to_dict(self) -> dict:
        return {"n": self.n, "utilities": self._u.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "HedonicGame":
        n = int(data["n"])
        arr = np.array(data["utilities"], dtype=float)
        if arr.shape != (n, n):
            raise ValueError(f"utilities shape {arr.shape} does not match n={n}")
        return cls(arr)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "HedonicGame":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HedonicGame):
            return NotImplemented
        return self._u.shape == other._u.shape and bool(np.all(self._u == other._u))

    def __repr__(self) -> str:
        return f"HedonicGame(n={self.n})"


def _normalize_blocks(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(block)) for block in blocks)


class _Blocks:
    """Shared machinery for full and partial coalition structures."""

    __slots__ = ("_n", "_coalitions", "_index")

    def __init__(self, n: int, coalitions: Iterable[Iterable[int]], *, cover: bool,
                 _trusted: bool = False) -> None:
        if n < 1:
            raise PartitionError("n must be positive")
        self._n = n
        if _trusted:
            # The caller guarantees nonempty, disjoint, in-range blocks.
            self._coalitions = tuple(coalitions)
            index = {a: i for i, block in enumerate(self._coalitions) for a in block}
        else:
            self._coalitions = _normalize_blocks(coalitions)
            index = {}
            for i, block in enumerate(self._coalitions):
                if not block:
                    raise PartitionError("coalitions must be nonempty")
                for a in block:
                    if not 0 <= a < n:
                        raise PartitionError(f"agent id {a} outside 0..{n - 1}")
                    if a in index:
                        raise PartitionError(f"agent {a} appears in two coalitions")
                    index[a] = i
        if cover and len(index) != n:
            missing = sorted(set(range(n)) - index.keys())
            raise PartitionError(f"agents {missing[:5]} not covered by any coalition")
        self._index = index

    @property
    def n(self) -> int:
        return self._n

    @property
    def coalitions(self) -> tuple[tuple[int, ...], ...]:
        return self._coalitions

    def coalition_of(self, a: int) -> tuple[int, ...]:
        return self._coalitions[self._index[a]]

    def index_of(self, a: int) -> int:
        return self._index[a]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self._coalitions)

    def __len__(self) -> int:
        return len(self._coalitions)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._coalitions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Blocks):
            return NotImplemented
        return self._n == other._n and self._coalitions == other._coalitions

    def __hash__(self) -> int:
        return hash((self._n, self._coalitions))


class Partition(_Blocks):
    """Disjoint nonempty coalitions covering all ``n`` agents.

    Block order is preserved as given; coalition indices are meaningful (they
    appear in deviations and witnesses).
    """

    def __init__(self, n: int, coalitions: Iterable[Iterable[int]], *,
                 _trusted: bool = False) -> None:
        super().__init__(n, coalitions, cover=True, _trusted=_trusted)

    @property
    def assignment(self) -> tuple[int, ...]:
        return tuple(self._index[a] for a in range(self._n))

    def labels(self) -> np.ndarray:
        out = np.empty(self._n, dtype=np.int64)
        for i, block in enumerate(self._coalitions):
            for a in block:
                out[a] = i
        return out

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Partition":
        """Build a partition from per-agent block labels, blocks ordered by first occurrence."""
        order: dict[int, list[int]] = {}
        for a, lab in enumerate(labels):
            order.setdefault(int(lab), []).append(a)
        return cls(len(labels), order.values())

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(n, [(a,) for a in range(n)], _trusted=True)

    @classmethod
    def grand(cls, n: int) -> "Partition":
        return cls(n, [list(range(n))])

    def to_dict(self) -> dict:
        return {"coalitions": [list(c) for c in self._coalitions]}

    @classmethod
    def from_dict(cls, data: dict, n: int | None = None) -> "Partition":
        blocks = data["coalitions"]
        if n is None:
            n = sum(len(b) for b in blocks)
        return cls(n, blocks)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path, n: int | None = None) -> "Partition":
        with open(path) as fh:
            return cls.from_dict(json.load(fh), n=n)

    def __repr__(self) -> str:
        return f"Partition({list(map(list, self._coalitions))})"


class PartialPartition(_Blocks):
    """Disjoint nonempty coalitions over a subset of the agents."""

    def __init__(self, n: int, coalitions: Iterable[Iterable[int]], *,
                 _trusted: bool = False) -> None:
        super().__init__(n, coalitions, cover=False, _trusted=_trusted)

    @property
    def carrier(self) -> frozenset[int]:
        """The set of agents covered by some coalition."""
        return frozenset(self._index)

    def __repr__(self) -> str:
        return f"PartialPartition({list(map(list, self._coalitions))})"


NEW_SINGLETON: None = None


@dataclass(frozen=True)
class Deviation:
    """A single agent moving to an existing coalition or to a fresh singleton.

    ``target`` is a coalition index distinct from the agent's own, or
    ``NEW_SINGLETON`` (``None``) for breaking away alone.
    """

    agent: int
    target: int | None

    def __repr__(self) -> str:
        tgt = "NEW_SINGLETON" if self.target is None else self.target
        return f"Deviation(agent={self.agent}, target={tgt})"


def _check_coalition(game: HedonicGame, coalition: Iterable[int]) -> tuple[int, ...]:
    ids = tuple(coalition)
    for b in ids:
        game.check_agent(b)
    return ids


def coalition_utility(game: HedonicGame, agent: int, coalition: Iterable[int]) -> float:
    """Sum of ``agent``'s utilities for the members of ``coalition``.

    The agent itself is always excluded from the sum, whether or not it is a
    member; the empty sum is 0.
    """
    game.check_agent(agent)
    ids = _check_coalition(game, coalition)
    row = game.utilities[agent]
    return float(sum(row[b] for b in ids if b != agent))


def favor_in(game: HedonicGame, coalition: Iterable[int], agent: int) -> set[int]:
    """Members of ``coalition`` strictly preferring ``agent`` inside.

    Under additive utilities this is exactly the members with positive utility
    for the agent.
    """
    game.check_agent(agent)
    ids = _check_coalition(game, coalition)
    col = game.utilities[:, agent]
    return {b for b in ids if b != agent and col[b] > 0}


def favor_out(game: HedonicGame, coalition: Iterable[int], agent: int) -> set[int]:
    """Members of ``coalition`` strictly preferring ``agent`` outside."""
    game.check_agent(agent)
    ids = _check_coalition(game, coalition)
    col = game.utilities[:, agent]
    return {b for b in ids if b != agent and col[b] < 0}


def enumerate_deviations(game: HedonicGame, partition: Partition) -> list[Deviation]:
    """All single-agent deviations from ``partition``.

    Order: agent ascending, then target coalition index ascending, with the
    fresh-singleton move last.  The singleton move is omitted for agents that
    are already alone.
    """
    if partition.n != game.n:
        raise PartitionError("partition does not match the game's agent count")
    out: list[Deviation] = []
    for a in range(game.n):
        own = partition.index_of(a)
        for j in range(len(partition)):
            if j != own:
                out.append(Deviation(a, j))
        if len(partition.coalition_of(a)) > 1:
            out.append(Deviation(a, NEW_SINGLETON))
    return out
