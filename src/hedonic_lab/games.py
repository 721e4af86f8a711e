"""Additively separable hedonic games: utility tables, partitions, deviations.

Agents are dense integers ``0..n-1`` so that utility lookups are plain array
indexing.  An agent's utility for a coalition is the sum of its utilities for
the other members; the empty sum is 0, so a singleton coalition is worth 0 to
its occupant.
"""
from __future__ import annotations

import json
import operator
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
    """An agent id that is not an integer in ``0..n-1`` was supplied."""


class PartitionError(ValueError):
    """A coalition structure violates disjointness, coverage, or nonemptiness."""


class HedonicGame:
    """Square utility table over ``n`` agents.

    Entry ``(a, b)`` is agent ``a``'s utility for agent ``b``.  The diagonal is
    stored as exactly 0 and is excluded from every aggregation, so the table
    stays rectangular without special-casing the owner.  Instances are
    immutable after construction and safe to share across threads.

    ``_views`` caches, from first use, two tuples of 1-D memoryviews over the
    read-only table: row ``a`` (``U[a, :]``) and column ``a`` (``U[:, a]``).
    They are views, not copies: O(n) objects in all, living as long as the
    game.  Being read-only views of a frozen table, they keep the game
    immutable; two threads that build them at once build equal tuples, and
    either may be kept.  Pickling and copying carry the table alone, frozen
    again on load, so a copy builds its own views.
    """

    __slots__ = ("_u", "_views")

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
        self._views = None

    @classmethod
    def from_validated_array(cls, arr: np.ndarray) -> "HedonicGame":
        """Wrap a float64 square array the caller guarantees satisfies the invariants.

        Skips validation and the defensive copy; the caller must not mutate
        ``arr`` afterwards (it is frozen here).
        """
        obj = object.__new__(cls)
        arr.setflags(write=False)
        obj._u = arr
        obj._views = None
        return obj

    def __reduce__(self):
        # The memoryviews do not pickle, and an unpickled or deep-copied
        # array comes back writeable: rebuild from the table, frozen again.
        return type(self).from_validated_array, (self._u,)

    @property
    def _rows_cols(self) -> tuple[tuple[memoryview, ...], tuple[memoryview, ...]]:
        """``(rows, cols)``: ``rows[a][b]`` and ``cols[b][a]`` read ``U[a, b]`` as a float."""
        if self._views is None:
            self._views = (tuple(map(memoryview, self._u)), tuple(map(memoryview, self._u.T)))
        return self._views

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
        _agent_ids((a,), self.n)

    def to_dict(self) -> dict:
        return {"n": self.n, "utilities": self._u.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "HedonicGame":
        if not isinstance(data, dict):
            raise ValueError(f"a game must be a JSON object, not {type(data).__name__}")
        try:
            n = _agent_id(data["n"])  # the same rule as an id: no bool, float or str
        except TypeError:
            raise ValueError(f"n must be an integer, not {data['n']!r}") from None
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


def _agent_id(a) -> int:
    if isinstance(a, bool):  # ``operator.index`` would take True and False as 1 and 0
        raise TypeError(f"agent id {a!r} is a bool")
    return operator.index(a)


def _integer(value, name: str) -> int:
    """``value`` as a Python int, by the rule for agent ids.

    A bool, a float or any other non-integer raises ``TypeError`` naming ``name``.
    """
    try:
        return _agent_id(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {value!r}") from None


def _agent_ids(ids: Iterable[int], n: int) -> np.ndarray:
    """``ids`` as an ``intp`` array in input order, each an agent id of an ``n``-agent game.

    An id must be an integer, Python or NumPy, in ``0..n-1``; a bool, any
    other non-integer (float and bool arrays too) or an id out of range
    raises ``InvalidAgentError``.  A ``range`` becomes ``np.arange``.
    """
    if isinstance(ids, range):
        arr = np.arange(ids.start, ids.stop, ids.step, dtype=np.intp)
    elif isinstance(ids, np.ndarray):
        if ids.dtype.kind not in "iu":
            raise InvalidAgentError(f"agent ids must be integers, not {ids.dtype}")
        arr = ids.astype(np.intp).reshape(-1)
    else:
        try:
            arr = np.fromiter(map(_agent_id, ids), dtype=np.intp)
        except (TypeError, OverflowError) as exc:
            raise InvalidAgentError(f"agent ids must be integers in 0..{n - 1}: {exc}") from None
    # Negative ids wrap to huge unsigned values, so one bound covers both ends.
    if arr.size and arr.view(np.uintp).max() >= n:
        bad = arr[(arr < 0) | (arr >= n)][0]
        raise InvalidAgentError(f"agent id {bad} outside 0..{n - 1}")
    return arr


def _normalize_blocks(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Each block sorted, its ids as Python ``int``s (NumPy integers included).

    A block that is not iterable, or an id that is not an integer (a float,
    str or bool), raises ``PartitionError``.
    """
    try:
        return tuple(tuple(sorted(map(_agent_id, block))) for block in blocks)
    except TypeError as exc:
        raise PartitionError(f"coalitions must be lists of integer agent ids: {exc}") from None


class _Blocks:
    """Shared machinery for full and partial coalition structures.

    ``_index`` maps each covered agent to its block index; each subclass
    chooses its form in ``_build_index``.
    """

    __slots__ = ("_n", "_coalitions", "_index")

    def __init__(self, n: int, coalitions: Iterable[Iterable[int]], *,
                 _trusted: bool = False) -> None:
        if n < 1:
            raise PartitionError("n must be positive")
        self._n = n
        owner = None
        if _trusted:
            # The caller guarantees nonempty, disjoint, in-range blocks.
            self._coalitions = tuple(coalitions)
        else:
            self._coalitions = _normalize_blocks(coalitions)
            owner = [-1] * n
            for i, block in enumerate(self._coalitions):
                if not block:
                    raise PartitionError("coalitions must be nonempty")
                for a in block:
                    if not 0 <= a < n:
                        raise PartitionError(f"agent id {a} outside 0..{n - 1}")
                    if owner[a] != -1:
                        raise PartitionError(f"agent {a} appears in two coalitions")
                    owner[a] = i
        self._index = self._build_index(owner)

    def _build_index(self, owner: list[int] | None):
        """The agent-to-block index; ``owner`` is the validated per-agent list, or None."""
        raise NotImplementedError

    @property
    def n(self) -> int:
        return self._n

    @property
    def coalitions(self) -> tuple[tuple[int, ...], ...]:
        return self._coalitions

    def coalition_of(self, a: int) -> tuple[int, ...]:
        return self._coalitions[self.index_of(a)]

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
    appear in deviations and witnesses).  Every agent has a block, so the
    agent-to-block map is one tuple of block indices, the ``assignment``.
    """

    __slots__ = ()

    def _build_index(self, owner: list[int] | None) -> tuple[int, ...]:
        if owner is None:
            owner = [-1] * self._n
            for i, block in enumerate(self._coalitions):
                for a in block:
                    owner[a] = i
        if -1 in owner:
            missing = [a for a, i in enumerate(owner) if i < 0]
            raise PartitionError(f"agents {missing[:5]} not covered by any coalition")
        return tuple(owner)

    @classmethod
    def _from_assignment(cls, coalitions: tuple[tuple[int, ...], ...],
                         assignment: tuple[int, ...]) -> "Partition":
        """Wrap blocks and the matching assignment the caller guarantees, unchecked."""
        obj = object.__new__(cls)
        obj._n = len(assignment)
        obj._coalitions = coalitions
        obj._index = assignment
        return obj

    @property
    def assignment(self) -> tuple[int, ...]:
        """Block index of every agent, in agent order."""
        return self._index

    def index_of(self, a: int) -> int:
        # A bare tuple index would answer a < 0 with some other agent's block.
        if not 0 <= a < self._n:
            raise KeyError(a)
        return self._index[a]

    def labels(self) -> np.ndarray:
        return np.array(self._index, dtype=np.int64)

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Partition":
        """Build a partition from per-agent block labels, blocks ordered by first occurrence.

        A label must be an integer, Python or NumPy; a bool, a float or any
        other non-integer raises ``PartitionError``.
        """
        if len(labels) < 1:
            raise PartitionError("n must be positive")
        relabel: dict[int, int] = {}
        try:
            assignment = tuple([relabel.setdefault(_agent_id(lab), len(relabel))
                                for lab in labels])
        except TypeError as exc:
            raise PartitionError(f"block labels must be integers: {exc}") from None
        blocks: list[list[int]] = [[] for _ in relabel]
        for a, i in enumerate(assignment):
            blocks[i].append(a)
        return cls._from_assignment(tuple([tuple(blk) for blk in blocks]), assignment)

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
        if not isinstance(data, dict):
            raise ValueError(f"a partition must be a JSON object, not {type(data).__name__}")
        blocks = _normalize_blocks(data["coalitions"])
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

    __slots__ = ()

    def _build_index(self, owner: list[int] | None) -> dict[int, int]:
        return {a: i for i, block in enumerate(self._coalitions) for a in block}

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


def coalition_utility(game: HedonicGame, agent: int, coalition: Iterable[int]) -> float:
    """Sum of ``agent``'s utilities for the members of ``coalition``.

    The agent itself is always excluded from the sum, whether or not it is a
    member; the empty sum is 0.
    """
    game.check_agent(agent)
    ids = _agent_ids(coalition, game.n).tolist()
    row = game.utilities[agent]
    return float(sum(row[b] for b in ids if b != agent))


def favor_in(game: HedonicGame, coalition: Iterable[int], agent: int) -> set[int]:
    """Members of ``coalition`` strictly preferring ``agent`` inside.

    Under additive utilities this is exactly the members with positive utility
    for the agent.
    """
    game.check_agent(agent)
    ids = _agent_ids(coalition, game.n).tolist()
    col = game.utilities[:, agent]
    return {b for b in ids if b != agent and col[b] > 0}


def favor_out(game: HedonicGame, coalition: Iterable[int], agent: int) -> set[int]:
    """Members of ``coalition`` strictly preferring ``agent`` outside."""
    game.check_agent(agent)
    ids = _agent_ids(coalition, game.n).tolist()
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
