"""Stability concept checking for a (game, partition) pair.

Seven concepts are supported, all driven by single-agent deviations or by
per-agent denial conditions.  ``check`` is the witness-producing reference
implementation; ``concept_profile`` evaluates all seven at once and is the
hot path for Monte Carlo campaigns.  It builds k x n favour masks from
column-wise max/min over each block's rows, then takes the block sums in
tiles of ``_TILE_ROWS`` agent rows, so its extra memory is O(k * n) and no
n x n array is formed.  Each sum is one ``np.add.reduceat`` over the row's
block-ordered entries, bit-identical to a single ``reduceat`` over the table.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .games import (
    Deviation,
    HedonicGame,
    NEW_SINGLETON,
    Partition,
    PartitionError,
    coalition_utility,
    favor_in,
    favor_out,
)

__all__ = [
    "Concept",
    "Verdict",
    "check",
    "concept_profile",
    "implied_concepts",
    "IMPLICATIONS",
]

# Agent rows per block-sum tile of ``concept_profile`` (about 2 MB of float64 at
# n = 4000), also the number of blocks per row gather in its favour masks.
_TILE_ROWS = 64


class Concept(enum.Enum):
    NASH = "nash"
    INDIVIDUAL = "individual"
    CONTRACTUAL_NASH = "contractual-nash"
    CONTRACTUAL_INDIVIDUAL = "contractual-individual"
    INDIVIDUALLY_RATIONAL = "individually-rational"
    ENTER_DENIED = "enter-denied"
    EXIT_DENIED = "exit-denied"

    @classmethod
    def parse(cls, name: str) -> "Concept":
        key = name.strip().lower().replace("_", "-")
        aliases = {"ns": "nash", "is": "individual", "cns": "contractual-nash",
                   "cis": "contractual-individual", "ir": "individually-rational"}
        key = aliases.get(key, key)
        for concept in cls:
            if concept.value == key:
                return concept
        raise ValueError(f"unknown concept {name!r}")


# Deviation-based concepts, in contrast to the per-agent denial conditions.
_DEVIATION_CONCEPTS = frozenset({
    Concept.NASH,
    Concept.INDIVIDUAL,
    Concept.CONTRACTUAL_NASH,
    Concept.CONTRACTUAL_INDIVIDUAL,
})


@dataclass(frozen=True)
class Verdict:
    """Outcome of a stability check; a witness is present iff unstable.

    For deviation-based concepts the witness is the blocking ``Deviation``;
    for enter-denied / exit-denied / individual rationality it is an
    ``(agent, coalition_index)`` pair.
    """

    stable: bool
    witness: Deviation | tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.stable != (self.witness is None):
            raise ValueError("stable verdicts carry no witness, unstable ones must")


def _deviation_blocks(game: HedonicGame, partition: Partition, concept: Concept,
                      dev: Deviation) -> bool:
    """Whether ``dev`` is an admissible strictly-improving deviation under ``concept``."""
    a = dev.agent
    own = partition.coalition_of(a)
    current = coalition_utility(game, a, own)
    if dev.target is NEW_SINGLETON:
        gain = 0.0 > current
        consent_out = True  # an empty coalition has nobody to object
    else:
        target = partition.coalitions[dev.target]
        gain = coalition_utility(game, a, target) > current
        consent_out = not favor_out(game, target, a)
    if not gain:
        return False
    if concept in (Concept.INDIVIDUAL, Concept.CONTRACTUAL_INDIVIDUAL) and not consent_out:
        return False
    if concept in (Concept.CONTRACTUAL_NASH, Concept.CONTRACTUAL_INDIVIDUAL):
        if favor_in(game, own, a):
            return False
    return True


def check(game: HedonicGame, partition: Partition, concept: Concept) -> Verdict:
    """Decide ``concept`` for the pair, returning the first witness when it fails.

    Witness order is deterministic: lowest agent id first, then lowest target
    coalition index, with the fresh-singleton move last.
    """
    if partition.n != game.n:
        raise PartitionError("partition does not match the game's agent count")
    if concept in _DEVIATION_CONCEPTS:
        for a in range(game.n):
            own_idx = partition.index_of(a)
            for j in range(len(partition)):
                if j == own_idx:
                    continue
                dev = Deviation(a, j)
                if _deviation_blocks(game, partition, concept, dev):
                    return Verdict(False, dev)
            if len(partition.coalition_of(a)) > 1:
                dev = Deviation(a, NEW_SINGLETON)
                if _deviation_blocks(game, partition, concept, dev):
                    return Verdict(False, dev)
        return Verdict(True)
    if concept is Concept.INDIVIDUALLY_RATIONAL:
        for a in range(game.n):
            if coalition_utility(game, a, partition.coalition_of(a)) < 0:
                return Verdict(False, (a, partition.index_of(a)))
        return Verdict(True)
    if concept is Concept.ENTER_DENIED:
        for a in range(game.n):
            own_idx = partition.index_of(a)
            for j, block in enumerate(partition.coalitions):
                if j != own_idx and not favor_out(game, block, a):
                    return Verdict(False, (a, j))
        return Verdict(True)
    if concept is Concept.EXIT_DENIED:
        for a in range(game.n):
            if not favor_in(game, partition.coalition_of(a), a):
                return Verdict(False, (a, partition.index_of(a)))
        return Verdict(True)
    raise ValueError(f"unhandled concept {concept}")


def _favour_masks(U: np.ndarray, order: np.ndarray, starts: np.ndarray,
                  block_sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``fin[j, a]``: some member of block j has a positive utility for a; ``fout``: negative.

    Blocks of equal size m are stacked into a (blocks, m) member table, and
    the column-wise max and min over their members' rows are taken with m
    row gathers of at most ``_TILE_ROWS`` blocks each.  Max and min are exact
    in any order, and the diagonal 0 never passes either strict test.
    """
    k, n = len(block_sizes), U.shape[0]
    fin = np.empty((k, n), dtype=bool)
    fout = np.empty((k, n), dtype=bool)
    for m in np.unique(block_sizes):
        ids = np.flatnonzero(block_sizes == m)
        members = order[starts[ids][:, None] + np.arange(m)]
        for c0 in range(0, len(ids), _TILE_ROWS):
            rows = members[c0:c0 + _TILE_ROWS]
            hi = U[rows[:, 0]]
            lo = hi.copy()
            for i in range(1, m):
                nxt = U[rows[:, i]]
                np.maximum(hi, nxt, out=hi)
                np.minimum(lo, nxt, out=lo)
            blk = ids[c0:c0 + _TILE_ROWS]
            fin[blk] = hi > 0
            fout[blk] = lo < 0
    return fin, fout


def concept_profile(game: HedonicGame, partition: Partition) -> dict[Concept, bool]:
    """Evaluate all seven concepts at once (no witnesses).

    Block sums ``S[a, j]`` are taken in tiles of ``_TILE_ROWS`` agent rows by
    ``np.add.reduceat`` over each row's block-ordered columns, so every sum
    (and hence ``own`` and the best other block) is bit-identical to one
    ``reduceat`` over the whole table.  Each tile's deviation masks are formed
    against the k x n favour masks and reduced at once.  Extra memory is
    O(k * n) booleans plus O(``_TILE_ROWS`` * n) floats; no n x n array is built.
    """
    if partition.n != game.n:
        raise PartitionError("partition does not match the game's agent count")
    U = game.utilities
    n = game.n
    labels = partition.labels()
    k = len(partition)
    order = np.argsort(labels, kind="stable")
    block_sizes = np.bincount(labels, minlength=k)
    starts = np.zeros(k, dtype=np.intp)
    np.cumsum(block_sizes[:-1], out=starts[1:])
    fin, fout = _favour_masks(U, order, starts, block_sizes)

    nash = individual = cns = cis = ir = enter = exit_ = True
    for r0 in range(0, n, _TILE_ROWS):
        r1 = min(r0 + _TILE_ROWS, n)
        ar = np.arange(r1 - r0)
        lab = labels[r0:r1]
        # S[a, j] = sum of a's utilities over block j (own diagonal contributes 0).
        S = np.add.reduceat(U[r0:r1][:, order], starts, axis=1)
        own = S[ar, lab]
        S[ar, lab] = -np.inf  # now the other blocks only; max is -inf when k == 1
        mx_other = S.max(axis=1)
        own_fin = fin[lab, ar + r0]
        leave = (block_sizes[lab] > 1) & (own < 0)  # strict gain as a new singleton

        enter_open = ~fout[:, r0:r1].T
        enter_open[ar, lab] = False
        nash_dev = (mx_other > own) | leave
        is_dev = ((S > own[:, None]) & enter_open).any(axis=1) | leave

        nash = nash and not nash_dev.any()
        individual = individual and not is_dev.any()
        cns = cns and not (nash_dev & ~own_fin).any()
        cis = cis and not (is_dev & ~own_fin).any()
        ir = ir and bool((own >= 0).all())
        enter = enter and not enter_open.any()
        exit_ = exit_ and bool(own_fin.all())

    return {
        Concept.NASH: nash,
        Concept.INDIVIDUAL: individual,
        Concept.CONTRACTUAL_NASH: cns,
        Concept.CONTRACTUAL_INDIVIDUAL: cis,
        Concept.INDIVIDUALLY_RATIONAL: ir,
        Concept.ENTER_DENIED: enter,
        Concept.EXIT_DENIED: exit_,
    }


# (antecedents, consequent) pairs; an implication is violated when every
# antecedent holds and the consequent does not.
IMPLICATIONS: tuple[tuple[tuple[Concept, ...], Concept], ...] = (
    ((Concept.NASH,), Concept.INDIVIDUAL),
    ((Concept.NASH,), Concept.CONTRACTUAL_NASH),
    ((Concept.INDIVIDUAL,), Concept.INDIVIDUALLY_RATIONAL),
    ((Concept.INDIVIDUAL,), Concept.CONTRACTUAL_INDIVIDUAL),
    ((Concept.CONTRACTUAL_NASH,), Concept.CONTRACTUAL_INDIVIDUAL),
    ((Concept.EXIT_DENIED,), Concept.CONTRACTUAL_NASH),
    ((Concept.ENTER_DENIED, Concept.INDIVIDUALLY_RATIONAL), Concept.INDIVIDUAL),
)


def implied_concepts(results: dict[Concept, bool]) -> list[str]:
    """Violated implications of the concept lattice; empty means consistent."""
    missing = [c for c in Concept if c not in results]
    if missing:
        raise ValueError(f"results missing concepts: {[c.name for c in missing]}")
    violations = []
    for antecedents, consequent in IMPLICATIONS:
        if all(results[c] for c in antecedents) and not results[consequent]:
            lhs = "&".join(c.name for c in antecedents)
            violations.append(f"{lhs}=>{consequent.name}")
    return violations
