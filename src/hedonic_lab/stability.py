"""Stability concept checking for a (game, partition) pair.

Seven concepts are supported, all driven by single-agent deviations or by
per-agent denial conditions.  ``check`` is the witness-producing reference
implementation.  ``agent_verdicts`` is the one fast encoding of the per-agent
rules, from block sums and favour masks; every batched path reduces its
verdicts.  ``concept_profile``, the hot path for Monte Carlo campaigns,
evaluates all seven concepts for one partition from tiles of ``_TILE_ROWS``
agent rows, read only while they can still change a verdict, in
O(``_TILE_ROWS`` * n) extra memory; its sums are bit-identical to a single
``np.add.reduceat`` over the table.
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
)

__all__ = [
    "Concept",
    "Verdict",
    "check",
    "concept_profile",
    "agent_verdicts",
    "implied_concepts",
    "IMPLICATIONS",
]

# Agent rows per tile of ``concept_profile`` (about 2 MB of float64 at n = 4000).
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


def check(game: HedonicGame, partition: Partition, concept: Concept) -> Verdict:
    """Decide ``concept`` for the pair, returning the first witness when it fails.

    Witness order is deterministic: lowest agent id first, then lowest target
    coalition index, with the fresh-singleton move last.  Each agent's block is
    read from the partition's assignment tuple.  One pass per agent reads its
    utility row once as Python floats; the favour tests read single entries of
    its column, through a memoryview of the table, only until they are
    decided.  Memory stays O(n).  The scans are plain loops: each coalition
    sum adds the members in coalition order from 0, exactly as
    ``coalition_utility`` does, so every sum and every strict comparison is the
    same as the definition's.  The favour tests may include the agent itself,
    whose diagonal 0 is neither positive nor negative.
    """
    if partition.n != game.n:
        raise PartitionError("partition does not match the game's agent count")
    if not isinstance(concept, Concept):
        raise ValueError(f"unhandled concept {concept}")
    U = game.utilities
    entry = memoryview(U)  # entry[b, a]: U[b, a] as a Python float, nothing copied
    blocks = partition.coalitions
    assignment = partition.assignment
    needs_consent = concept in (Concept.INDIVIDUAL, Concept.CONTRACTUAL_INDIVIDUAL)
    contractual = concept in (Concept.CONTRACTUAL_NASH, Concept.CONTRACTUAL_INDIVIDUAL)
    vetoes = contractual or concept is Concept.EXIT_DENIED
    for a, own_idx in enumerate(assignment):
        own = blocks[own_idx]
        if vetoes:
            # kept: an own-coalition member wants a to stay.  That denies a's
            # exit, and under the contractual concepts vetoes every move alike.
            kept = False
            for b in own:
                if entry[b, a] > 0:
                    kept = True
                    break
            if concept is Concept.EXIT_DENIED:
                if not kept:
                    return Verdict(False, (a, own_idx))
                continue
            if kept:
                continue
        if concept is Concept.ENTER_DENIED:
            for j, block in enumerate(blocks):
                if j != own_idx:
                    for b in block:
                        if entry[b, a] < 0:
                            break
                    else:
                        return Verdict(False, (a, j))
            continue
        row = U[a].tolist()
        current = 0
        for b in own:
            if b != a:
                current += row[b]
        if concept is Concept.INDIVIDUALLY_RATIONAL:
            if current < 0:
                return Verdict(False, (a, own_idx))
            continue
        for j, block in enumerate(blocks):
            if j == own_idx:
                continue
            value = 0
            for b in block:
                value += row[b]
            if value > current:
                if needs_consent:
                    for b in block:
                        if entry[b, a] < 0:
                            break
                    else:
                        return Verdict(False, Deviation(a, j))
                else:
                    return Verdict(False, Deviation(a, j))
        if len(own) > 1 and 0.0 > current:
            return Verdict(False, Deviation(a, NEW_SINGLETON))
    return Verdict(True)


def _own_favour(U: np.ndarray, labels: np.ndarray, order: np.ndarray,
                starts: np.ndarray, block_sizes: np.ndarray) -> np.ndarray:
    """``own_fin[a]``: some other member of a's own block has a positive utility for a.

    Rows are read in tiles of ``_TILE_ROWS`` agents in block order.  A tile's
    own blocks occupy one contiguous window of the block order, so each tile
    gathers at most ``_TILE_ROWS`` x n entries and keeps the same-block ones;
    the diagonal 0 never passes the strict test.
    """
    n = len(order)
    sorted_labels = labels[order]
    own_fin = np.zeros(n, dtype=bool)
    for t0 in range(0, n, _TILE_ROWS):
        t1 = min(t0 + _TILE_ROWS, n)
        c0 = starts[sorted_labels[t0]]
        c1 = starts[sorted_labels[t1 - 1]] + block_sizes[sorted_labels[t1 - 1]]
        likes = U[order[t0:t1, None], order[c0:c1]] > 0
        likes &= sorted_labels[t0:t1, None] == sorted_labels[c0:c1]
        own_fin[order[c0:c1]] |= likes.any(axis=0)
    return own_fin


def agent_verdicts(S: np.ndarray, own, F: np.ndarray | None = None,
                   own_fin: np.ndarray | None = None, *, concepts) -> dict[Concept, np.ndarray]:
    """Per-agent verdicts of ``concepts``: the one fast encoding of the per-agent rules.

    Blocks lie on axis 1 of ``S`` (each agent's utility sum over each block,
    its own included) and of ``F`` (some member of the block has a negative
    utility for the agent).  ``own`` (the sum over the agent's own block, 0 for
    a singleton; it may be a scalar) and ``own_fin`` (some other member of the
    own block has a positive utility for the agent) lack that axis.  Nash stays
    when no block sum beats ``own`` and ``own >= 0``; IS when the same holds
    for the blocks not flagged in ``F``.  IR is ``own >= 0``; enter-denied is
    ``F`` on every block, so it needs ``F`` True at the own block, which IS
    ignores; exit-denied is ``own_fin``; CNS and CIS also hold where
    ``own_fin`` does.  Only the requested verdicts are computed; no argument
    is written to.
    """
    wanted = set(concepts)
    rational = own >= 0
    out = {Concept.INDIVIDUALLY_RATIONAL: rational}

    if wanted & {Concept.NASH, Concept.CONTRACTUAL_NASH}:
        out[Concept.NASH] = (S.max(axis=1) <= own) & rational
    if Concept.ENTER_DENIED in wanted:
        out[Concept.ENTER_DENIED] = F.all(axis=1)
    if wanted & {Concept.INDIVIDUAL, Concept.CONTRACTUAL_INDIVIDUAL}:
        # A block flagged in F refuses the agent, so it cannot beat ``own``.
        kept = (S <= (own[:, None] if np.ndim(own) else own)) | F
        out[Concept.INDIVIDUAL] = kept.all(axis=1) & rational
    if Concept.EXIT_DENIED in wanted:
        out[Concept.EXIT_DENIED] = own_fin
    if Concept.CONTRACTUAL_NASH in wanted:
        out[Concept.CONTRACTUAL_NASH] = own_fin | out[Concept.NASH]
    if Concept.CONTRACTUAL_INDIVIDUAL in wanted:
        out[Concept.CONTRACTUAL_INDIVIDUAL] = own_fin | out[Concept.INDIVIDUAL]
    return {c: out[c] for c in concepts}


def _block_rows(U: np.ndarray, rows: np.ndarray, labels: np.ndarray, order: np.ndarray,
                starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block sums, own sums and refusals for the agents ``rows`` (ascending ids).

    ``S[r, j]`` is the sum of ``rows[r]``'s utilities over block j, one
    ``np.add.reduceat`` over the row's block-ordered entries, so it is
    bit-identical whichever rows are asked for together; ``own`` is its entry
    at the row's own block.  ``F[r, j]``: some member of block j has a
    negative utility for ``rows[r]``, or j is its own block.  The
    any-reduction over each block's members ORs the refusal flags eight bytes
    at a time; the flags are 0 or 1, so each byte of the OR is exactly their any.
    """
    n, m = U.shape[0], len(rows)
    ar, lab = np.arange(m), labels[rows]
    S = np.add.reduceat(U[rows[:, None], order], starts, axis=1)
    # Adjacent rows (every full tile) read their columns as a slice, which is
    # faster than a gather.
    contiguous = rows[-1] - rows[0] == m - 1
    cols = U[:, rows[0]:rows[0] + m] if contiguous else U[:, rows]
    neg = np.zeros((n, -(-m // 8) * 8), dtype=bool)
    np.less(cols, 0, out=neg[:, :m])
    F = np.bitwise_or.reduceat(neg[order].view(np.uint64), starts, axis=0).view(bool)[:, :m].T
    F[ar, lab] = True
    return S, S[ar, lab], F


def concept_profile(game: HedonicGame, partition: Partition) -> dict[Concept, bool]:
    """Evaluate all seven concepts at once (no witnesses).

    ``own_fin``, and with it exit-denied, is read from each agent's own block.
    Each agent row is then scanned only while it can still change a verdict:
    full tiles of ``_TILE_ROWS`` rows while Nash, IS, IR or enter-denied can
    still hold, then only the rows of agents with nobody who likes them in
    their own block (``~own_fin``), the only ones that can break CNS or CIS,
    while either holds.  Each tile's verdicts are ``agent_verdicts`` of its
    block sums, for the concepts that still hold.  A row's block sums are one
    ``np.add.reduceat`` over its block-ordered columns, bit-identical to one
    ``reduceat`` over the whole table.  Extra memory is O(``_TILE_ROWS`` * n);
    no n x n or k x n array is built.
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
    own_fin = _own_favour(U, labels, order, starts, block_sizes)

    held = {c: True for c in Concept if c is not Concept.EXIT_DENIED}
    full_tiles = (Concept.NASH, Concept.INDIVIDUAL, Concept.INDIVIDUALLY_RATIONAL,
                  Concept.ENTER_DENIED)
    rows_left = np.arange(n)
    while any(held.values()):
        if not any(held[c] for c in full_tiles):
            rows_left = rows_left[~own_fin[rows_left]]  # only these can break CNS or CIS
        if not len(rows_left):
            break
        rows, rows_left = rows_left[:_TILE_ROWS], rows_left[_TILE_ROWS:]
        verdicts = agent_verdicts(*_block_rows(U, rows, labels, order, starts), own_fin[rows],
                                  concepts=[c for c in held if held[c]])
        for c, ok in verdicts.items():
            held[c] = bool(ok.all())
    return {**held, Concept.EXIT_DENIED: bool(own_fin.all())}


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
