"""Stability concept checking for a (game, partition) pair.

Seven concepts are supported, all driven by single-agent deviations or by
per-agent denial conditions.  ``check`` is the witness-producing reference
implementation; ``concept_profile`` evaluates all seven at once and is the
hot path for Monte Carlo campaigns.  It reads each agent's own block for the
exit-denied and contractual vetoes, then takes block sums and refusal flags in
tiles of ``_TILE_ROWS`` agent rows, and only for the rows that can still change
a verdict.  Its extra memory is O(``_TILE_ROWS`` * n) and no n x n array is
formed.  Each sum is one ``np.add.reduceat`` over the row's block-ordered
entries, bit-identical to a single ``reduceat`` over the table.
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


def _block_rows(U: np.ndarray, rows: np.ndarray, order: np.ndarray,
                starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block sums and refusals for the agents ``rows`` (ascending ids).

    ``S[r, j]`` is the sum of ``rows[r]``'s utilities over block j, one
    ``np.add.reduceat`` over the row's block-ordered entries, so it is
    bit-identical whichever rows are asked for together.  ``fout[r, j]``: some
    member of block j has a negative utility for ``rows[r]``.  The any-reduction
    over each block's members ORs the refusal flags eight bytes at a time; the
    flags are 0 or 1, so each byte of the OR is exactly their any.
    """
    n, m = U.shape[0], len(rows)
    S = np.add.reduceat(U[rows[:, None], order], starts, axis=1)
    # Adjacent rows (every full tile) read their columns as a slice, which is
    # faster than a gather.
    contiguous = rows[-1] - rows[0] == m - 1
    cols = U[:, rows[0]:rows[0] + m] if contiguous else U[:, rows]
    neg = np.zeros((n, -(-m // 8) * 8), dtype=bool)
    np.less(cols, 0, out=neg[:, :m])
    fout = np.bitwise_or.reduceat(neg[order].view(np.uint64), starts, axis=0)
    return S, fout.view(bool)[:, :m].T


def concept_profile(game: HedonicGame, partition: Partition) -> dict[Concept, bool]:
    """Evaluate all seven concepts at once (no witnesses).

    Each agent row is scanned only while it can still change a verdict.  Full
    tiles of ``_TILE_ROWS`` rows are scanned while Nash, IS, IR or
    enter-denied can still hold; after that only the rows of agents whose own
    block holds nobody who likes them (``~own_fin``), since only those can
    break CNS or CIS, and only while CIS holds (a CIS violation is a CNS one).
    ``own_fin``, and with it exit-denied, is read from each agent's own block.
    The block sums of a row are one ``np.add.reduceat`` over its block-ordered
    columns, bit-identical to one ``reduceat`` over the whole table.  Extra
    memory is O(``_TILE_ROWS`` * n); no n x n or k x n array is built.
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

    def deviations(rows):
        """Nash and IS deviation flags of ``rows``, their own sums and open blocks."""
        ar = np.arange(len(rows))
        lab = labels[rows]
        S, fout = _block_rows(U, rows, order, starts)
        own = S[ar, lab]
        S[ar, lab] = -np.inf  # now the other blocks only; max is -inf when k == 1
        leave = (block_sizes[lab] > 1) & (own < 0)  # strict gain as a new singleton
        enter_open = ~fout
        enter_open[ar, lab] = False
        nash_dev = (S.max(axis=1) > own) | leave
        is_dev = ((S > own[:, None]) & enter_open).any(axis=1) | leave
        return nash_dev, is_dev, own, enter_open

    nash = individual = cns = cis = ir = enter = True
    scanned = 0
    while scanned < n and (nash or individual or ir or enter):
        rows = np.arange(scanned, min(scanned + _TILE_ROWS, n))
        nash_dev, is_dev, own, enter_open = deviations(rows)
        contested = ~own_fin[rows]
        nash = nash and not nash_dev.any()
        individual = individual and not is_dev.any()
        cns = cns and not (nash_dev & contested).any()
        cis = cis and not (is_dev & contested).any()
        ir = ir and bool((own >= 0).all())
        enter = enter and not enter_open.any()
        scanned = rows[-1] + 1
    contested = scanned + np.flatnonzero(~own_fin[scanned:])
    for t0 in range(0, len(contested), _TILE_ROWS):
        if not cis:
            break
        nash_dev, is_dev, _, _ = deviations(contested[t0:t0 + _TILE_ROWS])
        cns = cns and not nash_dev.any()
        cis = not is_dev.any()

    return {
        Concept.NASH: nash,
        Concept.INDIVIDUAL: individual,
        Concept.CONTRACTUAL_NASH: cns,
        Concept.CONTRACTUAL_INDIVIDUAL: cis,
        Concept.INDIVIDUALLY_RATIONAL: ir,
        Concept.ENTER_DENIED: enter,
        Concept.EXIT_DENIED: bool(own_fin.all()),
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
