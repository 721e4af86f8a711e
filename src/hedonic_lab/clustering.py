"""Three-stage greedy clustering: clique formation, merging, completion.

Stage 1 partitions each agent group into mutual-high-utility cliques of a
fixed size.  Stage 2 merges one clique per group into larger coalitions under
a compatibility threshold.  Stage 3 distributes leftover agents, one per
coalition.  A revelation ledger records exactly which utility entries each
stage examined, because the downstream success accounting conditions on what
was revealed.

All scanning orders are fixed (ascending agent id, clique creation order), so
identical inputs give identical outputs, ledgers included.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .games import HedonicGame, PartialPartition, Partition, PartitionError

__all__ = [
    "DEFAULT_MERGE_FAILURE_EXPONENT",
    "default_clique_size",
    "default_stage1_remainder_cap",
    "AlgoConfig",
    "GroupAssignment",
    "ValueClass",
    "RevelationLedger",
    "StageReport",
    "AttemptRecord",
    "ThreeStageResult",
    "greedy_cliques",
    "is_compatible",
    "greedy_cluster",
    "complete_partition",
    "run_three_stage",
    "run_three_stage_detailed",
]

# Exponent r' with P(one merge attempt fails) <= n**-r' at the default
# compatibility constant; it sets the default stage-2 remainder allowance.
DEFAULT_MERGE_FAILURE_EXPONENT = 1.0 / (25600.0 * math.log(16.0))


def _log16(n: int) -> float:
    x = math.log(n) / math.log(16.0)
    r = round(x)
    if abs(x - r) < 1e-9:
        return float(r)
    return x


def default_clique_size(n: int) -> int:
    """Default clique size rule ceil(log16(n) / 2), clamped to at least 1."""
    if n <= 1:
        return 1
    return max(1, math.ceil(_log16(n) / 2.0))


def default_stage1_remainder_cap(n: int) -> float:
    """Default per-group stage-1 remainder allowance n / log16(n)^2."""
    if n <= 1:
        return float(n)
    lg = _log16(n)
    if lg <= 0:
        return float(n)
    return n / (lg * lg)


@dataclass(frozen=True)
class AlgoConfig:
    """Tunable constants of the three-stage algorithm.

    Defaults follow the asymptotic analysis (20 groups, threshold 1/2,
    compatibility constant 1/80, clique size ceil(log16 n / 2)); desk-scale
    experiments override them, since those constants only bite at enormous n.
    """

    num_groups: int = 20
    edge_threshold: float = 0.5
    compat_constant: float = 1.0 / 80.0
    clique_size_rule: Callable[[int], int] | None = None
    stage1_remainder_cap: Callable[[int], float] | None = None
    stage2_remainder_cap: Callable[[int], float] | None = None

    def __post_init__(self) -> None:
        if self.num_groups < 2:
            raise ValueError("num_groups must be at least 2")
        if not 0.0 < self.edge_threshold < 1.0:
            raise ValueError("edge_threshold must lie strictly between 0 and 1")
        if self.compat_constant <= 0.0:
            raise ValueError("compat_constant must be positive")

    def clique_size(self, n: int) -> int:
        rule = self.clique_size_rule or default_clique_size
        s = int(rule(n))
        if s < 1:
            raise ValueError(f"clique size rule returned {s} for n={n}; need >= 1")
        return s

    def stage1_cap(self, n: int) -> float:
        rule = self.stage1_remainder_cap or default_stage1_remainder_cap
        return float(rule(n))

    def stage2_cap(self, n: int) -> float:
        """Combined remainder allowance for stage-2 success accounting.

        Default: g * stage1_cap + (4 g / r) * s with r the merge-failure
        exponent, which is vacuous at desk scale; tuned configs tighten it.
        """
        if self.stage2_remainder_cap is not None:
            return float(self.stage2_remainder_cap(n))
        g = self.num_groups
        s = self.clique_size(n)
        return g * self.stage1_cap(n) + (4.0 * g / DEFAULT_MERGE_FAILURE_EXPONENT) * s


@dataclass(frozen=True)
class GroupAssignment:
    """Round-robin split of the agents into groups of near-equal size."""

    num_groups: int
    groups: tuple[tuple[int, ...], ...]

    @classmethod
    def round_robin(cls, n: int, num_groups: int) -> "GroupAssignment":
        groups = tuple(tuple(range(j, n, num_groups)) for j in range(num_groups))
        return cls(num_groups, groups)

    def __post_init__(self) -> None:
        sizes = {len(g) for g in self.groups}
        if sizes and max(sizes) - min(sizes) > 1:
            raise ValueError("group sizes must differ by at most one")

    def group_of(self, agent: int) -> int:
        for j, members in enumerate(self.groups):
            if agent in members:
                return j
        raise ValueError(f"agent {agent} not assigned")


class ValueClass(enum.Enum):
    BELOW_TAU = "below"
    AT_LEAST_TAU = "at_least"
    RAW = "raw"


_STAGE1_CLASSES = (ValueClass.BELOW_TAU, ValueClass.AT_LEAST_TAU)


class RevelationLedger:
    """Which ordered utility entries the algorithm has examined, by stage.

    A (source, target) pair is recorded at most once, by the first stage that
    examines it: re-reading an already revealed value changes no conditional
    distribution, so later stages do not overwrite.

    Stage-1/2 entries live in a keyed map; stage-3 observations (one agent
    examining whole coalitions) are kept as per-agent target sets and shadowed
    by any earlier entry for the same pair.
    """

    __slots__ = ("n", "_entries", "_stage2_partners", "_stage3_targets")

    def __init__(self, n: int) -> None:
        self.n = n
        self._entries: dict[int, tuple[int, ValueClass]] = {}
        self._stage2_partners: dict[int, set[int]] = {}
        self._stage3_targets: dict[int, set[int]] = {}

    def record(self, stage: int, src: int, dst: int, value_class: ValueClass) -> bool:
        """Record one examined entry; returns False if the pair was already revealed."""
        if stage == 1:
            if value_class not in _STAGE1_CLASSES:
                raise ValueError("stage-1 entries must be threshold observations")
        elif stage in (2, 3):
            if value_class is not ValueClass.RAW:
                raise ValueError("stage-2/3 entries must be raw observations")
        else:
            raise ValueError(f"stage must be 1, 2, or 3, got {stage}")
        key = src * self.n + dst
        if key in self._entries:
            return False
        if stage == 3:
            targets = self._stage3_targets.setdefault(src, set())
            if dst in targets:
                return False
            targets.add(dst)
            return True
        if src in self._stage3_targets and dst in self._stage3_targets[src]:
            return False
        self._entries[key] = (stage, value_class)
        if stage == 2:
            self._stage2_partners.setdefault(src, set()).add(dst)
            self._stage2_partners.setdefault(dst, set()).add(src)
        return True

    def record_block(self, stage: int, sources: Iterable[int], targets: Iterable[int]) -> None:
        """Bulk-record the raw cross product sources x targets for stage 2 or 3."""
        if stage not in (2, 3):
            raise ValueError("record_block is for raw stage-2/3 observations")
        tgt = list(targets)
        if stage == 3:
            for src in sources:
                self._stage3_targets.setdefault(src, set()).update(tgt)
            return
        entries = self._entries
        n = self.n
        val = (2, ValueClass.RAW)
        partners = self._stage2_partners
        for src in sources:
            base = src * n
            src_set = partners.setdefault(src, set())
            shadowed = self._stage3_targets.get(src)
            for dst in tgt:
                key = base + dst
                if key not in entries and (shadowed is None or dst not in shadowed):
                    entries[key] = val
                    src_set.add(dst)
                    partners.setdefault(dst, set()).add(src)

    def lookup(self, src: int, dst: int) -> tuple[int, ValueClass] | None:
        hit = self._entries.get(src * self.n + dst)
        if hit is not None:
            return hit
        if src in self._stage3_targets and dst in self._stage3_targets[src]:
            return (3, ValueClass.RAW)
        return None

    def stage2_partners(self, agent: int) -> set[int]:
        return self._stage2_partners.get(agent, set())

    def stage2_between(self, agent: int, members: Iterable[int]) -> bool:
        """Whether any stage-2 entry links ``agent`` with one of ``members`` (either direction)."""
        partners = self._stage2_partners.get(agent)
        if not partners:
            return False
        return any(m in partners for m in members)

    def merge(self, other: "RevelationLedger") -> None:
        for key, val in other._entries.items():
            if key not in self._entries:
                self._entries[key] = val
        for agent, partners in other._stage2_partners.items():
            self._stage2_partners.setdefault(agent, set()).update(partners)
        for agent, targets in other._stage3_targets.items():
            self._stage3_targets.setdefault(agent, set()).update(targets)

    def entries(self, stages: Iterable[int] | None = None):
        wanted = set(stages) if stages is not None else {1, 2, 3}
        if wanted & {1, 2}:
            for key, (stage, cls) in self._entries.items():
                if stage in wanted:
                    yield stage, key // self.n, key % self.n, cls
        if 3 in wanted:
            entries = self._entries
            n = self.n
            for src, targets in self._stage3_targets.items():
                base = src * n
                for dst in targets:
                    if base + dst not in entries:
                        yield 3, src, dst, ValueClass.RAW

    def count_by_stage(self) -> dict[int, int]:
        out = {1: 0, 2: 0, 3: 0}
        for stage, _s, _d, _cls in self.entries():
            out[stage] += 1
        return out

    def __len__(self) -> int:
        return sum(self.count_by_stage().values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RevelationLedger):
            return NotImplemented
        return (self.n == other.n and self._entries == other._entries
                and self._stage3_targets == other._stage3_targets)


def _examine_candidate(U: np.ndarray, tau: float, w: int, members: list[int],
                       ledger: RevelationLedger | None) -> bool:
    """Pair checks member by member, stopping at the first sub-threshold value."""
    if ledger is None:
        return all(U[w, z] >= tau and U[z, w] >= tau for z in members)
    entries = ledger._entries
    n = ledger.n
    below = (1, ValueClass.BELOW_TAU)
    at_least = (1, ValueClass.AT_LEAST_TAU)
    for z in members:
        if U[w, z] < tau:
            entries.setdefault(w * n + z, below)
            return False
        entries.setdefault(w * n + z, at_least)
        if U[z, w] < tau:
            entries.setdefault(z * n + w, below)
            return False
        entries.setdefault(z * n + w, at_least)
    return True


def greedy_cliques(game: HedonicGame, carrier: Iterable[int], size: int, threshold: float,
                   ledger: RevelationLedger | None = None
                   ) -> tuple[PartialPartition, set[int]]:
    """Greedily partition ``carrier`` into mutual-threshold cliques of exactly ``size``.

    Seeds are taken in ascending id order and grown by a single ascending scan
    of the remaining agents; a candidate joins only if both directed utilities
    against every current member reach ``threshold``.  The first seed whose
    clique cannot reach ``size`` stops the whole procedure, returning the
    partial partition built so far and the untouched remainder.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    U = game.utilities
    R = np.array(sorted(set(carrier)), dtype=np.intp)
    if R.size and (R[0] < 0 or R[-1] >= game.n):
        game.check_agent(int(R[0]) if R[0] < 0 else int(R[-1]))
    blocks: list[tuple[int, ...]] = []
    while R.size:
        v = int(R[0])
        C = [v]
        taken = [0]  # positions in R consumed by this clique
        L = R[1:]
        pos = 0
        failed = False
        while len(C) < size:
            remaining = L[pos:]
            if remaining.size == 0:
                failed = True
                break
            if len(C) == 1:
                ok = (U[remaining, v] >= threshold) & (U[v, remaining] >= threshold)
            else:
                ok = ((U[remaining[:, None], C] >= threshold).all(axis=1)
                      & (U[np.asarray(C)[:, None], remaining] >= threshold).all(axis=0))
            hits = np.flatnonzero(ok)
            if hits.size == 0:
                if ledger is not None:
                    for w in remaining:
                        _examine_candidate(U, threshold, int(w), C, ledger)
                failed = True
                break
            h = int(hits[0])
            if ledger is not None:
                for w in remaining[: h + 1]:
                    _examine_candidate(U, threshold, int(w), C, ledger)
            C.append(int(remaining[h]))
            taken.append(1 + pos + h)
            pos += h + 1
        if failed:
            return PartialPartition(game.n, blocks, _trusted=True), set(R.tolist())
        blocks.append(tuple(C))
        keep = np.ones(R.size, dtype=bool)
        keep[taken] = False
        R = R[keep]
    return PartialPartition(game.n, blocks, _trusted=True), set()


def is_compatible(game: HedonicGame, candidate: Iterable[int], merged: Iterable[int],
                  k: int, config: AlgoConfig,
                  ledger: RevelationLedger | None = None,
                  pair_units_out: list | None = None) -> bool:
    """Stage-2 admission test for merging ``candidate`` into ``merged`` at round ``k``.

    Every agent already merged must not lose more than c*s against the
    candidate, and every candidate agent must not lose more than (k-1)*c*s
    against the merged union.  Sums are evaluated in ascending agent order and
    evaluation stops at the first violation; each evaluated sum's constituent
    pairs are appended to the ledger as stage-2 raw observations.
    """
    if k < 2:
        raise ValueError("merge rounds start at k=2")
    cand = sorted(set(candidate))
    merged_list = sorted(set(merged))
    U = game.utilities
    s = config.clique_size(game.n)
    thr_cand = -config.compat_constant * s
    thr_merged = -(k - 1) * config.compat_constant * s

    cand_arr = np.asarray(cand, dtype=np.intp)
    merged_arr = np.asarray(merged_list, dtype=np.intp)
    units = 0
    ok = True

    vals_m = U[merged_arr[:, None], cand_arr].sum(axis=1)
    viol = np.flatnonzero(vals_m < thr_cand)
    n_eval = len(merged_list) if viol.size == 0 else int(viol[0]) + 1
    units += n_eval
    if ledger is not None:
        ledger.record_block(2, merged_list[:n_eval], cand)
    if viol.size > 0:
        ok = False
    else:
        vals_c = U[cand_arr[:, None], merged_arr].sum(axis=1)
        viol2 = np.flatnonzero(vals_c < thr_merged)
        n_eval2 = len(cand) if viol2.size == 0 else int(viol2[0]) + 1
        units += n_eval2 * (k - 1)
        if ledger is not None:
            ledger.record_block(2, cand[:n_eval2], merged_list)
        ok = viol2.size == 0

    if pair_units_out is not None:
        pair_units_out.append(units)
    return ok


@dataclass(frozen=True)
class AttemptRecord:
    """One stage-2 merge attempt: which round, which position, how many checks."""

    round_index: int
    position: int  # 1-based round position k
    group: int
    candidate_index: int
    success: bool
    pair_units: int


@dataclass
class _ClusterResult:
    partition: PartialPartition
    remainder: set[int]
    composition: tuple[tuple[tuple[int, ...], ...], ...]
    attempts: tuple[AttemptRecord, ...]


def _greedy_cluster_detailed(game: HedonicGame, partitions: list[PartialPartition],
                             config: AlgoConfig,
                             ledger: RevelationLedger | None) -> _ClusterResult:
    g = len(partitions)
    if g < 2:
        raise ValueError("need at least two partial partitions to merge")
    carriers = [p.carrier for p in partitions]
    for i in range(g):
        for j in range(i + 1, g):
            if carriers[i] & carriers[j]:
                raise PartitionError("partial partitions must be pairwise disjoint")

    avail: list[list[tuple[int, ...]]] = [list(p.coalitions) for p in partitions]
    merged_blocks: list[tuple[int, ...]] = []
    composition: list[tuple[tuple[int, ...], ...]] = []
    attempts: list[AttemptRecord] = []

    def leftovers() -> set[int]:
        out: set[int] = set()
        for group in avail:
            for block in group:
                out.update(block)
        return out

    while avail[0]:
        chosen: list[tuple[int, ...] | None] = [None] * g
        chosen_idx: list[int] = [0] * g
        merged_so_far: list[int] = []
        stuck = False
        for kk in range(g):
            if kk == 0:
                chosen[0] = avail[0][0]
                chosen_idx[0] = 0
                merged_so_far = list(chosen[0])
                continue
            found = None
            for idx, block in enumerate(avail[kk]):
                holder: list[int] = []
                ok = is_compatible(game, block, merged_so_far, kk + 1, config,
                                   ledger, holder)
                attempts.append(AttemptRecord(len(merged_blocks), kk + 1, kk, idx,
                                              ok, holder[0]))
                if ok:
                    found = idx
                    break
            if found is None:
                stuck = True
                break
            chosen[kk] = avail[kk][found]
            chosen_idx[kk] = found
            merged_so_far = sorted(merged_so_far + list(chosen[kk]))
        if stuck:
            return _ClusterResult(PartialPartition(game.n, merged_blocks, _trusted=True),
                                  leftovers(), tuple(composition), tuple(attempts))
        for kk in range(g):
            avail[kk].pop(chosen_idx[kk])
        merged_blocks.append(tuple(merged_so_far))
        composition.append(tuple(chosen))  # type: ignore[arg-type]
    return _ClusterResult(PartialPartition(game.n, merged_blocks, _trusted=True),
                          leftovers(), tuple(composition), tuple(attempts))


def greedy_cluster(game: HedonicGame, partitions: list[PartialPartition],
                   config: AlgoConfig,
                   ledger: RevelationLedger | None = None
                   ) -> tuple[PartialPartition, set[int]]:
    """Merge one coalition per group into large coalitions, greedily.

    Round after round, the first remaining coalition of group 1 is taken
    unconditionally and each later group contributes its first coalition (in
    stage-1 creation order) compatible with the union built so far.  The first
    position with no compatible coalition stops everything; all unconsumed
    coalitions' agents become the remainder.
    """
    res = _greedy_cluster_detailed(game, partitions, config, ledger)
    return res.partition, res.remainder


def complete_partition(game: HedonicGame, merged: PartialPartition,
                       remainder: Iterable[int],
                       ledger: RevelationLedger | None = None
                       ) -> tuple[Partition, bool]:
    """Place each remainder agent into a distinct merged coalition.

    An agent's coalition is chosen to maximize its utility among coalitions
    that (i) have no stage-2 ledger entries linking them to the agent and
    (ii) give it strictly positive utility.  When no coalition passes both
    filters, the agent still gets the best unused coalition and the success
    flag drops; when coalitions run out entirely, leftovers become singletons.
    """
    rem = sorted(set(remainder))
    for a in rem:
        game.check_agent(a)
    carrier = merged.carrier
    overlap = carrier.intersection(rem)
    if overlap:
        raise PartitionError(f"remainder overlaps the merged carrier: {sorted(overlap)[:5]}")
    if len(carrier) + len(rem) != game.n:
        raise PartitionError("merged carrier plus remainder must cover all agents")
    return _complete_with_trace(game, merged, rem, ledger, [])


@dataclass(frozen=True)
class StageReport:
    """Per-stage success flags and the measured quantities behind them."""

    n: int
    num_groups: int
    clique_size: int
    stage1_success: bool
    stage2_success: bool
    stage3_success: bool
    group_remainders: tuple[int, ...]
    stage1_remainder: int
    stage2_remainder: int
    merged_count: int
    coalition_size_histogram: dict[int, int]

    @property
    def remainder_sizes(self) -> dict[str, int]:
        return {"stage1": self.stage1_remainder, "stage2": self.stage2_remainder}

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "num_groups": self.num_groups,
            "clique_size": self.clique_size,
            "stage1_success": self.stage1_success,
            "stage2_success": self.stage2_success,
            "stage3_success": self.stage3_success,
            "group_remainders": list(self.group_remainders),
            "stage1_remainder": self.stage1_remainder,
            "stage2_remainder": self.stage2_remainder,
            "merged_count": self.merged_count,
            "coalition_size_histogram": {str(k): v for k, v in
                                         sorted(self.coalition_size_histogram.items())},
        }


@dataclass
class ThreeStageResult:
    """Full trace of one run, for structural verification."""

    partition: Partition
    report: StageReport
    ledger: RevelationLedger
    groups: tuple[tuple[int, ...], ...]
    clique_partitions: tuple[PartialPartition, ...]
    group_remainders: tuple[tuple[int, ...], ...]
    merged: PartialPartition
    merged_composition: tuple[tuple[tuple[int, ...], ...], ...]
    stage2_remainder: tuple[int, ...]
    attempts: tuple[AttemptRecord, ...]
    placements: tuple[tuple[int, int | None, bool], ...] = field(default_factory=tuple)


def run_three_stage_detailed(game: HedonicGame, config: AlgoConfig) -> ThreeStageResult:
    n = game.n
    g = config.num_groups
    s = config.clique_size(n)
    tau = config.edge_threshold

    groups = GroupAssignment.round_robin(n, g).groups
    group_ledgers = [RevelationLedger(n) for _ in range(g)]

    stage1_out = [greedy_cliques(game, groups[j], s, tau, group_ledgers[j]) for j in range(g)]

    cliques = tuple(out[0] for out in stage1_out)
    rem1 = tuple(tuple(sorted(out[1])) for out in stage1_out)

    ledger = RevelationLedger(n)
    for gl in group_ledgers:
        ledger.merge(gl)

    cap1 = config.stage1_cap(n)
    stage1_success = all(
        all(len(block) == s for block in cliques[j].coalitions) and len(rem1[j]) <= cap1
        for j in range(g))

    cluster = _greedy_cluster_detailed(game, list(cliques), config, ledger)
    merged = cluster.partition
    rem2 = tuple(sorted(cluster.remainder))

    all_remainder = sorted(set().union(*map(set, rem1), cluster.remainder))
    balanced = all(len(block) == g * s for block in merged.coalitions)
    stage2_success = (stage1_success and balanced
                      and len(all_remainder) <= config.stage2_cap(n))

    # Stage 3 trace: rerun the placement bookkeeping to capture per-agent flags.
    placements: list[tuple[int, int | None, bool]] = []
    partition, stage3_success = _complete_with_trace(game, merged, all_remainder,
                                                     ledger, placements)

    histogram: dict[int, int] = {}
    for block in partition.coalitions:
        histogram[len(block)] = histogram.get(len(block), 0) + 1

    report = StageReport(
        n=n,
        num_groups=g,
        clique_size=s,
        stage1_success=stage1_success,
        stage2_success=stage2_success,
        stage3_success=stage3_success,
        group_remainders=tuple(len(r) for r in rem1),
        stage1_remainder=sum(len(r) for r in rem1),
        stage2_remainder=len(rem2),
        merged_count=len(merged),
        coalition_size_histogram=histogram,
    )
    return ThreeStageResult(
        partition=partition,
        report=report,
        ledger=ledger,
        groups=groups,
        clique_partitions=cliques,
        group_remainders=rem1,
        merged=merged,
        merged_composition=cluster.composition,
        stage2_remainder=rem2,
        attempts=cluster.attempts,
        placements=tuple(placements),
    )


def _complete_with_trace(game, merged, remainder, ledger, placements_out):
    """complete_partition with a per-agent placement trace appended to ``placements_out``."""
    n = game.n
    rem = sorted(set(remainder))
    if len(merged) == 0:
        for a in rem:
            placements_out.append((a, None, False))
        return Partition.singletons(n), False
    if not rem:
        return Partition(n, merged.coalitions, _trusted=True), True

    blocks = list(merged.coalitions)
    nb = len(blocks)
    U = game.utilities
    order = np.fromiter((a for block in blocks for a in block), dtype=np.intp)
    sizes = np.array([len(b) for b in blocks], dtype=np.intp)
    starts = np.zeros(nb, dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    vals = np.add.reduceat(U[np.asarray(rem, dtype=np.intp)[:, None], order], starts, axis=1)

    block_of_member = {m: i for i, block in enumerate(blocks) for m in block}
    alive = np.ones(nb, dtype=bool)
    additions: dict[int, int] = {}
    singles: list[int] = []
    success = True
    neg_inf = -np.inf
    for r_i, a in enumerate(rem):
        if not alive.any():
            singles.append(a)
            placements_out.append((a, None, False))
            success = False
            continue
        qual = alive.copy()
        if ledger is not None:
            for m in ledger.stage2_partners(a):
                i = block_of_member.get(m)
                if i is not None:
                    qual[i] = False
        row = vals[r_i]
        masked = np.where(qual, row, neg_inf)
        best = int(masked.argmax())
        satisfied = masked[best] > 0.0
        examined = qual
        if not satisfied:
            examined = alive
            success = False
            masked = np.where(alive, row, neg_inf)
            best = int(masked.argmax())
        if ledger is not None:
            seen = [m for i in np.flatnonzero(examined) for m in blocks[i]]
            ledger.record_block(3, (a,), seen)
        placements_out.append((a, best, satisfied))
        additions[best] = a
        alive[best] = False

    final_blocks: list[tuple[int, ...]] = []
    for i, block in enumerate(blocks):
        if i in additions:
            final_blocks.append(tuple(sorted(block + (additions[i],))))
        else:
            final_blocks.append(block)
    final_blocks.extend((a,) for a in singles)
    return Partition(n, final_blocks, _trusted=True), success


def run_three_stage(game: HedonicGame, config: AlgoConfig
                    ) -> tuple[Partition, StageReport, RevelationLedger]:
    """Run all three stages; always returns a valid partition of every agent."""
    res = run_three_stage_detailed(game, config)
    return res.partition, res.report, res.ledger
