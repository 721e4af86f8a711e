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

from .games import HedonicGame, InvalidAgentError, PartialPartition, Partition, PartitionError

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


class ValueClass(enum.Enum):
    BELOW_TAU = "below"
    AT_LEAST_TAU = "at_least"
    RAW = "raw"


# Ledger codes; 0 is an unseen pair.
_BELOW, _AT_LEAST, _STAGE2, _STAGE3 = 1, 2, 3, 4
_DECODE = (None, (1, ValueClass.BELOW_TAU), (1, ValueClass.AT_LEAST_TAU),
           (2, ValueClass.RAW), (3, ValueClass.RAW))
_ENCODE = {entry: code for code, entry in enumerate(_DECODE) if entry is not None}
_STAGE_CODES = {1: (_BELOW, _AT_LEAST), 2: (_STAGE2,), 3: (_STAGE3,)}


def _cross_keys(sources: list[np.ndarray], targets: list[np.ndarray], n: int) -> np.ndarray:
    """Flat keys ``src * n + dst`` of the union of the blocks sources[i] x targets[i]."""
    n_src = np.fromiter(map(len, sources), dtype=np.intp, count=len(sources))
    n_tgt = np.fromiter(map(len, targets), dtype=np.intp, count=len(targets))
    row_len = np.repeat(n_tgt, n_src)  # one row of keys per source id
    row_start = np.cumsum(row_len) - row_len
    first_tgt = np.repeat(np.cumsum(n_tgt) - n_tgt, n_src)
    src_part = np.repeat(np.concatenate(sources) * n, row_len)
    tgt_pos = np.arange(src_part.size) + np.repeat(first_tgt - row_start, row_len)
    return src_part + np.concatenate(targets)[tgt_pos]


class RevelationLedger:
    """Which ordered utility entries the algorithm has examined, by stage.

    A (source, target) pair is recorded at most once, by the first stage that
    examines it: re-reading an already revealed value changes no conditional
    distribution, so later stages do not overwrite.

    The ledger is one n x n ``int8`` code matrix: 0 unseen, 1 and 2 a stage-1
    observation below / at least the threshold, 3 a stage-2 and 4 a stage-3
    raw observation.  Writes are queued, as flat keys ``src * n + dst`` or as
    cross products of agent ids, in runs of one code; before anything reads
    the matrix the runs are applied in queue order, each as one fancy-indexed
    ``where(cur == 0, code, cur)``, so the first writer still wins.
    ``entries()`` yields in row-major key order, and ``==`` compares the
    effective codes.
    """

    __slots__ = ("n", "_codes", "_queue")

    def __init__(self, n: int) -> None:
        self.n = n
        self._codes = np.zeros((n, n), dtype=np.int8)
        # Runs of (code, flat-key arrays, cross-product sources, targets).
        self._queue: list[tuple[int, list[np.ndarray], list[np.ndarray], list[np.ndarray]]] = []

    def _agents(self, agents: Iterable[int]) -> np.ndarray:
        """Agent ids as an index array, each checked to lie in 0..n-1."""
        if isinstance(agents, (np.ndarray, list, tuple)):
            arr = np.asarray(agents, dtype=np.intp).reshape(-1)
        else:
            arr = np.fromiter(agents, dtype=np.intp)
        # Negative ids wrap to huge unsigned values, so one bound covers both ends.
        if arr.size and arr.view(np.uintp).max() >= self.n:
            bad = arr[(arr < 0) | (arr >= self.n)][0]
            raise InvalidAgentError(f"agent id {bad} outside 0..{self.n - 1}")
        return arr

    def _run(self, code: int):
        queue = self._queue
        if not queue or queue[-1][0] != code:
            queue.append((code, [], [], []))
        return queue[-1]

    def _enqueue(self, keys: np.ndarray, code: int) -> None:
        """Queue flat keys of valid agent pairs."""
        self._run(code)[1].append(keys)

    def _enqueue_block(self, src: np.ndarray, tgt: np.ndarray, code: int) -> None:
        """Queue the cross product src x tgt of valid agent ids."""
        _code, _keys, sources, targets = self._run(code)
        sources.append(src)
        targets.append(tgt)

    def _flush(self) -> np.ndarray:
        """Apply every queued run in order; first writer wins per pair."""
        flat = self._codes.reshape(-1)
        for code, keys, sources, targets in self._queue:
            if sources:
                keys.append(_cross_keys(sources, targets, self.n))
            k = keys[0] if len(keys) == 1 else np.concatenate(keys)
            cur = flat[k]
            flat[k] = np.where(cur == 0, code, cur)
        self._queue.clear()
        return self._codes

    def record(self, stage: int, src: int, dst: int, value_class: ValueClass) -> bool:
        """Record one examined entry; returns False if the pair was already revealed.

        Stage-1 entries are threshold observations, stage-2/3 entries raw ones.
        """
        code = _ENCODE.get((stage, value_class))
        if code is None:
            raise ValueError(f"stage {stage} cannot record a {value_class} observation")
        self._agents((src, dst))
        codes = self._flush()
        if codes[src, dst]:
            return False
        codes[src, dst] = code
        return True

    def record_block(self, stage: int, sources: Iterable[int], targets: Iterable[int]) -> None:
        """Bulk-record the raw cross product sources x targets for stage 2 or 3."""
        if stage not in (2, 3):
            raise ValueError("record_block is for raw stage-2/3 observations")
        self._enqueue_block(self._agents(sources), self._agents(targets),
                            _ENCODE[stage, ValueClass.RAW])

    def lookup(self, src: int, dst: int) -> tuple[int, ValueClass] | None:
        self._agents((src, dst))
        return _DECODE[self._flush()[src, dst]]

    def stage2_between(self, agent: int, members: Iterable[int]) -> bool:
        """Whether any stage-2 entry links ``agent`` with one of ``members`` (either direction)."""
        self._agents((agent,))
        m = self._agents(members)
        codes = self._flush()
        return bool(((codes[agent, m] == _STAGE2) | (codes[m, agent] == _STAGE2)).any())

    def merge(self, other: "RevelationLedger") -> None:
        """Add ``other``'s entries for pairs this ledger has not revealed."""
        if other.n != self.n:
            raise ValueError(f"cannot merge a ledger over {other.n} agents into one over {self.n}")
        theirs = other._flush().reshape(-1)
        keys = np.flatnonzero(theirs != 0)  # nonzero is several times slower on int8 than on bool
        flat = self._flush().reshape(-1)
        cur = flat[keys]
        flat[keys] = np.where(cur == 0, theirs[keys], cur)

    def entries(self, stages: Iterable[int] | None = None):
        flat = self._flush().reshape(-1)
        wanted = (1, 2, 3) if stages is None else set(stages)
        mask = None
        for stage in wanted:
            for code in _STAGE_CODES.get(stage, ()):
                hit = flat == code
                mask = hit if mask is None else mask | hit
        if mask is None:
            return
        keys = np.flatnonzero(mask)
        for src, dst, code in zip((keys // self.n).tolist(), (keys % self.n).tolist(),
                                  flat[keys].tolist()):
            stage, cls = _DECODE[code]
            yield stage, src, dst, cls

    def count_by_stage(self) -> dict[int, int]:
        codes = self._flush()
        return {stage: sum(int(np.count_nonzero(codes == c)) for c in cs)
                for stage, cs in _STAGE_CODES.items()}

    def __len__(self) -> int:
        return int(np.count_nonzero(self._flush()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RevelationLedger):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._flush(), other._flush())


def _check_ledger(game: HedonicGame, ledger: RevelationLedger | None) -> None:
    if ledger is not None and ledger.n != game.n:
        raise ValueError(f"ledger covers {ledger.n} agents, the game {game.n}")


def _record_stage1(ledger: RevelationLedger, U: np.ndarray, tau: float,
                   steps: list[tuple[tuple[int, ...], np.ndarray]]) -> None:
    """Queue the stage-1 checks of every (members, scanned candidates) growth step.

    Each candidate w is checked member by member, u_w(z) then u_z(w), up to
    and including the first value below ``tau``.  No ordered pair occurs
    twice: a candidate is scanned once per clique and members leave the scan.
    """
    n = ledger.n
    by_size: dict[int, list[tuple[tuple[int, ...], np.ndarray]]] = {}
    for members, scanned in steps:
        by_size.setdefault(len(members), []).append((members, scanned))
    for m, group in by_size.items():
        w = np.concatenate([scanned for _, scanned in group])[:, None]
        z = np.repeat(np.array([members for members, _ in group], dtype=np.intp),
                      [len(scanned) for _, scanned in group], axis=0)
        # Column 2i is the check u_w(z_i), column 2i+1 the check u_{z_i}(w).
        src = np.empty((len(w), 2 * m), dtype=np.intp)
        dst = np.empty_like(src)
        src[:, 0::2], dst[:, 0::2] = w, z
        src[:, 1::2], dst[:, 1::2] = z, w
        ok = U[src, dst] >= tau
        first_below = np.where(ok.all(axis=1), 2 * m, ok.argmin(axis=1))
        seen = np.arange(2 * m) <= first_below[:, None]
        keys = src[seen] * n + dst[seen]
        at_least = ok[seen]
        ledger._enqueue(keys[~at_least], _BELOW)
        ledger._enqueue(keys[at_least], _AT_LEAST)


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
    _check_ledger(game, ledger)
    U = game.utilities
    R = np.array(sorted(set(carrier)), dtype=np.intp)
    if R.size and (R[0] < 0 or R[-1] >= game.n):
        game.check_agent(int(R[0]) if R[0] < 0 else int(R[-1]))
    blocks: list[tuple[int, ...]] = []
    steps: list[tuple[tuple[int, ...], np.ndarray]] = []  # (members, candidates scanned)
    remainder: set[int] = set()
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
                steps.append((tuple(C), remaining))
                failed = True
                break
            h = int(hits[0])
            steps.append((tuple(C), remaining[: h + 1]))
            C.append(int(remaining[h]))
            taken.append(1 + pos + h)
            pos += h + 1
        if failed:
            remainder = set(R.tolist())
            break
        blocks.append(tuple(C))
        keep = np.ones(R.size, dtype=bool)
        keep[taken] = False
        R = R[keep]
    if ledger is not None:
        _record_stage1(ledger, U, threshold, steps)
    return PartialPartition(game.n, blocks, _trusted=True), remainder


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
    _check_ledger(game, ledger)
    cand = sorted(set(candidate))
    merged_list = sorted(set(merged))
    n = game.n
    if ((cand and (cand[0] < 0 or cand[-1] >= n))
            or (merged_list and (merged_list[0] < 0 or merged_list[-1] >= n))):
        raise InvalidAgentError(f"agent ids must lie in 0..{n - 1}")
    U = game.utilities
    s = config.clique_size(n)
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
        ledger._enqueue_block(merged_arr[:n_eval], cand_arr, _STAGE2)
    if viol.size > 0:
        ok = False
    else:
        vals_c = U[cand_arr[:, None], merged_arr].sum(axis=1)
        viol2 = np.flatnonzero(vals_c < thr_merged)
        n_eval2 = len(cand) if viol2.size == 0 else int(viol2[0]) + 1
        units += n_eval2 * (k - 1)
        if ledger is not None:
            ledger._enqueue_block(cand_arr[:n_eval2], merged_arr, _STAGE2)
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
    _check_ledger(game, ledger)
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
    ledger = RevelationLedger(n)  # the groups are disjoint, so they share one ledger

    stage1_out = [greedy_cliques(game, groups[j], s, tau, ledger) for j in range(g)]

    cliques = tuple(out[0] for out in stage1_out)
    rem1 = tuple(tuple(sorted(out[1])) for out in stage1_out)

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

    # Stage 3, run once: place the remainder and record each agent's placement.
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
    rem_arr = np.asarray(rem, dtype=np.intp)
    order = np.fromiter((a for block in blocks for a in block), dtype=np.intp)
    sizes = np.array([len(b) for b in blocks], dtype=np.intp)
    starts = np.zeros(nb, dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    vals = np.add.reduceat(U[rem_arr[:, None], order], starts, axis=1)

    alive = np.ones(nb, dtype=bool)
    open_to = np.ones((len(rem), nb), dtype=bool)  # no stage-2 link to the coalition
    if ledger is not None:
        # Stage 3 writes only stage-3 codes, so the links read here hold
        # throughout the loop.
        codes = ledger._flush()
        links = ((codes[rem_arr][:, order] == _STAGE2)
                 | (codes.take(rem_arr, axis=1).take(order, axis=0).T == _STAGE2))
        open_to = ~np.logical_or.reduceat(links, starts, axis=1)
    examined = np.zeros_like(open_to)
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
        qual = alive & open_to[r_i]
        row = vals[r_i]
        masked = np.where(qual, row, neg_inf)
        best = int(masked.argmax())
        satisfied = masked[best] > 0.0
        seen = qual
        if not satisfied:
            seen = alive
            success = False
            masked = np.where(alive, row, neg_inf)
            best = int(masked.argmax())
        examined[r_i] = seen
        placements_out.append((a, best, satisfied))
        additions[best] = a
        alive[best] = False
    if ledger is not None:
        seen_at = np.flatnonzero(np.repeat(examined, sizes, axis=1))
        ledger._enqueue(rem_arr[seen_at // order.size] * n + order[seen_at % order.size], _STAGE3)

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
