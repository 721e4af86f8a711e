"""Three-stage greedy clustering: clique formation, merging, completion.

Stage 1 partitions each agent group into mutual-high-utility cliques of a
fixed size.  Stage 2 merges one clique per group into larger coalitions under
a compatibility threshold.  Stage 3 distributes leftover agents, one per
coalition.  A revelation ledger records exactly which utility entries each
stage examined, because the downstream success accounting conditions on what
was revealed.

All scanning orders are fixed (ascending agent id, clique creation order), so
identical inputs give identical outputs, ledgers included.  Stages 1 and 2
read single entries through a memoryview of the utility table; stage 2 adds
each admission sum in a plain loop in ascending id order from +0.0, so it
equals ``coalition_utility`` of the same agent and ids bit for bit.  Each stage
function logs what it examined to the ledger it is given once, at its end,
from the trace it keeps anyway; the ledger builds its code matrix from that
log only when it is read.
"""
from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import chain
from operator import index
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .games import HedonicGame, PartialPartition, Partition, PartitionError, _agent_ids

__all__ = [
    "DEFAULT_MERGE_FAILURE_EXPONENT",
    "default_clique_size",
    "default_stage1_remainder_cap",
    "AlgoConfig",
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


# Remainder agents per utility gather in stage 3: each row's block sums are one
# ``reduceat`` of their own, so the tiling leaves every sum unchanged.
_GATHER_ROWS = 64


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
    The remainder caps behind the stage-1/2 success flags are fixed defaults
    (``stage1_cap``, ``stage2_cap``), not settings.
    """

    num_groups: int = 20
    edge_threshold: float = 0.5
    compat_constant: float = 1.0 / 80.0
    clique_size_rule: Callable[[int], int] | None = None

    def __post_init__(self) -> None:
        if index(self.num_groups) < 2:
            raise ValueError("num_groups must be at least 2")
        if not 0.0 < self.edge_threshold < 1.0:
            raise ValueError("edge_threshold must lie strictly between 0 and 1")
        # NaN and inf too: a NaN or -inf threshold admits every merge.
        if not 0.0 < self.compat_constant < math.inf:
            raise ValueError("compat_constant must be positive and finite")

    def clique_size(self, n: int) -> int:
        rule = self.clique_size_rule or default_clique_size
        s = index(rule(n))
        if s < 1:
            raise ValueError(f"clique size rule returned {s} for n={n}; need >= 1")
        return s

    def stage1_cap(self, n: int) -> float:
        """Per-group stage-1 remainder allowance, ``default_stage1_remainder_cap(n)``."""
        return default_stage1_remainder_cap(n)

    def stage2_cap(self, n: int) -> float:
        """Combined remainder allowance for stage-2 success accounting.

        Fixed at g * stage1_cap + (4 g / r) * s with r the merge-failure
        exponent, which is vacuous at desk scale.
        """
        g = self.num_groups
        s = self.clique_size(n)
        return g * self.stage1_cap(n) + (4.0 * g / DEFAULT_MERGE_FAILURE_EXPONENT) * s


class ValueClass(enum.Enum):
    BELOW_TAU = "below"
    AT_LEAST_TAU = "at_least"
    RAW = "raw"


# Ledger codes; 0 is an unseen pair.
_BELOW, _AT_LEAST, _STAGE2, _STAGE3 = 1, 2, 3, 4
_STAGE_CODES = {1: (_BELOW, _AT_LEAST), 2: (_STAGE2,), 3: (_STAGE3,)}
# Stage and value class of each code, indexed by the code.
_CODE_STAGE = np.array([0, 1, 1, 2, 3])
_CODE_CLASS = np.array([None, ValueClass.BELOW_TAU, ValueClass.AT_LEAST_TAU,
                        ValueClass.RAW, ValueClass.RAW], dtype=object)


def _cross_keys(sources: Sequence[Sequence[int]], targets: Sequence[Sequence[int]],
                n: int) -> np.ndarray:
    """Flat keys ``src * n + dst`` of the union of the blocks sources[i] x targets[i]."""
    n_src = np.fromiter(map(len, sources), dtype=np.intp, count=len(sources))
    n_tgt = np.fromiter(map(len, targets), dtype=np.intp, count=len(targets))
    row_len = np.repeat(n_tgt, n_src)  # one row of keys per source id
    row_start = np.cumsum(row_len) - row_len
    first_tgt = np.repeat(np.cumsum(n_tgt) - n_tgt, n_src)
    src_ids = np.fromiter(chain.from_iterable(sources), dtype=np.intp, count=int(n_src.sum()))
    tgt_ids = np.fromiter(chain.from_iterable(targets), dtype=np.intp, count=int(n_tgt.sum()))
    src_part = np.repeat(src_ids * n, row_len)
    tgt_pos = np.arange(src_part.size) + np.repeat(first_tgt - row_start, row_len)
    return src_part + tgt_ids[tgt_pos]


class RevelationLedger:
    """Which ordered utility entries the algorithm has examined, by stage.

    A (source, target) pair is recorded at most once, by the first stage that
    examines it: re-reading an already revealed value changes no conditional
    distribution, so later stages do not overwrite.

    The ledger is an ordered log of stage writes and the n x n ``int8`` code
    matrix they build: 0 unseen, 1 and 2 a stage-1 observation below / at
    least the threshold, 3 a stage-2 and 4 a stage-3 raw observation.  A
    write only appends to the log; the first read after it (every method but
    ``record_block`` and ``merge`` reads) allocates the matrix if need be and
    replays the pending writes in order, each only into pairs still at 0, so
    the first writer wins.  A ledger that is never read never builds its
    matrix.  Stage-1 writes hold the observed classes, not table positions,
    so the ledger stays the same after the table is overwritten.
    ``entries()`` yields in row-major key order, and ``==`` compares the codes.
    """

    __slots__ = ("n", "_matrix", "_log")

    def __init__(self, n: int) -> None:
        n = index(n)
        if n < 0:
            raise ValueError(f"a ledger needs n >= 0 agents, got {n}")
        self.n = n
        self._matrix: np.ndarray | None = None
        self._log: list[tuple[Callable[..., None], tuple]] = []  # writes not yet replayed

    @property
    def _codes(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.zeros((self.n, self.n), dtype=np.int8)
        if self._log:
            log, self._log = self._log, []
            for write, args in log:
                write(self._matrix, *args)
        return self._matrix

    def _write(self, write: Callable[..., None], *args) -> None:
        """Log ``write(codes, *args)``, replayed into the code matrix on the next read."""
        self._log.append((write, args))

    def record_block(self, stage: int, sources: Iterable[int], targets: Iterable[int]) -> None:
        """Bulk-record the raw cross product sources x targets for stage 2 or 3."""
        if stage not in (2, 3):
            raise ValueError("record_block is for raw stage-2/3 observations")
        keys = _agent_ids(sources, self.n)[:, None] * self.n + _agent_ids(targets, self.n)
        self._write(_write_codes, keys.reshape(-1), _STAGE_CODES[stage][0])

    def stage2_between(self, agent: int, members: Iterable[int]) -> bool:
        """Whether any stage-2 entry links ``agent`` with one of ``members`` (either direction)."""
        _agent_ids((agent,), self.n)
        m = _agent_ids(members, self.n)
        codes = self._codes
        return bool(((codes[agent, m] == _STAGE2) | (codes[m, agent] == _STAGE2)).any())

    def merge(self, other: "RevelationLedger") -> None:
        """Add ``other``'s entries for pairs this ledger has not revealed.

        ``other``'s built codes and then its pending writes are appended to
        this ledger's log; neither ledger is read.
        """
        if other.n != self.n:
            raise ValueError(f"cannot merge a ledger over {other.n} agents into one over {self.n}")
        if other._matrix is not None:
            theirs = other._matrix.reshape(-1)
            keys = np.flatnonzero(theirs != 0)  # nonzero is several times slower on int8 than on bool
            self._write(_write_codes, keys, theirs[keys])
        self._log += other._log

    def entries(self, stages: Iterable[int] | None = None):
        """``(stage, source, target, class)`` of every entry of ``stages`` (default all).

        The wanted codes are the set bits of one small mask, so one shift of
        it by each code selects the entries, in row-major key order, without
        widening the ``int8`` matrix (a lookup table indexed by the codes
        would).  Stages and classes are decoded as arrays.  An unknown stage
        selects nothing.
        """
        flat = self._codes.reshape(-1)
        wanted = 0
        for stage in (1, 2, 3) if stages is None else set(stages):
            for code in _STAGE_CODES.get(stage, ()):
                wanted |= 1 << code
        hit = np.right_shift(np.int8(wanted), flat)
        hit &= 1
        keys = np.flatnonzero(hit.view(bool))
        codes = flat[keys]
        src, dst = np.divmod(keys, self.n)
        yield from zip(_CODE_STAGE[codes].tolist(), src.tolist(), dst.tolist(),
                       _CODE_CLASS[codes].tolist())

    def count_by_stage(self) -> dict[int, int]:
        codes = self._codes
        return {stage: sum(int(np.count_nonzero(codes == c)) for c in cs)
                for stage, cs in _STAGE_CODES.items()}

    def __len__(self) -> int:
        return int(np.count_nonzero(self._codes))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RevelationLedger):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._codes, other._codes)


def _check_ledger(game: HedonicGame, ledger: RevelationLedger | None) -> None:
    if ledger is not None and ledger.n != game.n:
        raise ValueError(f"ledger covers {ledger.n} agents, the game {game.n}")


def _stage1_codes(n: int, U: np.ndarray, tau: float,
                  steps: list[tuple[tuple[int, ...], list[int]]]) -> tuple[np.ndarray, np.ndarray]:
    """Flat keys and codes of the stage-1 checks of every (members, scanned candidates) step.

    Each code is ``_BELOW`` or ``_AT_LEAST``, as the entry was observed
    against ``tau``.  Each candidate w is checked member by member, u_w(z)
    then u_z(w), up to and including the first value below ``tau``.  No
    ordered pair occurs twice: a candidate is scanned once per clique and
    members leave the scan.
    """
    by_size: dict[int, list[tuple[tuple[int, ...], list[int]]]] = {}
    for members, scanned in steps:
        by_size.setdefault(len(members), []).append((members, scanned))
    keys, codes = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.int8)]
    for m, group in by_size.items():
        counts = np.fromiter((len(scanned) for _, scanned in group), dtype=np.intp,
                             count=len(group))
        w = np.fromiter(chain.from_iterable(scanned for _, scanned in group), dtype=np.intp,
                        count=int(counts.sum()))[:, None]
        z = np.repeat(np.array([members for members, _ in group], dtype=np.intp), counts, axis=0)
        # Column 2i is the check u_w(z_i), column 2i+1 the check u_{z_i}(w).
        src = np.empty((len(w), 2 * m), dtype=np.intp)
        dst = np.empty_like(src)
        src[:, 0::2], dst[:, 0::2] = w, z
        src[:, 1::2], dst[:, 1::2] = z, w
        ok = U[src, dst] >= tau
        first_below = np.where(ok.all(axis=1), 2 * m, ok.argmin(axis=1))
        seen = np.flatnonzero(np.arange(2 * m) <= first_below[:, None])
        keys.append((src * n + dst).reshape(-1)[seen])
        codes.append(np.where(ok.reshape(-1)[seen], np.int8(_AT_LEAST), np.int8(_BELOW)))
    return np.concatenate(keys), np.concatenate(codes)


def _write_codes(codes: np.ndarray, keys: np.ndarray, code: int | np.ndarray) -> None:
    """Write ``code`` (one, or one per key) at each flat key ``src * n + dst``
    (of valid ids) still at 0."""
    flat = codes.reshape(-1)
    cur = flat[keys]
    flat[keys] = np.where(cur == 0, code, cur)


def _write_stage2(codes: np.ndarray, sources: Sequence[Sequence[int]],
                  targets: Sequence[Sequence[int]]) -> None:
    """Write the raw blocks sources[i] x targets[i] that stage 2 revealed."""
    _write_codes(codes, _cross_keys(sources, targets, len(codes)), _STAGE2)


def _write_stage3(codes: np.ndarray, rem: np.ndarray, order: np.ndarray,
                  sizes: np.ndarray, examined: np.ndarray) -> None:
    """Write stage 3's raw observations of remainder agent ``rem[i]`` against every
    member of each coalition ``examined[i]`` marks (``order`` in blocks of ``sizes``).

    Like ``_write_codes``, only into pairs still at 0; the (rem x order) code
    block is read and written back whole, which is cheaper here than flat keys.
    """
    block = codes[rem][:, order]  # block[i, j]: codes[rem[i], order[j]]
    block[np.repeat(examined, sizes, axis=1) & (block == 0)] = _STAGE3
    codes[rem[:, None], order] = block


def greedy_cliques(game: HedonicGame, carrier: Iterable[int], size: int, threshold: float,
                   ledger: RevelationLedger | None = None
                   ) -> tuple[PartialPartition, set[int]]:
    """Greedily partition ``carrier`` into mutual-threshold cliques of exactly ``size``.

    Seeds are taken in ascending id order and grown by a single ascending scan
    of the remaining agents; a candidate joins only if both directed utilities
    against every current member reach ``threshold``.  The first seed whose
    clique cannot reach ``size`` stops the whole procedure, returning the
    partial partition built so far and the untouched remainder.

    Candidates are tested one at a time through a memoryview of the table,
    member by member, u_w(z) then u_z(w), stopping at the first value below
    ``threshold``; a seed's scan stops at its first hit.  Blocks hold Python
    ``int``s.  With a ledger, the checks are logged to it at the end, their
    observed classes taken from the table then.
    """
    _check_ledger(game, ledger)
    if index(size) < 1:
        raise ValueError("size must be at least 1")
    U = game.utilities
    R = sorted(set(_agent_ids(carrier, game.n).tolist()))
    entry = memoryview(U)  # entry[a, b]: U[a, b] as a Python float, nothing copied
    blocks: list[tuple[int, ...]] = []
    steps: list[tuple[tuple[int, ...], list[int]]] = []  # (members, candidates scanned)
    remainder: set[int] = set()
    while R:
        C = [R[0]]
        taken = [0]  # positions in R consumed by this clique
        i = 1  # next position of R to scan
        while len(C) < size:
            start = i
            hit = False
            while i < len(R):
                w = R[i]
                i += 1
                for z in C:
                    if entry[w, z] < threshold or entry[z, w] < threshold:
                        break
                else:
                    hit = True
                    break
            if i > start:
                steps.append((tuple(C), R[start:i]))
            if not hit:
                break
            C.append(w)
            taken.append(i - 1)
        if len(C) < size:
            remainder = set(R)
            break
        blocks.append(tuple(C))
        for pos in reversed(taken):
            del R[pos]
    if ledger is not None:
        ledger._write(_write_codes, *_stage1_codes(game.n, U, threshold, steps))
    return PartialPartition(game.n, blocks, _trusted=True), remainder


def is_compatible(game: HedonicGame, candidate: Iterable[int], merged: Iterable[int],
                  k: int, config: AlgoConfig,
                  ledger: RevelationLedger | None = None) -> bool:
    """Stage-2 admission test for merging ``candidate`` into ``merged`` at round ``k``.

    Every agent already merged must not lose more than c*s against the
    candidate, and every candidate agent must not lose more than (k-1)*c*s
    against the merged union.  Sums are evaluated in ascending agent order and
    evaluation stops at the first violation; each evaluated sum's constituent
    pairs are logged to the ledger as stage-2 raw observations.

    Entries are read one at a time through a memoryview of the table, and each
    sum equals ``coalition_utility(game, a, ids)`` for its agent ``a`` and its
    sorted ``ids``, bit for bit.  ``candidate`` and ``merged`` must be
    disjoint: a shared agent raises ``PartitionError``.
    """
    if index(k) < 2:
        raise ValueError("merge rounds start at k=2")
    _check_ledger(game, ledger)
    n = game.n
    cand = sorted(set(_agent_ids(candidate, n).tolist()))
    merged_list = sorted(set(_agent_ids(merged, n).tolist()))
    shared = set(cand).intersection(merged_list)
    if shared:
        raise PartitionError(f"candidate and merged share agents {sorted(shared)[:5]}")
    thr_cand, thr_merged = _compat_thresholds(config, config.clique_size(n), k)
    ok, _units, n_eval, n_eval2 = _admit(memoryview(game.utilities), cand, merged_list, k,
                                         thr_cand, thr_merged)
    if ledger is not None:
        ledger._write(_write_stage2, [merged_list[:n_eval], cand[:n_eval2]], [cand, merged_list])
    return ok


def _compat_thresholds(config: AlgoConfig, s: int, k: int) -> tuple[float, float]:
    """Loss thresholds at round ``k``: for merged agents, then for candidate agents."""
    return -config.compat_constant * s, -(k - 1) * config.compat_constant * s


def _admit(entry: memoryview, cand: Sequence[int], merged: Sequence[int], k: int,
           thr_cand: float, thr_merged: float) -> tuple[bool, int, int, int]:
    """``is_compatible`` on sorted, disjoint, valid ids, through a memoryview ``entry``.

    Returns (ok, pair units, n_eval, n_eval2): the sums evaluated reveal
    ``merged[:n_eval] x cand`` and ``cand[:n_eval2] x merged``.  Each sum is
    added in a plain loop from +0.0, so it equals ``coalition_utility`` of
    its agent and the other side's ids.
    """
    n_eval = 0
    for n_eval, a in enumerate(merged, 1):
        t = 0.0
        for b in cand:
            t += entry[a, b]
        if t < thr_cand:
            return False, n_eval, n_eval, 0
    n_eval2 = 0
    for n_eval2, b in enumerate(cand, 1):
        t = 0.0
        for a in merged:
            t += entry[b, a]
        if t < thr_merged:
            return False, n_eval + n_eval2 * (k - 1), n_eval, n_eval2
    return True, n_eval + n_eval2 * (k - 1), n_eval, n_eval2


class AttemptRecord(NamedTuple):
    """One stage-2 merge attempt: which round, which position, how many checks."""

    round_index: int
    position: int  # 1-based round position k
    group: int
    candidate_index: int
    success: bool
    pair_units: int


@dataclass
class _Stage2Trace:
    """Stage 2's merge attempts as columns; the records, the ledger write and
    stage 3's links are built from them only when read.

    Attempt j summed ``n_eval[j]`` rows of its scan's union against
    ``cands[j]``, then ``n_eval2[j]`` rows of ``cands[j]`` against the union.
    Each position scan is one ``scans`` entry (round, position k, the union
    before the scan, index of its first attempt).  A scan ends at its
    successful attempt, except a last one that ``stopped`` stage 2.
    """

    n_eval: list[int] = field(default_factory=list)
    n_eval2: list[int] = field(default_factory=list)
    cands: list[tuple[int, ...]] = field(default_factory=list)
    scans: list[tuple[int, int, Sequence[int], int]] = field(default_factory=list)
    stopped: bool = False

    def _spans(self):
        """Yield (round, k, union, first, stop) per scan, its attempts first..stop-1."""
        stops = [scan[3] for scan in self.scans[1:]] + [len(self.cands)]
        for (r, k, union, first), stop in zip(self.scans, stops):
            yield r, k, union, first, stop

    @cached_property
    def attempts(self) -> tuple[AttemptRecord, ...]:
        """One record per attempt, in attempt order."""
        out = []
        last = len(self.scans) - 1
        for i, (r, k, _union, first, stop) in enumerate(self._spans()):
            found = not (self.stopped and i == last)
            out += (AttemptRecord(r, k, k - 1, j - first, found and j == stop - 1,
                                  self.n_eval[j] + self.n_eval2[j] * (k - 1))
                    for j in range(first, stop))
        return tuple(out)

    def write(self, codes: np.ndarray) -> None:
        """Ledger write of the raw blocks the attempts revealed: attempt j's
        union[:n_eval] x cand and cand[:n_eval2] x union."""
        sources: list[Sequence[int]] = []
        targets: list[Sequence[int]] = []
        for _r, _k, union, first, stop in self._spans():
            for j in range(first, stop):
                cand = self.cands[j]
                sources += (union[:self.n_eval[j]], cand[:self.n_eval2[j]])
                targets += (cand, union)
        _write_stage2(codes, sources, targets)

    def links(self, rounds: int) -> tuple[np.ndarray, np.ndarray]:
        """(agent, coalition) pairs that a stage-2 entry links, for the first ``rounds`` rounds.

        A round's union lies inside its merged coalition once the round
        completes.  An attempt against a nonempty union read u_m(b) for a union
        member m and every candidate agent b, linking its whole clique.  Joined
        candidates are listed too; callers look up only remainder agents.
        Stage 2 pairs different groups, so no stage-1 code shadows a link.
        """
        agents: list[int] = []
        coalitions: list[int] = []
        for r, _k, union, first, stop in self._spans():
            if r < rounds and union:
                agents += chain.from_iterable(self.cands[first:stop])
                coalitions += [r] * (len(agents) - len(coalitions))
        return np.array(agents, dtype=np.intp), np.array(coalitions, dtype=np.intp)


def _greedy_cluster_detailed(game: HedonicGame, partitions: list[PartialPartition],
                             config: AlgoConfig
                             ) -> tuple[PartialPartition, set[int],
                                        tuple[tuple[tuple[int, ...], ...], ...], _Stage2Trace]:
    """``greedy_cluster`` without a ledger or input checks, returning what its
    views are derived from.

    ``partitions`` are at least two pairwise disjoint partial partitions of
    the game's agents.  Returns (merged, remainder, composition, trace): each
    merged coalition's cliques and the columns of every attempt.
    """
    g = len(partitions)
    n = game.n
    entry = memoryview(game.utilities)
    s = config.clique_size(n)
    thresholds = [_compat_thresholds(config, s, kk + 1) for kk in range(g)]

    # Blocks are sorted (``greedy_cliques`` builds them ascending, ``PartialPartition``
    # sorts a caller's), so ``_admit`` reads them as they are.
    avail: list[list[tuple[int, ...]]] = [list(p.coalitions) for p in partitions]
    trace = _Stage2Trace()
    n_evals, n_evals2, cands, scans = trace.n_eval, trace.n_eval2, trace.cands, trace.scans
    merged_blocks: list[tuple[int, ...]] = []
    composition: list[tuple[tuple[int, ...], ...]] = []

    def finish():
        leftovers: set[int] = set()
        for group in avail:
            for block in group:
                leftovers.update(block)
        return (PartialPartition(n, merged_blocks, _trusted=True), leftovers,
                tuple(composition), trace)

    while avail[0]:
        chosen_idx: list[int] = [0] * g
        merged_list: Sequence[int] = avail[0][0]
        for kk in range(1, g):
            thr_cand, thr_merged = thresholds[kk]
            scans.append((len(merged_blocks), kk + 1, merged_list, len(cands)))
            found = None
            for idx, cand in enumerate(avail[kk]):
                ok, _units, n_eval, n_eval2 = _admit(entry, cand, merged_list, kk + 1,
                                                     thr_cand, thr_merged)
                n_evals.append(n_eval)
                n_evals2.append(n_eval2)
                cands.append(cand)
                if ok:
                    found = idx
                    break
            if found is None:
                trace.stopped = True
                return finish()
            chosen_idx[kk] = found
            merged_list = sorted((*merged_list, *avail[kk][found]))
        composition.append(tuple(avail[kk].pop(chosen_idx[kk]) for kk in range(g)))
        merged_blocks.append(tuple(merged_list))
    return finish()


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

    Compatibility is ``is_compatible``'s test, through the same scalar
    function: each sum equals ``coalition_utility`` of its agent and the
    other side's sorted ids.
    Overlapping partial partitions raise ``PartitionError``.  With a ledger,
    every revealed entry is logged to it at the end.
    """
    _check_ledger(game, ledger)
    if len(partitions) < 2:
        raise ValueError("need at least two partial partitions to merge")
    ids = _agent_ids(chain.from_iterable(p.carrier for p in partitions), game.n)
    if np.unique(ids).size < ids.size:
        raise PartitionError("partial partitions must be pairwise disjoint")
    merged, remainder, _composition, trace = _greedy_cluster_detailed(game, partitions, config)
    if ledger is not None:
        ledger._write(trace.write)
    return merged, remainder


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

    With a ledger, the stage-2 links are read from its code matrix, and the
    stage-3 observations are logged to it at the end, each to land in a pair
    that no earlier stage revealed.
    """
    rem = sorted(set(_agent_ids(remainder, game.n).tolist()))  # Python ints for the blocks
    carrier = merged.carrier
    _agent_ids(carrier, game.n)
    overlap = carrier.intersection(rem)
    if overlap:
        raise PartitionError(f"remainder overlaps the merged carrier: {sorted(overlap)[:5]}")
    if len(carrier) + len(rem) != game.n:
        raise PartitionError("merged carrier plus remainder must cover all agents")
    _check_ledger(game, ledger)
    partition, success, stage3 = _complete_with_trace(game, merged, rem, [], ledger=ledger)
    if ledger is not None:
        ledger._write(_write_stage3, *stage3)
    return partition, success


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
        return {**asdict(self),
                "group_remainders": list(self.group_remainders),
                "coalition_size_histogram": {str(k): v for k, v in
                                             sorted(self.coalition_size_histogram.items())}}


@dataclass
class ThreeStageResult:
    """Full trace of one run, for structural verification.

    ``ledger`` builds its code matrix on first read (see ``RevelationLedger``),
    and ``attempts`` builds its records from stage 2's columns on first read.
    """

    partition: Partition
    report: StageReport
    ledger: RevelationLedger
    groups: tuple[tuple[int, ...], ...]
    clique_partitions: tuple[PartialPartition, ...]
    group_remainders: tuple[tuple[int, ...], ...]
    merged: PartialPartition
    merged_composition: tuple[tuple[tuple[int, ...], ...], ...]
    stage2_remainder: tuple[int, ...]
    _stage2: _Stage2Trace
    placements: tuple[tuple[int, int | None, bool], ...] = field(default_factory=tuple)

    @property
    def attempts(self) -> tuple[AttemptRecord, ...]:
        return self._stage2.attempts


def run_three_stage_detailed(game: HedonicGame, config: AlgoConfig) -> ThreeStageResult:
    n = game.n
    g = config.num_groups
    s = config.clique_size(n)
    tau = config.edge_threshold

    ranges = [range(j, n, g) for j in range(g)]  # round robin, sizes within one
    ledger = RevelationLedger(n)
    stage1_out = [greedy_cliques(game, r, s, tau, ledger) for r in ranges]

    cliques = tuple(out[0] for out in stage1_out)
    rem1 = tuple(tuple(sorted(out[1])) for out in stage1_out)

    # The flags need no block-size check: ``greedy_cliques`` returns only full
    # cliques of size s, and stage 2 merges exactly one clique per group.
    cap1 = config.stage1_cap(n)
    stage1_success = all(len(r) <= cap1 for r in rem1)

    merged, remainder2, composition, stage2 = _greedy_cluster_detailed(
        game, list(cliques), config)
    ledger._write(stage2.write)
    rem2 = tuple(sorted(remainder2))

    all_remainder = sorted(set().union(*map(set, rem1), remainder2))
    stage2_success = stage1_success and len(all_remainder) <= config.stage2_cap(n)

    # Stage 3, run once: place the remainder and record each agent's placement.
    placements: list[tuple[int, int | None, bool]] = []
    partition, stage3_success, stage3 = _complete_with_trace(
        game, merged, all_remainder, placements,
        links=stage2.links(len(merged)))
    ledger._write(_write_stage3, *stage3)

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
        groups=tuple(map(tuple, ranges)),
        clique_partitions=cliques,
        group_remainders=rem1,
        merged=merged,
        merged_composition=composition,
        stage2_remainder=rem2,
        _stage2=stage2,
        placements=tuple(placements),
    )


def _complete_with_trace(game, merged, rem, placements_out, *, ledger=None, links=None):
    """complete_partition with a per-agent placement trace appended to ``placements_out``.

    ``rem`` is the remainder as a sorted list of unique Python ints.  The
    stage-2 links come from ``ledger``'s codes, or from ``links``, the
    (agent, coalition index) arrays of ``_Stage2Trace.links``; with neither,
    every coalition is open to every agent.  Each placement uses up one
    coalition, so only the first ``len(merged)`` remainder agents are placed
    and only their utilities and links are gathered; the rest become
    singletons.  Returns (partition, success, stage3), where stage3 is
    ``_write_stage3``'s arguments after the code matrix.
    """
    n = game.n
    blocks = list(merged.coalitions)
    nb = len(blocks)
    placed, singles = rem[:nb], rem[nb:]
    U = game.utilities
    rem_arr = np.asarray(placed, dtype=np.intp)
    order = np.fromiter((a for block in blocks for a in block), dtype=np.intp)
    sizes = np.array([len(b) for b in blocks], dtype=np.intp)
    starts = np.zeros(nb, dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    vals = np.empty((len(placed), nb))
    for r0 in range(0, len(placed), _GATHER_ROWS):
        tile = rem_arr[r0:r0 + _GATHER_ROWS]
        vals[r0:r0 + len(tile)] = np.add.reduceat(U[tile[:, None], order], starts, axis=1)

    alive = np.ones(nb, dtype=bool)
    open_to = np.ones((len(placed), nb), dtype=bool)  # no stage-2 link to the coalition
    if ledger is not None:
        codes = ledger._codes
        linked = ((codes[rem_arr][:, order] == _STAGE2)  # codes[a, m]: remainder a, member m
                  | (codes.take(rem_arr, axis=1).take(order, axis=0).T == _STAGE2))
        open_to = ~np.logical_or.reduceat(linked, starts, axis=1)
    elif links is not None:
        agents, coalitions = links
        row_of = np.full(n, -1, dtype=np.intp)
        row_of[rem_arr] = np.arange(len(placed))
        rows = row_of[agents]
        hit = rows >= 0
        open_to[rows[hit], coalitions[hit]] = False
    examined = np.zeros_like(open_to)
    additions: dict[int, int] = {}
    success = not singles
    neg_inf = -np.inf
    for r_i, a in enumerate(placed):
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
    placements_out.extend((a, None, False) for a in singles)

    final_blocks: list[tuple[int, ...]] = []
    for i, block in enumerate(blocks):
        if i in additions:
            final_blocks.append(tuple(sorted(block + (additions[i],))))
        else:
            final_blocks.append(block)
    final_blocks.extend((a,) for a in singles)
    return Partition(n, final_blocks, _trusted=True), success, (rem_arr, order, sizes, examined)


def run_three_stage(game: HedonicGame, config: AlgoConfig
                    ) -> tuple[Partition, StageReport, RevelationLedger]:
    """Run all three stages; always returns a valid partition of every agent.

    The ledger builds its code matrix on first read, without the game's
    table, so a caller may discard it or refill the table first.
    """
    res = run_three_stage_detailed(game, config)
    return res.partition, res.report, res.ledger
