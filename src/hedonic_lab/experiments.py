"""Monte Carlo campaigns, exhaustive sweeps, and result export.

Trials are embarrassingly parallel: each draws its own generator from a seed
derived statelessly from the campaign master, and aggregation is by counting,
so results are identical at any worker count.  Heavy inner loops (grand
coalition flags, fixed-shape stability, exhaustive existence) are vectorized
over trial batches; each forms its block sums in its own layout and reduces
the per-agent verdicts of ``stability.agent_verdicts``.  Exhaustive existence,
for every concept, is one pass of ``existence_by_k`` over all set partitions
per n, each built in one step from its (n − 1)-agent prefix, whose block sums
are formed once for all its children; ``check`` is not called.
"""
from __future__ import annotations

import enum
import itertools
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from .clustering import AlgoConfig, run_three_stage
from .games import _integer
# exists_stable is unused but kept: perfbench/tracing.py wraps it here by name, with three more.
from .oracle import DEFAULT_ENUMERATION_LIMIT, EnumerationLimitError, exists_stable, rgs_strings
from .sampling import SeedSpec, UtilityDistribution, derive_trial_seed, sample_game
from .stability import Concept, agent_verdicts, concept_profile

__all__ = [
    "WILSON_Z",
    "wilson_interval",
    "FrequencyEstimate",
    "ResultRow",
    "TrialSummary",
    "CampaignKind",
    "Campaign",
    "CampaignResult",
    "run_campaign",
    "run_mc_alg",
    "run_oracle_existence",
    "run_grand_coalition_study",
    "run_bounds_compare",
    "run_lemma_verify",
    "existence_by_k",
    "nash_existence_by_k",
    "grand_coalition_flags",
    "fixed_shape_ns_successes",
    "sample_lagrange_instance",
    "export_results",
    "load_results",
]

WILSON_Z = 1.959963984540054  # two-sided 95%

# Trials of distinct n-values (or shapes) live in disjoint seed blocks.
TRIAL_BLOCK = 1 << 40

_BATCH = 2048


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; well behaved at 0 and 1."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in 0..trials")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return max(0.0, center - margin), min(1.0, center + margin)


@dataclass(frozen=True)
class FrequencyEstimate:
    successes: int
    trials: int
    estimate: float
    wilson_lo: float
    wilson_hi: float

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "FrequencyEstimate":
        lo, hi = wilson_interval(successes, trials)
        return cls(successes, trials, successes / trials, lo, hi)


@dataclass(frozen=True)
class ResultRow:
    """One exported line: a measured frequency (or estimate) plus optional bound."""

    n: int
    property: str
    successes: int
    trials: int
    estimate: float
    wilson_lo: float
    wilson_hi: float
    bound_value: float | None = None

    @classmethod
    def from_frequency(cls, n: int, prop: str, freq: FrequencyEstimate,
                       bound: float | None = None) -> "ResultRow":
        return cls(n, prop, freq.successes, freq.trials, freq.estimate,
                   freq.wilson_lo, freq.wilson_hi, bound)

    def to_dict(self) -> dict:
        return {
            "n": self.n, "property": self.property, "successes": self.successes,
            "trials": self.trials, "estimate": self.estimate,
            "wilson_lo": self.wilson_lo, "wilson_hi": self.wilson_hi,
            "bound_value": self.bound_value,
        }


@dataclass(frozen=True)
class TrialSummary:
    """Per-trial outcome record; wall time is informational and ignored by equality."""

    n: int
    trial: int
    seed_stream: int
    outcomes: tuple[tuple[str, bool], ...]
    coalition_sizes: tuple[tuple[int, int], ...] = ()
    wall_ms: float = field(default=0.0, compare=False)

    def outcome(self, prop: str) -> bool:
        for name, val in self.outcomes:
            if name == prop:
                return val
        raise KeyError(prop)


class CampaignKind(enum.Enum):
    MC_ALG = "mc-alg"
    MC_GRAND = "mc-grand"
    ORACLE_EXISTENCE = "oracle-existence"
    BOUNDS_COMPARE = "bounds-compare"
    LEMMA_VERIFY = "lemma-verify"

    @classmethod
    def parse(cls, name: str) -> "CampaignKind":
        key = name.strip().lower().replace("_", "-")
        for kind in cls:
            if kind.value == key:
                return kind
        raise ValueError(f"unknown campaign kind {name!r}")


@dataclass(frozen=True)
class Campaign:
    """One campaign's settings.  ``workers`` threads run ``mc-alg`` trials; the
    other kinds are batched and ignore it."""

    kind: CampaignKind
    n_values: tuple[int, ...]
    trials: int
    dist: UtilityDistribution
    master_seed: SeedSpec
    config: AlgoConfig | None = None
    concepts: tuple[Concept, ...] = ()
    shape_ks: tuple[int, ...] = ()
    m_values: tuple[int, ...] = ()
    k_values: tuple[int, ...] = ()
    workers: int = 1
    oracle_limit: int = DEFAULT_ENUMERATION_LIMIT

    def __post_init__(self) -> None:
        # Counts are read by the agent-id rule and stored as Python ints.
        for name in ("trials", "workers", "oracle_limit"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("n_values", "shape_ks", "m_values", "k_values"):
            object.__setattr__(self, name, tuple(_integer(v, name) for v in getattr(self, name)))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.kind is not CampaignKind.LEMMA_VERIFY:
            if not self.n_values:
                raise ValueError("n_values must be nonempty")
            if any(a >= b for a, b in zip(self.n_values, self.n_values[1:])):
                raise ValueError("n_values must be strictly ascending")
        # A repeated value would export duplicate or conflicting rows.
        for name in ("concepts", "shape_ks", "m_values", "k_values"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass
class CampaignResult:
    campaign: Campaign
    rows: list[ResultRow]
    summaries: list[TrialSummary]


def _map_trials(fn, count: int, workers: int) -> list:
    if workers <= 1:
        return [fn(t) for t in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


# ---------------------------------------------------------------- MC_ALG ----

_ALG_CONCEPTS = tuple(Concept)
_ALG_PROPERTIES = tuple(c.value for c in _ALG_CONCEPTS) + (
    "stage1-success", "stage2-success", "stage3-success", "ir_enter_exit")


def run_mc_alg(campaign: Campaign, *, keep_summaries: bool = True) -> CampaignResult:
    """Sample games, run the three-stage algorithm, measure stability of its output."""
    if campaign.kind is not CampaignKind.MC_ALG:
        raise ValueError("campaign kind must be mc-alg")
    config = campaign.config or AlgoConfig()
    rows: list[ResultRow] = []
    summaries: list[TrialSummary] = []
    # One utility table per worker thread, refilled by each of its trials: a
    # trial reads its game only until it returns, and the ledger that
    # run_three_stage returns does not read the table.
    tables = threading.local()

    for n_idx, n in enumerate(campaign.n_values):
        base = n_idx * TRIAL_BLOCK

        def one_trial(t: int, n=n, base=base) -> TrialSummary:
            t0 = time.perf_counter()
            seed = derive_trial_seed(campaign.master_seed, base + t)
            if getattr(tables, "n", None) != n:
                tables.buf = None  # the last n's table is freed before this one is made
                tables.buf, tables.n = np.empty((n, n)), n
            game = sample_game(n, campaign.dist, seed, out=tables.buf)
            partition, report, _ledger = run_three_stage(game, config)
            prof = concept_profile(game, partition)
            combo = (prof[Concept.INDIVIDUALLY_RATIONAL]
                     and prof[Concept.ENTER_DENIED] and prof[Concept.EXIT_DENIED])
            outcomes = tuple((c.value, prof[c]) for c in _ALG_CONCEPTS) + (
                ("stage1-success", report.stage1_success),
                ("stage2-success", report.stage2_success),
                ("stage3-success", report.stage3_success),
                ("ir_enter_exit", combo),
            )
            sizes = tuple(sorted(report.coalition_size_histogram.items()))
            return TrialSummary(n=n, trial=t, seed_stream=seed.stream_index,
                                outcomes=outcomes, coalition_sizes=sizes,
                                wall_ms=(time.perf_counter() - t0) * 1e3)

        trial_results = _map_trials(one_trial, campaign.trials, campaign.workers)
        for prop in _ALG_PROPERTIES:
            succ = sum(1 for s in trial_results if s.outcome(prop))
            rows.append(ResultRow.from_frequency(
                n, prop, FrequencyEstimate.from_counts(succ, campaign.trials)))
        if keep_summaries:
            summaries.extend(trial_results)
    return CampaignResult(campaign, rows, summaries)


# ------------------------------------------------------- ORACLE_EXISTENCE ----

# Restricted growth strings of the first n − 1 agents (the prefixes) are read
# from ``rgs_strings`` per table slice (int8, _RGS_ROWS × (n − 1) bytes).  A
# chunk is the children built at once for a group of prefixes: some of their
# join children, or all their new-block children.  It holds at least one
# child of k blocks, so at most max(_CHUNK, k·T·n) float64 sums (children ×
# blocks × games × agents): 512 KB while k·T·n ≤ _CHUNK, but T = 2,000 games
# at n = 9 make one-child chunks of up to 9·2,000·9 sums (1.3 MB) at k = 9.
# The prefixes' own sums, m·T·n each, live beside their chunks and are fewer
# than their new-block children's.
_RGS_ROWS = 1 << 14
_CHUNK = 1 << 16

# Concepts read from the block sums, from ``F`` (some member of a block has a
# negative utility for the agent) and from ``G`` (some member, a positive one).
_NEEDS_S = frozenset(Concept) - {Concept.ENTER_DENIED, Concept.EXIT_DENIED}
_NEEDS_F = frozenset({Concept.INDIVIDUAL, Concept.CONTRACTUAL_INDIVIDUAL, Concept.ENTER_DENIED})
_NEEDS_G = frozenset({Concept.CONTRACTUAL_NASH, Concept.CONTRACTUAL_INDIVIDUAL,
                      Concept.EXIT_DENIED})


def _prefix_tables(n: int):
    """Restricted growth strings of length n − 1 as int8 tables of at most _RGS_ROWS rows."""
    if n == 1:
        yield np.zeros((1, 0), np.int8)
        return
    strings = itertools.chain.from_iterable(rgs_strings(n - 1))
    while True:
        table = np.fromiter(itertools.islice(strings, _RGS_ROWS * (n - 1)),
                            np.int8).reshape(-1, n - 1)
        if not len(table):
            return
        yield table


def _join_children(acc: np.ndarray, last: np.ndarray, c0: int, w: int,
                   out: np.ndarray) -> np.ndarray:
    """Rows of the join children, written to the front of ``out``: the parents'
    rows ``acc`` (P, 1, m, T·n), one copy per block c in c0..c0+w−1, with
    ``last`` added to row c."""
    P, _, m, TN = acc.shape
    child = out[:P * w * m * TN].reshape(P, w, m, TN)
    child[...] = acc
    child = child.reshape(P, w * m, TN)
    # Row c0 + i of copy i is row i·m + c0 + i = c0 + i·(m + 1): a strided view.
    child[:, c0::m + 1][:, :w] += last
    return child.reshape(-1, TN)


def _new_block_child(acc: np.ndarray, last: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows of the new-block children, written to the front of ``out``: the
    parents' rows ``acc`` (P, 1, m, T·n) and, as block m, 0 plus ``last``."""
    P, _, m, TN = acc.shape
    child = out[:P * (m + 1) * TN].reshape(P, m + 1, TN)
    child[:, :m] = acc[:, 0]
    child[:, m] = 0
    child[:, m] += last
    return child.reshape(-1, TN)


def _fold_verdicts(exists: dict, layers: dict, lab: np.ndarray, k: int,
                   flat_agent: np.ndarray) -> None:
    """OR into ``exists[c][:, k]`` whether some partition ``lab`` (rows of
    labels, k blocks) is stable; ``layers`` holds its sums ``"S"`` and masks
    ``"F"``/``"G"``, row p * k + j for block j of partition p."""
    P = len(lab)
    T, n = flat_agent.shape
    # own_at[p, t, a]: the flat index of agent a's entry at its own block.
    own_at = ((np.arange(P)[:, None] * k + lab) * (T * n))[:, None, :] + flat_agent
    S, F, G = layers.get("S"), layers.get("F"), layers.get("G")
    own, own_fin = 0.0, None  # read only by concepts that need S, G
    if S is not None:
        own = S.reshape(-1).take(own_at)
        S = S.reshape(P, k, T, n)
    if F is not None:
        if Concept.ENTER_DENIED in exists:  # the only reader of the own flag
            F.reshape(-1)[own_at] = True
        F = F.reshape(P, k, T, n)
    if G is not None:
        own_fin = G.reshape(-1).take(own_at)
    ok = agent_verdicts(S, own, F, own_fin, concepts=exists)
    for c, ex in exists.items():
        # ``all`` over agents, with the agent axis moved first: along the
        # short last axis NumPy would loop once per (partition, game) row.
        stays = np.logical_and.reduce(np.ascontiguousarray(np.moveaxis(ok[c], -1, 0)))
        ex[:, k] |= stays.any(axis=0)


def existence_by_k(games: np.ndarray, concepts) -> dict[Concept, np.ndarray]:
    """For a stacked game batch (T, n, n), decide per concept, game and block
    count k whether some partition into exactly k coalitions is stable.

    Exhaustive over all set partitions; returns one boolean array of shape
    (T, n + 1) per requested concept, indexed by k (entry 0 unused).  Each
    partition is a child of its prefix, the partition of agents 0..n−2 it
    restricts to: with m prefix blocks, the last agent joins block c (k = m)
    or opens block m (k = m + 1).  Prefixes are read from ``rgs_strings(n −
    1)`` in table slices, grouped by m, and their block sums are scattered
    once per chunk of them; each child copies its parent's rows and adds the
    last agent to one of them.  So each block sum starts at 0.0 and adds its
    members in ascending order, the order ``check`` sums in, and every
    concept is a reduction of ``agent_verdicts`` over those sums and two
    favour masks, built by block exactly as the sums are (``+`` on booleans
    is OR):

    - ``F[p * k + j, t * n + a]``: some member b of block j has u_b(a) < 0,
      and set at the own block when enter-denied is requested;
    - ``G``: the same with u_b(a) > 0 (``own_fin`` is ``G`` at the own block).

    Sums, ``F`` and ``G`` are built only when a requested concept reads them.
    A batch that is not square or has a nonzero diagonal raises ``ValueError``.
    """
    T, n, n2 = games.shape
    if n != n2:
        raise ValueError("games must be square")
    if games[:, np.arange(n), np.arange(n)].any():
        raise ValueError("games must have a zero diagonal")
    exists = {c: np.zeros((T, n + 1), dtype=bool) for c in concepts}
    for c in exists:
        if not isinstance(c, Concept):
            raise ValueError(f"unhandled concept {c!r}")
    if T == 0 or not exists:
        return exists
    wanted = set(exists)
    TN = T * n
    # per_agent[key][b] is what agent b adds to its block's row, for every
    # (game, agent a) pair, agent fastest: u_a(b) to the sums, u_b(a) < 0 to
    # F and u_b(a) > 0 to G.
    per_agent = {}
    if wanted & _NEEDS_S:
        per_agent["S"] = np.ascontiguousarray(games.transpose(2, 0, 1)).reshape(n, TN)
    if wanted & _NEEDS_F:
        per_agent["F"] = (games < 0).transpose(1, 0, 2).reshape(n, TN)
    if wanted & _NEEDS_G:
        per_agent["G"] = (games > 0).transpose(1, 0, 2).reshape(n, TN)
    flat_agent = np.arange(TN).reshape(T, n)
    # Every chunk's children are written to one buffer per layer, which holds
    # the largest chunk: a fresh array per chunk would have the allocator map
    # and fault in its pages again and again once the heap is trimmed.
    out = {key: np.empty(max(_CHUNK, n * TN), rows.dtype) for key, rows in per_agent.items()}
    for table in _prefix_tables(n):
        counts = table.max(axis=1, initial=-1) + 1
        for m in np.unique(counts).tolist():
            parents = table[counts == m]
            # A chunk of parents has m join children of m blocks each and one
            # new-block child of m + 1; both sets fit in _CHUNK sums.
            step = max(1, _CHUNK // (max(m, 1) * (m + 1) * TN))
            for p0 in range(0, len(parents), step):
                lab = parents[p0:p0 + step]
                P = len(lab)
                block_row = np.arange(P)[:, None] * m + lab
                base = {}
                for key, rows in per_agent.items():
                    acc = np.zeros((P * m, TN), rows.dtype)
                    for b in range(n - 1):
                        acc[block_row[:, b]] += rows[b]
                    base[key] = acc.reshape(P, 1, m, TN)
                # Join children, ``width`` targets per parent per chunk: all m
                # of them unless one parent's m·m·T·n sums exceed _CHUNK.
                width = max(1, _CHUNK // (P * max(m, 1) * TN))
                for c0 in range(0, m, width):
                    w = min(width, m - c0)
                    child_lab = np.empty((P, w, n), np.int8)
                    child_lab[:, :, :-1] = lab[:, None]
                    child_lab[:, :, -1] = np.arange(c0, c0 + w)
                    children = {key: _join_children(acc, per_agent[key][n - 1], c0, w, out[key])
                                for key, acc in base.items()}
                    _fold_verdicts(exists, children, child_lab.reshape(P * w, n), m, flat_agent)
                child_lab = np.concatenate((lab, np.full((P, 1), m, np.int8)), axis=1)
                children = {key: _new_block_child(acc, per_agent[key][n - 1], out[key])
                            for key, acc in base.items()}
                _fold_verdicts(exists, children, child_lab, m + 1, flat_agent)
    return exists


def nash_existence_by_k(games: np.ndarray) -> np.ndarray:
    """Nash-stable partition existence per game and block count k, shape (T, n + 1).

    ``existence_by_k`` for Nash alone; see there.
    """
    return existence_by_k(games, (Concept.NASH,))[Concept.NASH]


def nash_k_bound(n: int, k: int) -> float:
    """Upper bound on P(some k-block partition is Nash-stable), all k covered.

    The grand coalition (k=1) and the all-singleton shape (k=n) have exact
    probabilities; intermediate k uses the composite counting bound.
    """
    if k == 1:
        return 0.5 ** n
    if k == n:
        return bounds_mod.singleton_partition_ns_probability(n)
    return bounds_mod.nash_k_composite_bound(n, k)


def _sample_game_batch(n: int, dist: UtilityDistribution, master: SeedSpec,
                       base: int, start: int, count: int) -> np.ndarray:
    out = np.empty((count, n, n))
    for i in range(count):
        sample_game(n, dist, derive_trial_seed(master, base + start + i), out=out[i])
    return out


def run_oracle_existence(campaign: Campaign, *, keep_summaries: bool = True) -> CampaignResult:
    """Exhaustively decide stable-partition existence per sampled game."""
    if campaign.kind is not CampaignKind.ORACLE_EXISTENCE:
        raise ValueError("campaign kind must be oracle-existence")
    concepts = campaign.concepts or (Concept.NASH,)
    if max(campaign.n_values) > campaign.oracle_limit:
        raise EnumerationLimitError(
            f"n={max(campaign.n_values)} beyond oracle limit {campaign.oracle_limit}")
    rows: list[ResultRow] = []
    summaries: list[TrialSummary] = []

    for n_idx, n in enumerate(campaign.n_values):
        base = n_idx * TRIAL_BLOCK
        T = campaign.trials
        games = _sample_game_batch(n, campaign.dist, campaign.master_seed, base, 0, T)

        per_k = existence_by_k(games, concepts)
        per_concept = {c: per_k[c][:, 1:].any(axis=1) for c in concepts}

        for c in concepts:
            succ = int(per_concept[c].sum())
            rows.append(ResultRow.from_frequency(
                n, f"exists:{c.value}", FrequencyEstimate.from_counts(succ, T)))
        if Concept.NASH in concepts:
            for k in range(1, n + 1):
                succ = int(per_k[Concept.NASH][:, k].sum())
                rows.append(ResultRow.from_frequency(
                    n, f"exists:nash:k={k}",
                    FrequencyEstimate.from_counts(succ, T), bound=nash_k_bound(n, k)))
        if keep_summaries:
            for t in range(T):
                outcomes = tuple((f"exists:{c.value}", bool(per_concept[c][t]))
                                 for c in concepts)
                summaries.append(TrialSummary(
                    n=n, trial=t,
                    seed_stream=derive_trial_seed(campaign.master_seed, base + t).stream_index,
                    outcomes=outcomes))
    return CampaignResult(campaign, rows, summaries)


# --------------------------------------------------------------- MC_GRAND ----

def grand_coalition_flags(batch: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorized stability flags of the grand (and all-singleton) partition.

    The grand coalition is one block whose sum is each agent's row sum; in the
    singleton partition each agent's block sums are its utilities and its own is 0.
    """
    row_sums = batch.sum(axis=2)
    has_fan = (batch > 0).any(axis=1)  # some b with u_b(a) > 0, per agent a
    grand = agent_verdicts(row_sums[:, None, :], row_sums, own_fin=has_fan,
                           concepts=(Concept.EXIT_DENIED, Concept.CONTRACTUAL_NASH,
                                     Concept.INDIVIDUALLY_RATIONAL, Concept.NASH))
    singletons = agent_verdicts(batch.transpose(0, 2, 1), 0.0, concepts=(Concept.NASH,))
    return {
        "grand-exit-denied": grand[Concept.EXIT_DENIED].all(axis=1),
        "grand-cns": grand[Concept.CONTRACTUAL_NASH].all(axis=1),
        "grand-ir": grand[Concept.INDIVIDUALLY_RATIONAL].all(axis=1),
        "grand-ns": grand[Concept.NASH].all(axis=1),
        "singleton-ns": singletons[Concept.NASH].all(axis=1),
    }


_GRAND_PROPERTIES = ("grand-exit-denied", "grand-cns", "grand-ir", "grand-ns",
                     "singleton-ns")


def run_grand_coalition_study(campaign: Campaign, *,
                              keep_summaries: bool = False) -> CampaignResult:
    """Measure grand-coalition stability frequencies against the closed forms."""
    if campaign.kind is not CampaignKind.MC_GRAND:
        raise ValueError("campaign kind must be mc-grand")
    dist = campaign.dist
    rows: list[ResultRow] = []
    summaries: list[TrialSummary] = []

    for n_idx, n in enumerate(campaign.n_values):
        base = n_idx * TRIAL_BLOCK
        T = campaign.trials
        counts = {p: 0 for p in _GRAND_PROPERTIES}
        done = 0
        while done < T:
            b = min(_BATCH, T - done)
            batch = _sample_game_batch(n, dist, campaign.master_seed, base, done, b)
            flags = grand_coalition_flags(batch)
            for p in _GRAND_PROPERTIES:
                counts[p] += int(flags[p].sum())
            if keep_summaries:
                for i in range(b):
                    outcomes = tuple((p, bool(flags[p][i])) for p in _GRAND_PROPERTIES)
                    summaries.append(TrialSummary(
                        n=n, trial=done + i,
                        seed_stream=derive_trial_seed(
                            campaign.master_seed, base + done + i).stream_index,
                        outcomes=outcomes))
            done += b

        bound_for: dict[str, float | None] = {p: None for p in _GRAND_PROPERTIES}
        bound_for["grand-exit-denied"] = bounds_mod.grand_cns_exit_denied_prob(
            n, dist.positive_mass)
        if dist.mean > 0:
            bound_for["grand-ns"] = bounds_mod.grand_ns_lower_bound(n, dist.lo, dist.hi)
        for p in _GRAND_PROPERTIES:
            rows.append(ResultRow.from_frequency(
                n, p, FrequencyEstimate.from_counts(counts[p], T), bound=bound_for[p]))
    return CampaignResult(campaign, rows, summaries)


# ---------------------------------------------------------- BOUNDS_COMPARE ----

def fixed_shape_ns_successes(n: int, k: int, trials: int, dist: UtilityDistribution,
                             master: SeedSpec, base: int = 0) -> int:
    """Count trials where one fixed equal-size k-block partition is Nash-stable.

    Requires k | n with blocks of size >= 2 so the no-singleton bound applies.
    """
    if n % k != 0 or n // k < 2:
        raise ValueError("need equal blocks of size at least 2 (k | n, n/k >= 2)")
    m = n // k
    lab = np.repeat(np.arange(k), m)
    M = np.zeros((n, k))
    M[np.arange(n), lab] = 1.0
    ar = np.arange(n)
    successes = 0
    done = 0
    chunk_idx = 0
    # Chunked streams: one derived generator per fixed-size chunk.
    chunk = 65536
    while done < trials:
        b = min(chunk, trials - done)
        rng = derive_trial_seed(master, base + chunk_idx).rng()
        chunk_idx += 1
        batch = dist.sample(rng, (b, n, n))
        batch[:, ar, ar] = 0.0
        S = (batch.reshape(b * n, n) @ M).reshape(b, n, k)
        nash = agent_verdicts(S.transpose(0, 2, 1), S[:, ar, lab], concepts=(Concept.NASH,))
        successes += int(nash[Concept.NASH].all(axis=-1).sum())
        done += b
    return successes


def run_bounds_compare(campaign: Campaign) -> CampaignResult:
    """Fixed-shape Nash-stability frequencies against the no-singleton bound."""
    if campaign.kind is not CampaignKind.BOUNDS_COMPARE:
        raise ValueError("campaign kind must be bounds-compare")
    if not campaign.shape_ks:
        raise ValueError("bounds-compare needs shape_ks")
    rows: list[ResultRow] = []
    block = 0
    for n in campaign.n_values:
        for k in campaign.shape_ks:
            succ = fixed_shape_ns_successes(n, k, campaign.trials, campaign.dist,
                                            campaign.master_seed, base=block * TRIAL_BLOCK)
            block += 1
            bound = bounds_mod.nash_partition_bound(n, k, allow_singletons=False)
            rows.append(ResultRow.from_frequency(
                n, f"fixed-shape-ns:k={k}",
                FrequencyEstimate.from_counts(succ, campaign.trials), bound=bound))
    return CampaignResult(campaign, rows, [])


# ------------------------------------------------------------ LEMMA_VERIFY ----

def sample_lagrange_instance(rng: np.random.Generator, max_k: int = 6,
                             max_n: int = 30) -> tuple[list[int], list[float]]:
    """One random (sizes, weights) instance for the product-bound verifier."""
    k = int(rng.integers(1, max_k + 1))
    n_total = int(rng.integers(k, max_n + 1))
    # Random composition of n_total into k positive parts.
    if k == 1:
        s = [n_total]
    else:
        cuts = np.sort(rng.choice(np.arange(1, n_total), size=k - 1, replace=False))
        parts = np.diff(np.concatenate(([0], cuts, [n_total])))
        s = [int(x) for x in parts]
    scale = float(rng.choice([0.01, 1.0, 100.0]))
    q = (scale * rng.random(k) ** 2).tolist()
    if rng.random() < 0.05:
        q[int(rng.integers(0, k))] = 0.0
    return s, q


def run_lemma_verify(campaign: Campaign) -> CampaignResult:
    """Dominance-lemma estimates plus a randomized product-bound search.

    The search counts instances above the true maximum
    (``lagrange-product-violations``, 0 unless this package is at fault) and
    above the symmetric (z/k)^n form (``lagrange-symmetric-form-violations``,
    genuine counterexamples, since that form fails for unequal sizes).
    """
    if campaign.kind is not CampaignKind.LEMMA_VERIFY:
        raise ValueError("campaign kind must be lemma-verify")
    m_values = campaign.m_values or (1, 3, 10)
    k_values = campaign.k_values or (1, 2, 5)
    rows: list[ResultRow] = []
    for m in m_values:
        for k in k_values:
            report = bounds_mod.check_dominance_lemmas(
                m, k, campaign.trials, campaign.master_seed)
            for est in report.estimates:
                rows.append(ResultRow(
                    n=m, property=f"dominance:{est.name}:m={m}:k={k}",
                    successes=1 if est.violated else 0, trials=campaign.trials,
                    estimate=est.estimate,
                    wilson_lo=est.estimate - 3.0 * est.std_error,
                    wilson_hi=est.estimate + 3.0 * est.std_error,
                    bound_value=None))

    rng = derive_trial_seed(campaign.master_seed, 999 * TRIAL_BLOCK).rng()
    violations = 0
    symmetric_violations = 0
    for _ in range(campaign.trials):
        s, q = sample_lagrange_instance(rng)
        if not bounds_mod.verify_lagrange_product_max(s, q):
            violations += 1
        if not bounds_mod.verify_lagrange_product_bound(s, q):
            symmetric_violations += 1
    for prop, count in (("lagrange-product-violations", violations),
                        ("lagrange-symmetric-form-violations", symmetric_violations)):
        rows.append(ResultRow.from_frequency(
            0, prop, FrequencyEstimate.from_counts(count, campaign.trials)))
    return CampaignResult(campaign, rows, [])


_RUNNERS = {
    CampaignKind.MC_ALG: run_mc_alg,
    CampaignKind.MC_GRAND: run_grand_coalition_study,
    CampaignKind.ORACLE_EXISTENCE: run_oracle_existence,
    CampaignKind.BOUNDS_COMPARE: run_bounds_compare,
    CampaignKind.LEMMA_VERIFY: run_lemma_verify,
}


def run_campaign(campaign: Campaign, **kwargs) -> CampaignResult:
    return _RUNNERS[campaign.kind](campaign, **kwargs)


# ----------------------------------------------------------------- export ----

_CSV_HEADER = "n,property,successes,trials,estimate,wilson_lo,wilson_hi,bound_value"


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def export_results(rows: list[ResultRow], path, fmt: str = "csv") -> None:
    """Write rows as CSV or JSON; identical inputs give byte-identical files."""
    fmt = fmt.lower()
    if fmt == "csv":
        lines = [_CSV_HEADER]
        for r in rows:
            lines.append(f"{r.n},{r.property},{r.successes},{r.trials},"
                         f"{_fmt(r.estimate)},{_fmt(r.wilson_lo)},{_fmt(r.wilson_hi)},"
                         f"{_fmt(r.bound_value)}")
        data = ("\n".join(lines) + "\n").encode()
    elif fmt == "json":
        data = (json.dumps({"results": [r.to_dict() for r in rows]},
                           sort_keys=True) + "\n").encode()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def load_results(path, fmt: str = "json") -> list[ResultRow]:
    if fmt.lower() != "json":
        raise ValueError("round-trip import is JSON only")
    with open(path) as fh:
        payload = json.load(fh)
    return [ResultRow(**row) for row in payload["results"]]
