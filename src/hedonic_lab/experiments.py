"""Monte Carlo campaigns, exhaustive sweeps, and result export.

Each trial draws its own generator from a seed derived statelessly from the
campaign master, and aggregation is by counting, so results do not depend on
the order trials run in.  Heavy inner loops (grand
coalition flags, fixed-shape stability, exhaustive existence) are vectorized
over trial batches; each forms its block sums in its own layout and reduces
the per-agent verdicts of ``stability.agent_verdicts``.  Exhaustive existence,
for every concept, is one pass of ``existence_by_k`` over all set partitions
per n, each a child of its (n − 1)-agent prefix, whose block sums are formed
once for all its children.  The breach rule of ``stability.agent_breaches``
rules most children out from the prefix alone, a child is skipped where every
concept is already settled, and only the rest are built and decided exactly;
``check`` is not called.
"""
from __future__ import annotations

import enum
import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from .clustering import AlgoConfig, run_three_stage
from .games import _integer
# exists_stable is unused but kept: perfbench/tracing.py wraps it here by name, with three more.
from .oracle import DEFAULT_ENUMERATION_LIMIT, EnumerationLimitError, exists_stable, rgs_strings
from .sampling import SeedSpec, UtilityDistribution, derive_trial_seed, sample_game
from .stability import Concept, agent_breaches, agent_verdicts, concept_profile

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
    """One campaign's settings.  ``mc-alg`` runs its trials one after another;
    the other kinds are batched."""

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

    def __post_init__(self) -> None:
        # Counts are read by the agent-id rule and stored as Python ints.
        object.__setattr__(self, "trials", _integer(self.trials, "trials"))
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


@dataclass
class CampaignResult:
    campaign: Campaign
    rows: list[ResultRow]
    summaries: list[TrialSummary]


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

    for n_idx, n in enumerate(campaign.n_values):
        base = n_idx * TRIAL_BLOCK
        # One table per n, refilled by each trial (the ledger run_three_stage
        # returns does not read it); the last n's is freed before it is made.
        table = None
        table = np.empty((n, n))
        trial_results = []
        for t in range(campaign.trials):
            t0 = time.perf_counter()
            seed = derive_trial_seed(campaign.master_seed, base + t)
            game = sample_game(n, campaign.dist, seed, out=table)
            partition, report, _ledger = run_three_stage(game, config)
            prof = concept_profile(game, partition)
            combo = (prof[Concept.INDIVIDUALLY_RATIONAL]
                     and prof[Concept.ENTER_DENIED] and prof[Concept.EXIT_DENIED])
            outcomes = tuple(zip(_ALG_PROPERTIES, (
                *(prof[c] for c in _ALG_CONCEPTS), report.stage1_success,
                report.stage2_success, report.stage3_success, combo)))
            sizes = tuple(sorted(report.coalition_size_histogram.items()))
            trial_results.append(TrialSummary(
                n=n, trial=t, seed_stream=seed.stream_index, outcomes=outcomes,
                coalition_sizes=sizes, wall_ms=(time.perf_counter() - t0) * 1e3))
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
# chunk is a group of prefixes with the same block count m whose layers, m·n·T
# entries per prefix (blocks × agents × games), fit in _CHUNK: 512 KB of
# float64 sums, or one prefix when m·n·T is larger (up to 8·9·2,000 sums,
# 1.1 MB, at n = 9, T = 2,000).  The children that survive a chunk's breach
# rule are built and decided in batches whose sums also fit in _CHUNK.
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


def _prefix_layers(per_agent: dict, lab: np.ndarray, m: int) -> dict:
    """Per layer, the (P, m, n, T) rows of the prefixes ``lab`` (P, n − 1):
    entry [p, j, a, t] ORs or sums, from 0 and in ascending order, what each
    member of block j adds for agent a in game t.  When ``F`` is built it is
    set at each prefix agent's own block, which only enter-denied reads."""
    P = len(lab)
    block_row = np.arange(P)[:, None] * m + lab
    layers = {}
    for key, rows in per_agent.items():
        acc = np.zeros((P * m, *rows.shape[1:]), rows.dtype)
        for b in range(lab.shape[1]):
            acc[block_row[:, b]] += rows[b]
        layers[key] = acc.reshape(P, m, *rows.shape[1:])
    if "F" in layers:
        layers["F"][_own_index(lab)] = True
    return layers


def _own_index(lab: np.ndarray) -> tuple:
    """Index of each agent's own block in (P, k, n, T) rows labelled ``lab`` (P, n)."""
    return np.arange(len(lab))[:, None], lab, np.arange(lab.shape[1])


def _allowed_children(layers: dict, lab: np.ndarray, wants: dict) -> np.ndarray:
    """Bit c of entry [p, t] (c < m: join block c; c = m: open block m) is set
    when that child of prefix p may be stable in game t under a concept whose
    ``wants`` (T,) bits (the children of the block counts it has not yet
    settled) include it.  By the breaches of ``stability.agent_breaches``, a
    prefix agent stays only in children that change its own block or a block
    where it breaches: one that fails at its own block, or breaches at two
    others, allows only the child that joins its own block; one that breaches
    at one block j allows that child and the one that joins j.  The last
    agent allows every child."""
    n1 = lab.shape[1]
    m = next(iter(layers.values())).shape[1]
    allowed = 0
    own_at = _own_index(lab)
    S, F, G = (layers[key][:, :, :n1] if key in layers else None for key in "SFG")
    own = layers["S"][own_at] if S is not None else 0.0
    own_fin = layers["G"][own_at] if G is not None else None
    bit = 1 << np.arange(m, dtype=np.uint16)
    only = bit[lab][:, :, None]  # the child that joins the agent's own block
    # The children an agent allows, by the blocks it fails at (its own block
    # counts as a breach there): all for none, that block and its own for one,
    # its own for two or more.
    allows = np.zeros(1 << m, np.uint16)
    allows[0] = 0xFFFF
    allows[bit] = bit
    for c, (O, B) in agent_breaches(S, own, F, own_fin, concepts=wants).items():
        fails = 0 if O is None else O * only
        if B is not None:
            fails = fails | np.add.reduce(B * bit[:, None, None], axis=1, dtype=np.uint16)
        stays = only | allows.take(fails)
        allowed |= np.bitwise_and.reduce(stays, axis=1) & wants[c]
    return allowed


def _decide(exists: dict, concepts, layers: dict, last: dict, lab: np.ndarray,
            p: np.ndarray, t: np.ndarray, c: np.ndarray, k: int) -> None:
    """OR into ``exists[concept][t, k]``, for ``concepts``, the verdicts of the
    children of prefixes ``lab[p]`` in games ``t`` whose last agent is in block
    ``c``.  Each copies its prefix's rows and adds ``last`` (what the last agent
    adds, (n, T) per layer) to row c, which starts at 0 for a new block
    (c = m = k − 1).  Rows are laid out (agent, block, child), so that every
    reduction runs over a leading axis."""
    Q, m = len(p), next(iter(layers.values())).shape[1]
    q = np.arange(Q)
    # own_at: each agent's own block in (n, k, Q) rows.
    own_at = (np.arange(lab.shape[1] + 1)[:, None],
              np.concatenate((lab[p], c[:, None]), axis=1).T, q)
    rows = {}
    for key, pre in layers.items():
        child = np.empty((pre.shape[2], k, Q), pre.dtype)
        child[:, :m] = pre.transpose(2, 1, 0, 3)[:, :, p, t]
        if k > m:
            child[:, m] = 0
        child[:, c, q] += last[key][:, t]
        rows[key] = child
    S, F, G = rows.get("S"), rows.get("F"), rows.get("G")
    own = S[own_at] if S is not None else 0.0
    if F is not None:
        F[own_at] = True  # the last agent's own flag; the prefix agents' are set
    own_fin = G[own_at] if G is not None else None
    for concept, ok in agent_verdicts(S, own, F, own_fin, concepts=concepts).items():
        exists[concept][t[np.logical_and.reduce(ok)], k] = True


def existence_by_k(games: np.ndarray, concepts) -> dict[Concept, np.ndarray]:
    """For a stacked game batch (T, n, n), decide per concept, game and block
    count k whether some partition into exactly k coalitions is stable.

    Exhaustive over all set partitions; returns one boolean array of shape
    (T, n + 1) per requested concept, indexed by k (entry 0 unused).  Each
    partition is a child of its prefix, the partition of agents 0..n−2 it
    restricts to: with m prefix blocks, the last agent joins block c (k = m)
    or opens block m (k = m + 1).  Prefixes are read from ``rgs_strings(n −
    1)`` in table slices, grouped by m, and their rows are scattered once per
    chunk of them: block sums, and two favour masks built by block exactly as
    the sums are (``+`` on booleans is OR):

    - ``F[p, j, a, t]``: some member b of block j has u_b(a) < 0 in game t,
      set at the own block (read by enter-denied only);
    - ``G``: the same with u_b(a) > 0 (``own_fin`` is ``G`` at the own block).

    Each is built only when a requested concept reads it.  Per chunk, the
    breach rule of ``stability.agent_breaches`` (see ``_allowed_children``)
    rules children out from the prefixes' own rows: an agent of the prefix
    that fails at its own block, or at two other blocks, fails in every child
    but the one that joins its own block, and one that fails at one other
    block j in every child but that one and the one that joins j.  A child
    is also skipped where
    every concept is already settled for its game and block count, since
    existence is an OR.  Only the other (prefix, game, child) triples are
    built and decided, exactly, by ``agent_verdicts``: each child copies its
    prefix's rows and adds the last agent to one of them.  So each block sum
    starts at 0.0 and adds its members in ascending order, the order
    ``check`` sums in, and the rule compares the very floats the verdicts do.
    A batch that is not square, has a nonzero diagonal or more than 16 agents
    (a child is one bit of a 16-bit word) raises ``ValueError``.
    """
    T, n, n2 = games.shape
    if n != n2:
        raise ValueError("games must be square")
    if n > 16:
        raise ValueError(f"existence_by_k takes at most 16 agents, not {n}")
    if games[:, np.arange(n), np.arange(n)].any():
        raise ValueError("games must have a zero diagonal")
    exists = {c: np.zeros((T, n + 1), dtype=bool) for c in concepts}
    for c in exists:
        if not isinstance(c, Concept):
            raise ValueError(f"unhandled concept {c!r}")
    if T == 0 or not exists:
        return exists
    wanted = set(exists)
    # per_agent[key][b, a, t] is what agent b adds to its block's row for agent
    # a in game t: u_a(b) to the sums, u_b(a) < 0 to F and u_b(a) > 0 to G.
    per_agent = {}
    if wanted & _NEEDS_S:
        per_agent["S"] = np.ascontiguousarray(games.transpose(2, 1, 0))
    if wanted & _NEEDS_F:
        per_agent["F"] = np.ascontiguousarray((games < 0).transpose(1, 2, 0))
    if wanted & _NEEDS_G:
        per_agent["G"] = np.ascontiguousarray((games > 0).transpose(1, 2, 0))
    last = {key: rows[n - 1] for key, rows in per_agent.items()}
    for table in _prefix_tables(n):
        counts = table.max(axis=1, initial=-1) + 1
        for m in np.unique(counts).tolist():
            parents = table[counts == m]
            step = max(1, _CHUNK // (max(m, 1) * n * T))
            joins, opens = np.uint16((1 << m) - 1), np.uint16(1 << m)
            for p0 in range(0, len(parents), step):
                # Per concept and game, the children of the block counts m and
                # m + 1 that are not yet settled.
                wants = {}
                for concept, ex in exists.items():
                    want = ~ex[:, m] * joins | ~ex[:, m + 1] * opens
                    if want.any():
                        wants[concept] = want
                if not wants:
                    break
                lab = parents[p0:p0 + step]
                layers = _prefix_layers(per_agent, lab, m)
                allowed = _allowed_children(layers, lab, wants)
                # Survivors by child, so the join children (k = m) come first.
                c, p, t = np.nonzero(allowed >> np.arange(m + 1, dtype=np.uint16)[:, None, None] & 1)
                c = c.astype(np.int8)
                opened = np.searchsorted(c, m)
                for k, q0, q1 in ((m, 0, opened), (m + 1, opened, len(c))):
                    batch = max(1, _CHUNK // (max(k, 1) * n))
                    for q in range(q0, q1, batch):
                        q = slice(q, min(q + batch, q1))
                        _decide(exists, wants, layers, last, lab, p[q], t[q], c[q], k)
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
    if max(campaign.n_values) > DEFAULT_ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"n={max(campaign.n_values)} beyond oracle limit {DEFAULT_ENUMERATION_LIMIT}")
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

def sample_lagrange_instance(rng: np.random.Generator) -> tuple[list[int], list[float]]:
    """One random (sizes, weights) instance of 1 to 6 blocks and at most 30 agents."""
    k = int(rng.integers(1, 7))
    n_total = int(rng.integers(k, 31))
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
