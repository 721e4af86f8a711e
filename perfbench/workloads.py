"""The benchmark's workloads: inputs, one round of operations, and their checks.

A workload object is built from the benchmark seed, then runs whole rounds;
each operation in a round is timed on its own and checked after its timer
stops.  ``round`` returns one ``OpResult`` per operation.  With a tracer
the same operations run with spans and counters around the program's public
functions (see ``tracing.py``).
"""
from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

import checks
from hedonic_lab import (AlgoConfig, Concept, RevelationLedger, SeedSpec, UtilityDistribution,
                         complete_partition, concept_profile, count_stable, derive_trial_seed,
                         exists_stable, greedy_cliques, greedy_cluster, run_three_stage,
                         sample_game)
from hedonic_lab.clustering import default_clique_size
from hedonic_lab.experiments import Campaign, CampaignKind, run_oracle_existence

D = UtilityDistribution.uniform(-1.0, 1.0)
ORACLE_N = 9
EXISTENCE_GAMES = 8  # games per existence campaign
COUNT_GAMES = 2  # count_stable calls per round
# The oracle workloads run fixed game sets: at n=9 the cost of one game varies
# by 22% (count_stable) to 130% (exists_stable, individual) between games, so
# games drawn per seed would make a 20 s run differ by 10-20% between seeds.
EXISTENCE_CORPUS = SeedSpec(9001)
COUNT_CORPUS = SeedSpec(9002)


def clique_size_rule(n: int) -> int:
    return max(2, default_clique_size(n))


@dataclass
class OpResult:
    seconds: float
    problems: list[str] = field(default_factory=list)
    error: str | None = None
    input: int = 0  # operations on the same input are timed against each other


def _timed(fn, *args) -> tuple[float, object, str | None]:
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception:  # an operation that raises is counted as failed
        return time.perf_counter() - t0, None, traceback.format_exc()
    return time.perf_counter() - t0, out, None


class AlgTrials:
    """One ``mc-alg`` trial per round: sample_game, run_three_stage, concept_profile."""

    def __init__(self, n: int, compat: float, seed: int) -> None:
        self.n = n
        self.config = AlgoConfig(num_groups=4, edge_threshold=0.5, compat_constant=compat,
                                 clique_size_rule=clique_size_rule)
        self.master = SeedSpec(seed)

    def _trial(self, t: int):
        game = sample_game(self.n, D, derive_trial_seed(self.master, t))
        partition, report, ledger = run_three_stage(game, self.config)
        profile = concept_profile(game, partition)
        del ledger  # held through concept_profile, as run_mc_alg holds it
        return game, partition, report, profile, []

    def _trial_traced(self, t: int, tr):
        with tr.span("sampling.sample_game"):
            game = sample_game(self.n, D, derive_trial_seed(self.master, t))
        with tr.uncounted(), tr.span("clustering.run_three_stage"):
            partition, report, ledger = run_three_stage(game, self.config)
        problems = compose_stages(game, self.config, partition, ledger, tr)
        for stage, count in ledger.count_by_stage().items():
            tr.add(f"ledger_entries_stage{stage}", count)
        tr.add("stage3_singletons", sum(len(b) == 1 for b in partition.coalitions))
        with tr.span("stability.concept_profile"):
            profile = concept_profile(game, partition)
        del ledger
        return game, partition, report, profile, problems

    def round(self, r: int, tr=None) -> list[OpResult]:
        if tr is None:
            dt, out, err = _timed(self._trial, r)
        else:
            tr.begin_op()
            dt, out, err = _timed(self._trial_traced, r, tr)
        if err:
            return [OpResult(dt, error=err)]
        game, partition, report, profile, problems = out
        return [OpResult(dt, problems + self._check(game.utilities, partition, report, profile))]

    def _check(self, U, partition, report, profile) -> list[str]:
        labels, problems = checks.partition_labels(self.n, partition.coalitions)
        if problems:
            return problems
        prof = {c.value: v for c, v in profile.items()}
        problems += checks.profile_problems(U, labels, prof)
        problems += checks.implication_problems(prof)
        s = self.config.clique_size(self.n)
        problems += checks.clustering_problems(U, partition.coalitions, self.config.num_groups,
                                               s, self.config.edge_threshold)
        merged = sum(len(b) > 1 for b in partition.coalitions)
        if report.merged_count != merged:
            problems.append(f"report counts {report.merged_count} merged coalitions, "
                            f"partition has {merged}")
        return problems

    def finish(self, tr=None) -> list[str]:
        return []


def compose_stages(game, config, partition, ledger, tr) -> list[str]:
    """The three stages from their public functions, compared with run_three_stage."""
    n = game.n
    g = config.num_groups
    s = config.clique_size(n)
    tau = config.edge_threshold
    groups = [range(j, n, g) for j in range(g)]
    group_ledgers = [RevelationLedger(n) for _ in range(g)]
    with tr.span("clustering.stage1"):
        stage1 = [greedy_cliques(game, groups[j], s, tau, group_ledgers[j]) for j in range(g)]
    with tr.span("clustering.stage1_noledger"):
        bare = [greedy_cliques(game, groups[j], s, tau) for j in range(g)]
    with tr.span("clustering.ledger_merge"):
        composed_ledger = RevelationLedger(n)
        for gl in group_ledgers:
            composed_ledger.merge(gl)
    with tr.span("clustering.stage2"):
        merged, rem2 = greedy_cluster(game, [c for c, _ in stage1], config, composed_ledger)
    remainder = set(rem2).union(*(rem for _, rem in stage1))
    with tr.span("clustering.stage3"):
        composed, _ok = complete_partition(game, merged, remainder, composed_ledger)
    problems = []
    if bare != stage1:
        problems.append("stage 1 without a ledger built different cliques")
    if composed != partition:
        problems.append("composed stages and run_three_stage return different partitions")
    if composed_ledger != ledger:
        problems.append("composed stages and run_three_stage return different ledgers")
    return problems


class OracleExistence:
    """One oracle-existence campaign (nash, individual) over a fixed set of n=9 games."""

    def __init__(self) -> None:
        self.campaign = Campaign(kind=CampaignKind.ORACLE_EXISTENCE, n_values=(ORACLE_N,),
                                 trials=EXISTENCE_GAMES, dist=D, master_seed=EXISTENCE_CORPUS,
                                 concepts=(Concept.NASH, Concept.INDIVIDUAL))
        self._reference = None

    def games(self) -> list:
        # Trial t of the campaign's first n-value draws from stream t of its master.
        return [sample_game(ORACLE_N, D, derive_trial_seed(EXISTENCE_CORPUS, t))
                for t in range(EXISTENCE_GAMES)]

    def reference(self):
        if self._reference is None:
            table = checks.rgs_table(ORACLE_N)
            games = [g.utilities for g in self.games()]
            verdicts = [checks.enumerate_verdicts(U, table, ("nash", "individual"))
                        for U in games]
            self._reference = table, games, verdicts
        return self._reference

    def round(self, r: int, tr=None) -> list[OpResult]:
        if tr is None:
            dt, res, err = _timed(run_oracle_existence, self.campaign)
        else:
            tr.begin_op()
            with tr.span("experiments.run_oracle_existence"):
                dt, res, err = _timed(run_oracle_existence, self.campaign)
        if err:
            return [OpResult(dt, error=err)]
        return [OpResult(dt, self._check(res))]

    def _check(self, res) -> list[str]:
        table, games, verdicts = self.reference()
        streams = [s.seed_stream for s in res.summaries]
        if streams != list(range(EXISTENCE_GAMES)):
            return [f"campaign reports seed streams {streams}"]
        per_game = [dict(s.outcomes) for s in res.summaries]
        per_k = {}
        for row in res.rows:
            if row.property.startswith("exists:nash:k="):
                per_k[int(row.property.split("=")[1])] = row.successes
        # bound_value is not checked: the composite bound is not sound for unequal shapes.
        return checks.existence_problems(games, verdicts, table, per_game, per_k)

    def finish(self, tr=None) -> list[str]:
        """Every first-stable-partition witness, against the enumeration."""
        table, games, verdicts = self.reference()
        problems = []
        for t, game in enumerate(self.games()):
            witness = exists_stable(game, Concept.INDIVIDUAL)
            labels = None if witness is None else checks.canonical_labels(
                ORACLE_N, witness.coalitions)
            problems += [f"game {t}: {p}" for p in checks.witness_problems(
                table, verdicts[t]["individual"], labels)]
        if tr is not None:
            problems += self._check_scans(tr, table, verdicts)
        return problems

    def _check_scans(self, tr, table, verdicts) -> list[str]:
        """exists_stable scans exactly up to its witness, in enumeration order."""
        problems = []
        for i, (witness, scanned) in enumerate(tr.exists_calls):
            t = i % EXISTENCE_GAMES
            if witness is None:
                want = len(table)
            else:
                want = checks.rgs_rank(
                    table, checks.canonical_labels(ORACLE_N, witness.coalitions)) + 1
            if scanned != want:
                problems.append(f"exists_stable call {i} (game {t}) scanned {scanned} "
                                f"partitions, its witness is #{want}")
        return problems


class OracleCount:
    """count_stable(contractual-nash) on each of a fixed set of n=9 games."""

    def __init__(self) -> None:
        self.games = [sample_game(ORACLE_N, D, derive_trial_seed(COUNT_CORPUS, t))
                      for t in range(COUNT_GAMES)]
        self._reference = None

    def reference(self):
        if self._reference is None:
            table = checks.rgs_table(ORACLE_N)
            self._reference = table, [checks.enumerate_verdicts(
                g.utilities, table, ("nash", "contractual-nash")) for g in self.games]
        return self._reference

    def round(self, r: int, tr=None) -> list[OpResult]:
        out = []
        for i, (game, verdicts) in enumerate(zip(self.games, self.reference()[1])):
            if tr is None:
                dt, count, err = _timed(count_stable, game, Concept.CONTRACTUAL_NASH)
            else:
                tr.begin_op()
                with tr.span("oracle.count_stable"):
                    dt, count, err = _timed(count_stable, game, Concept.CONTRACTUAL_NASH)
            if err:
                out.append(OpResult(dt, error=err, input=i))
                continue
            problems = checks.count_problems(verdicts, count)
            if tr is not None:
                table = self.reference()[0]
                for key in ("partitions_enumerated", "check_calls"):
                    got = tr.counts[-1][key]
                    if got != len(table):
                        problems.append(f"count_stable made {got:g} {key}, not {len(table)}")
            out.append(OpResult(dt, problems, input=i))
        return out

    def finish(self, tr=None) -> list[str]:
        return []


WORKLOADS = {
    "alg-tuned-n4000": lambda seed: AlgTrials(4000, 2.0, seed),
    "alg-gated-n2000": lambda seed: AlgTrials(2000, 0.25, seed),
    "oracle-existence-n9": lambda seed: OracleExistence(),
    "oracle-count-n9": lambda seed: OracleCount(),
}
