"""The benchmark's checkers pass the program's real outputs and fail planted wrong ones.

    python3 -m pytest perfbench/tests -q
"""
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE.parent))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hedonic_lab import (Concept, Partition, RevelationLedger, SeedSpec,  # noqa: E402
                         concept_profile, count_stable, exists_stable, run_three_stage,
                         sample_game)
from hedonic_lab.experiments import Campaign, CampaignKind, run_oracle_existence  # noqa: E402
from hedonic_lab.oracle import enumerate_partitions  # noqa: E402

D = workloads.D
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def random_partition(rng, n):
    labels = rng.integers(0, rng.integers(1, n + 1), size=n)
    return Partition.from_labels(labels.tolist())


def profile_of(game, partition):
    return {c.value: v for c, v in concept_profile(game, partition).items()}


@pytest.fixture(scope="module")
def alg_output():
    wl = workloads.AlgTrials(200, 2.0, seed=5)
    game = sample_game(200, D, SeedSpec(5))
    partition, report, ledger = run_three_stage(game, wl.config)
    return wl, game, partition, report, ledger


# ------------------------------------------------------- seven concepts ----

def test_evaluator_agrees_with_concept_profile():
    rng = np.random.default_rng(0)
    for t in range(60):
        n = int(rng.integers(2, 14))
        game = sample_game(n, D, SeedSpec(100 + t))
        partition = random_partition(rng, n)
        prof = profile_of(game, partition)
        assert checks.profile_problems(game.utilities, partition.labels(), prof) == []
        assert checks.implication_problems(prof) == []


def test_evaluator_catches_each_flipped_concept():
    game = sample_game(12, D, SeedSpec(7))
    partition = Partition.from_labels([i % 3 for i in range(12)])
    prof = profile_of(game, partition)
    for concept in checks.CONCEPTS:
        planted = dict(prof, **{concept: not prof[concept]})
        assert checks.profile_problems(game.utilities, partition.labels(), planted)


def test_evaluator_accepts_either_verdict_on_a_near_tie():
    # Agent 0 is indifferent, to 1e-15, between its block {0, 1} and block {2}.
    U = np.array([[0.0, 0.3, 0.3 + 1e-15], [0.5, 0.0, -0.5], [-0.5, 0.5, 0.0]])
    verdict = checks.evaluate(U, np.array([0, 0, 1]))["nash"]
    assert verdict[0] is False and verdict[1] is True


def test_implications_catch_a_planted_profile():
    prof = {c: True for c in checks.CONCEPTS}
    assert checks.implication_problems(prof) == []
    assert checks.implication_problems(dict(prof, individual=False))
    assert checks.implication_problems(dict(prof, **{"contractual-nash": False}))


# --------------------------------------------------------------- structure ----

def test_partition_labels_catch_missing_and_repeated_agents():
    assert checks.partition_labels(4, [(0, 1), (2, 3)])[1] == []
    assert checks.partition_labels(4, [(0, 1), (2,)])[1]
    assert checks.partition_labels(4, [(0, 1), (1, 2, 3)])[1]
    assert checks.partition_labels(4, [(0, 1), (2, 3, 4)])[1]


def test_clustering_structure_of_a_real_run(alg_output):
    wl, game, partition, report, _ledger = alg_output
    assert wl._check(game.utilities, partition, report, concept_profile(game, partition)) == []


def test_clustering_structure_catches_planted_blocks(alg_output):
    wl, game, partition, _report, _ledger = alg_output
    U, g, s, tau = game.utilities, 4, 2, 0.5
    blocks = [list(b) for b in partition.coalitions]
    big = [i for i, b in enumerate(blocks) if len(b) > 1]
    assert checks.clustering_problems(U, blocks, g, s, tau) == []

    # Two merged coalitions trade agents of different groups: two cliques from one group.
    a, b = big[0], big[1]
    x = blocks[a][0]
    y = next(m for m in blocks[b] if m % g != x % g)
    swapped = [list(blk) for blk in blocks]
    swapped[a][0], swapped[b][swapped[b].index(y)] = y, x
    assert checks.clustering_problems(U, swapped, g, s, tau)

    # Same group, but the pair is not a mutual-tau clique.
    y = next(m for blk in big[1:] for m in blocks[blk]
             if m % g == x % g and not all(U[m, z] >= tau and U[z, m] >= tau
                                           for z in blocks[a] if z % g == x % g and z != x))
    holder = next(i for i in big if y in blocks[i])
    swapped = [list(blk) for blk in blocks]
    swapped[a][0] = y
    swapped[holder][swapped[holder].index(y)] = x
    assert checks.clustering_problems(U, swapped, g, s, tau)

    # A merged coalition with an agent missing, the agent left alone.
    short = [list(blk) for blk in blocks]
    lone = short[a].pop()
    assert checks.clustering_problems(U, short + [[lone]], g, s, tau)


def test_stage3_fill_order_is_checked():
    U = np.full((9, 9), 0.9)
    np.fill_diagonal(U, 0.0)
    blocks = [list(range(8)), [8]]  # room left in the 8-block, yet agent 8 alone
    assert checks.clustering_problems(U, blocks, 4, 2, 0.5)
    assert checks.clustering_problems(U, [list(range(9))], 4, 2, 0.5) == []


def test_composed_stages_match_and_catch_a_planted_ledger(alg_output):
    wl, game, partition, _report, ledger = alg_output
    tr = tracing.Tracer()
    tr.begin_op()
    assert workloads.compose_stages(game, wl.config, partition, ledger, tr) == []
    assert workloads.compose_stages(game, wl.config, partition, RevelationLedger(game.n), tr)
    other = Partition.singletons(game.n)
    assert workloads.compose_stages(game, wl.config, other, ledger, tr)


# ------------------------------------------------------------------ oracle ----

@pytest.mark.parametrize("n", range(1, 10))
def test_rgs_table_has_bell_many_rows_in_program_order(n):
    table = checks.rgs_table(n)
    assert len(table) == BELL[n]
    if n <= 6:
        ours = [checks.canonical_labels(n, p.coalitions) for p in enumerate_partitions(n)]
        assert ours == table.tolist()


@pytest.mark.parametrize("seed", range(4))
def test_enumeration_counts_match_count_stable(seed):
    n = 6
    game = sample_game(n, D, SeedSpec(300 + seed))
    table = checks.rgs_table(n)
    verdicts = checks.enumerate_verdicts(game.utilities, table, checks.CONCEPTS)
    for concept in Concept:
        v = verdicts[concept.value]
        assert v[:, 0].sum() <= count_stable(game, concept) <= v[:, 1].sum()


def test_count_problems_catch_a_planted_count():
    game = sample_game(7, D, SeedSpec(11))
    table = checks.rgs_table(7)
    verdicts = checks.enumerate_verdicts(game.utilities, table, ("nash", "contractual-nash"))
    count = count_stable(game, Concept.CONTRACTUAL_NASH)
    assert checks.count_problems(verdicts, count) == []
    assert checks.count_problems(verdicts, count + 1)
    assert checks.count_problems(verdicts, count - 1)


def test_count_problems_catch_fewer_cns_than_nash():
    verdicts = {"nash": np.ones((5, 2), dtype=bool),
                "contractual-nash": np.zeros((5, 2), dtype=bool)}
    assert any("Nash-stable" in p for p in checks.count_problems(verdicts, 0))


def _campaign(n, trials, master):
    c = Campaign(kind=CampaignKind.ORACLE_EXISTENCE, n_values=(n,), trials=trials, dist=D,
                 master_seed=master, concepts=(Concept.NASH, Concept.INDIVIDUAL))
    res = run_oracle_existence(c)
    per_game = [dict(s.outcomes) for s in res.summaries]
    per_k = {int(r.property.split("=")[1]): r.successes for r in res.rows
             if r.property.startswith("exists:nash:k=")}
    games = [sample_game(n, D, SeedSpec(master.master_seed, t)).utilities for t in range(trials)]
    table = checks.rgs_table(n)
    verdicts = [checks.enumerate_verdicts(U, table, ("nash", "individual")) for U in games]
    return games, verdicts, table, per_game, per_k


def test_existence_campaign_passes_and_planted_answers_fail():
    # n=3 makes Nash-stable grand coalitions and singletons common enough to matter.
    games, verdicts, table, per_game, per_k = _campaign(3, 200, SeedSpec(21))
    assert 0 < per_k[1] < 200 and per_k[3] > 0
    assert checks.existence_problems(games, verdicts, table, per_game, per_k) == []

    flipped = [dict(f) for f in per_game]
    flipped[0]["exists:nash"] = not flipped[0]["exists:nash"]
    assert checks.existence_problems(games, verdicts, table, flipped, per_k)
    for k in (1, 2, 3):
        planted = {**per_k, k: per_k[k] + 1}
        assert checks.existence_problems(games, verdicts, table, per_game, planted)


def test_closed_conditions_catch_a_planted_enumeration():
    # Consistent per-k answers from a wrong enumeration still fail the row-sum rule.
    games, verdicts, table, per_game, per_k = _campaign(3, 200, SeedSpec(21))
    wrong = [{c: v.copy() for c, v in ver.items()} for ver in verdicts]
    grand = int(np.flatnonzero(table.max(axis=1) == 0)[0])
    for ver in wrong:
        ver["nash"][grand] = True
    planted = {**per_k, 1: len(games)}
    problems = checks.existence_problems(games, wrong, table, per_game, planted)
    assert any("row sums" in p for p in problems)


def test_witness_checks():
    n = 7
    table = checks.rgs_table(n)
    for t in range(5):
        game = sample_game(n, D, SeedSpec(40 + t))
        v = checks.enumerate_verdicts(game.utilities, table, ("individual",))["individual"]
        witness = exists_stable(game, Concept.INDIVIDUAL)
        labels = checks.canonical_labels(n, witness.coalitions)
        assert checks.witness_problems(table, v, labels) == []
        first = int(np.flatnonzero(v[:, 0])[0])
        unstable = int(np.flatnonzero(~v[:, 1])[0])
        later = int(np.flatnonzero(v[:, 0])[-1])
        assert checks.witness_problems(table, v, None)
        assert checks.witness_problems(table, v, table[unstable].tolist())
        if later != first:
            assert checks.witness_problems(table, v, table[later].tolist())


def test_scan_counts_are_checked():
    wl = workloads.OracleExistence()
    table, _games, verdicts = wl.reference()
    tr = tracing.Tracer()
    for t, game in enumerate(wl.games()):
        tr.exists_calls.append((exists_stable(game, Concept.INDIVIDUAL), 0))
    assert wl._check_scans(tr, table, verdicts)
    right = []
    for witness, _ in tr.exists_calls:
        labels = checks.canonical_labels(9, witness.coalitions)
        right.append((witness, checks.rgs_rank(table, labels) + 1))
    tr.exists_calls = right
    assert wl._check_scans(tr, table, verdicts) == []
