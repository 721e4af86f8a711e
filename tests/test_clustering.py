import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedonic_lab.clustering import (
    AlgoConfig,
    RevelationLedger,
    ValueClass,
    complete_partition,
    greedy_cliques,
    greedy_cluster,
    is_compatible,
    default_clique_size,
    run_three_stage,
    run_three_stage_detailed,
)
from hedonic_lab.games import HedonicGame, InvalidAgentError, PartialPartition, Partition
from hedonic_lab.sampling import SeedSpec, UtilityDistribution, sample_game

D = UtilityDistribution(-1, 1)


def game_from(entries, n, default=0.0):
    arr = np.full((n, n), default)
    np.fill_diagonal(arr, 0.0)
    for (a, b), v in entries.items():
        arr[a, b] = v
    return HedonicGame(arr)


class TestConfig:
    def test_published_defaults(self):
        cfg = AlgoConfig()
        assert cfg.num_groups == 20
        assert cfg.edge_threshold == 0.5
        assert cfg.compat_constant == pytest.approx(1 / 80)

    def test_default_clique_size_rule(self):
        assert default_clique_size(16) == 1        # log16 = 1
        assert default_clique_size(17) == 1        # just above 1
        assert default_clique_size(257) == 2       # log16 in (2, 4] -> ceil(x/2) = 2
        assert default_clique_size(65536) == 2     # log16 = 4 exactly
        assert default_clique_size(65537) == 3
        assert default_clique_size(1) == 1

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            AlgoConfig(num_groups=1)
        with pytest.raises(ValueError):
            AlgoConfig(edge_threshold=0.0)
        with pytest.raises(ValueError):
            AlgoConfig(edge_threshold=1.0)
        with pytest.raises(ValueError):
            AlgoConfig(compat_constant=0.0)


class TestGreedyCliques:
    def test_two_pair_hand_trace(self):
        # 0-1 and 2-3 are mutual-0.6 pairs; all cross pairs are below 1/2.
        g = game_from({(0, 1): 0.6, (1, 0): 0.6, (2, 3): 0.7, (3, 2): 0.7}, 4,
                      default=0.1)
        pp, rem = greedy_cliques(g, range(4), 2, 0.5)
        assert pp.coalitions == ((0, 1), (2, 3))
        assert rem == set()

    def test_all_negative_returns_full_remainder(self):
        g = game_from({}, 5, default=-0.4)
        pp, rem = greedy_cliques(g, range(5), 2, 0.5)
        assert len(pp) == 0
        assert rem == set(range(5))

    def test_size_one_yields_singletons(self):
        g = game_from({}, 4, default=-0.9)
        pp, rem = greedy_cliques(g, range(4), 1, 0.5)
        assert pp.coalitions == ((0,), (1,), (2,), (3,))
        assert rem == set()

    def test_clique_property_on_random_games(self):
        for seed in range(10):
            g = sample_game(120, D, SeedSpec(700 + seed))
            pp, rem = greedy_cliques(g, range(120), 2, 0.5)
            U = g.utilities
            for block in pp.coalitions:
                assert len(block) == 2
                for a in block:
                    for b in block:
                        if a != b:
                            assert U[a, b] >= 0.5
            assert set().union(*map(set, pp.coalitions)) | rem == set(range(120))

    def test_early_return_keeps_partial_clique_in_remainder(self):
        # 0 and 1 like each other but nobody completes a second clique.
        g = game_from({(0, 1): 0.9, (1, 0): 0.9}, 3, default=-0.5)
        pp, rem = greedy_cliques(g, range(3), 3, 0.5)
        assert len(pp) == 0
        assert rem == {0, 1, 2}

    def test_ledger_single_below_per_candidate_coalition(self):
        # Created cliques formed in index order, so in a below-threshold pair
        # the candidate is the member of the later block (or blockless).
        for seed in range(10):
            g = sample_game(80, D, SeedSpec(801 + seed))
            ledger = RevelationLedger(80)
            pp, rem = greedy_cliques(g, range(80), 3, 0.3, ledger)
            member_block = {}
            for idx, block in enumerate(pp.coalitions):
                for a in block:
                    member_block[a] = idx
            below = {}
            for stage, src, dst, cls in ledger.entries():
                assert stage == 1
                assert cls in (ValueClass.BELOW_TAU, ValueClass.AT_LEAST_TAU)
                if cls is not ValueClass.BELOW_TAU:
                    continue
                bs, bd = member_block.get(src), member_block.get(dst)
                if bs is None and bd is None:
                    continue  # examined coalition never completed
                assert bs != bd, "below-threshold pair inside one clique"
                if bs is None or (bd is not None and bs > bd):
                    candidate, coalition = src, bd
                else:
                    candidate, coalition = dst, bs
                key = (candidate, coalition)
                below[key] = below.get(key, 0) + 1
            assert all(v == 1 for v in below.values())


class TestIsCompatible:
    CFG = AlgoConfig(num_groups=2, clique_size_rule=lambda n: 2)

    def test_all_nonnegative_cross_compatible(self):
        g = game_from({}, 4, default=0.2)
        assert is_compatible(g, (2, 3), (0, 1), 2, self.CFG)

    def test_hostile_member_blocks(self):
        g = game_from({(0, 2): -1.0, (0, 3): -1.0}, 4, default=0.2)
        # u_0(candidate) = -2 = -s, far below -c*s = -0.025
        cfg = AlgoConfig(num_groups=2, compat_constant=1 / 80,
                         clique_size_rule=lambda n: 2)
        assert not is_compatible(g, (2, 3), (0, 1), 2, cfg)

    def test_threshold_boundary(self):
        # every examined sum is -0.02, threshold is -c*s = -0.025
        g = game_from({}, 4, default=-0.01)
        cfg = AlgoConfig(num_groups=2, compat_constant=1 / 80,
                         clique_size_rule=lambda n: 2)
        assert is_compatible(g, (2, 3), (0, 1), 2, cfg)

    def test_pair_units_full_attempt(self):
        g = game_from({}, 8, default=0.1)
        cfg = AlgoConfig(num_groups=4, clique_size_rule=lambda n: 2)
        units: list[int] = []
        assert is_compatible(g, (6, 7), (0, 1, 2, 3, 4, 5), 4, cfg, None, units)
        # |M| + |C|*(k-1) = 6 + 2*3 = 12 = 2(k-1)s
        assert units == [12]

    def test_rejects_round_one(self):
        g = game_from({}, 4)
        with pytest.raises(ValueError):
            is_compatible(g, (2, 3), (0, 1), 1, self.CFG)


class TestGreedyCluster:
    CFG = AlgoConfig(num_groups=2, compat_constant=1.0,
                     clique_size_rule=lambda n: 2)

    def test_all_positive_pairs_merge_in_order(self):
        g = game_from({}, 8, default=0.3)
        p1 = PartialPartition(8, [(0, 1), (2, 3)])
        p2 = PartialPartition(8, [(4, 5), (6, 7)])
        merged, rem = greedy_cluster(g, [p1, p2], self.CFG)
        assert merged.coalitions == ((0, 1, 4, 5), (2, 3, 6, 7))
        assert rem == set()

    STRICT = AlgoConfig(num_groups=2, compat_constant=0.5,
                        clique_size_rule=lambda n: 2)  # threshold -c*s = -1

    def test_all_hostile_cross_terminates_immediately(self):
        g = game_from({}, 8, default=0.3)
        arr = g.utilities.copy()
        arr[np.ix_([0, 1, 2, 3], [4, 5, 6, 7])] = -0.9
        arr[np.ix_([4, 5, 6, 7], [0, 1, 2, 3])] = -0.9
        g = HedonicGame(arr)
        p1 = PartialPartition(8, [(0, 1), (2, 3)])
        p2 = PartialPartition(8, [(4, 5), (6, 7)])
        merged, rem = greedy_cluster(g, [p1, p2], self.STRICT)
        assert len(merged) == 0
        assert rem == set(range(8))

    def test_skips_incompatible_candidate_keeps_it_available(self):
        # candidate (4,5) is hostile toward (0,1); (6,7) is friendly to all,
        # so round one merges (0,1)+(6,7) and (4,5) merges with (2,3) next.
        g = game_from({(0, 4): -0.9, (0, 5): -0.9}, 8, default=0.3)
        p1 = PartialPartition(8, [(0, 1), (2, 3)])
        p2 = PartialPartition(8, [(4, 5), (6, 7)])
        merged, rem = greedy_cluster(g, [p1, p2], self.STRICT)
        assert merged.coalitions == ((0, 1, 6, 7), (2, 3, 4, 5))
        assert rem == set()

    def test_rejects_overlapping_partitions(self):
        g = game_from({}, 4)
        p1 = PartialPartition(4, [(0, 1)])
        p2 = PartialPartition(4, [(1, 2)])
        with pytest.raises(Exception):
            greedy_cluster(g, [p1, p2], self.CFG)


class TestCompletePartition:
    def test_empty_remainder_returns_merged(self):
        g = game_from({}, 4, default=0.5)
        merged = PartialPartition(4, [(0, 1), (2, 3)])
        partition, ok = complete_partition(g, merged, set())
        assert ok and partition.coalitions == ((0, 1), (2, 3))

    def test_joins_highest_positive_utility_coalition(self):
        g = game_from({(4, 0): 0.2, (4, 1): 0.2, (4, 2): 0.45, (4, 3): 0.45}, 5)
        merged = PartialPartition(5, [(0, 1), (2, 3)])
        partition, ok = complete_partition(g, merged, {4})
        assert ok
        assert partition.coalitions == ((0, 1), (2, 3, 4))

    def test_all_negative_falls_back_with_flag(self):
        g = game_from({(4, 0): -0.2, (4, 1): -0.2, (4, 2): -0.8, (4, 3): -0.8}, 5)
        merged = PartialPartition(5, [(0, 1), (2, 3)])
        partition, ok = complete_partition(g, merged, {4})
        assert not ok
        assert partition.coalitions == ((0, 1, 4), (2, 3))  # best of the bad

    def test_empty_merged_gives_singletons(self):
        g = game_from({}, 3, default=0.9)
        partition, ok = complete_partition(g, PartialPartition(3, []), {0, 1, 2})
        assert not ok
        assert partition == Partition.singletons(3)

    def test_stage2_revelations_disqualify(self):
        # agent 4 prefers (2,3) but has a stage-2 entry toward agent 2
        g = game_from({(4, 0): 0.2, (4, 1): 0.2, (4, 2): 0.9, (4, 3): 0.9}, 5)
        merged = PartialPartition(5, [(0, 1), (2, 3)])
        ledger = RevelationLedger(5)
        ledger.record(2, 4, 2, ValueClass.RAW)
        partition, ok = complete_partition(g, merged, {4}, ledger)
        assert ok
        assert partition.coalitions == ((0, 1, 4), (2, 3))

    def test_pool_exhaustion_leaves_singletons(self):
        g = game_from({}, 5, default=0.5)
        merged = PartialPartition(5, [(0, 1)])
        partition, ok = complete_partition(g, merged, {2, 3, 4})
        assert not ok
        sizes = sorted(len(c) for c in partition.coalitions)
        assert sizes == [1, 1, 3]
        assert partition.n == 5

    def test_rejects_overlapping_remainder(self):
        g = game_from({}, 4)
        merged = PartialPartition(4, [(0, 1)])
        with pytest.raises(Exception):
            complete_partition(g, merged, {1, 2, 3})


class TestRunThreeStage:
    def test_everything_friendly(self):
        cfg = AlgoConfig(num_groups=4, clique_size_rule=lambda n: 2,
                         compat_constant=1.0)
        g = game_from({}, 24, default=0.8)
        partition, report, ledger = run_three_stage(g, cfg)
        assert report.stage1_success and report.stage2_success and report.stage3_success
        assert all(len(c) == 8 for c in partition.coalitions)
        assert report.coalition_size_histogram == {8: 3}

    def test_everything_hostile_gives_singletons(self):
        # Paper-default remainder caps are vacuous at tiny n, so the formal
        # stage-1/2 flags hold degenerately there; a strict cap flips them.
        cfg = AlgoConfig(num_groups=4, clique_size_rule=lambda n: 2)
        g = game_from({}, 24, default=-0.8)
        partition, report, _ = run_three_stage(g, cfg)
        assert partition == Partition.singletons(24)
        assert report.merged_count == 0
        assert not report.stage3_success

        strict = AlgoConfig(num_groups=4, clique_size_rule=lambda n: 2,
                            stage1_remainder_cap=lambda n: 0.0,
                            stage2_remainder_cap=lambda n: 0.0)
        _, report2, _ = run_three_stage(g, strict)
        assert not report2.stage1_success
        assert not report2.stage2_success

    def test_output_is_valid_partition(self):
        cfg = AlgoConfig(num_groups=4, compat_constant=2.0)
        for seed in range(8):
            n = 40 + 17 * seed
            g = sample_game(n, D, SeedSpec(2400 + seed))
            partition, report, _ = run_three_stage(g, cfg)
            Partition(n, partition.coalitions)  # revalidate structure
            assert sum(report.coalition_size_histogram.values()) == len(partition)
            assert sum(s * c for s, c in report.coalition_size_histogram.items()) == n

    def test_determinism(self):
        cfg = AlgoConfig(num_groups=4, compat_constant=2.0)
        g = sample_game(400, D, SeedSpec(999))
        out1 = run_three_stage(g, cfg)
        out2 = run_three_stage(g, cfg)
        assert out1[0] == out2[0]
        assert out1[1] == out2[1]
        assert out1[2] == out2[2]

    def test_small_n_degenerate_but_valid(self):
        cfg = AlgoConfig(num_groups=4, clique_size_rule=lambda n: 2)
        g = sample_game(3, D, SeedSpec(5))
        partition, report, _ = run_three_stage(g, cfg)
        assert partition.n == 3
        assert not report.stage1_success or report.stage1_remainder <= 3

    def test_merged_coalitions_one_clique_per_group(self):
        cfg = AlgoConfig(num_groups=4, compat_constant=2.0)
        g = sample_game(600, D, SeedSpec(314))
        det = run_three_stage_detailed(g, cfg)
        for chosen in det.merged_composition:
            assert len(chosen) == 4
            groups_hit = set()
            for j, block in enumerate(chosen):
                assert block in det.clique_partitions[j].coalitions
                groups_hit.add(j)
            assert groups_hit == {0, 1, 2, 3}

    def test_pairs_count_invariant_g20(self):
        cfg = AlgoConfig(num_groups=20, compat_constant=4.0,
                         clique_size_rule=lambda n: 2)
        g = sample_game(2000, D, SeedSpec(2718))
        det = run_three_stage_detailed(g, cfg)
        assert det.report.stage2_success
        s = det.report.clique_size
        successful = [a for a in det.attempts if a.success]
        assert successful
        for att in successful:
            assert att.pair_units == 2 * (att.position - 1) * s
            assert att.pair_units <= 38 * s

    def test_ledger_stage_classes(self):
        cfg = AlgoConfig(num_groups=4, compat_constant=2.0)
        g = sample_game(200, D, SeedSpec(11))
        det = run_three_stage_detailed(g, cfg)
        seen_pairs = set()
        for stage, src, dst, cls in det.ledger.entries():
            assert (src, dst) not in seen_pairs  # one stage per ordered pair
            seen_pairs.add((src, dst))
            if stage == 1:
                assert cls in (ValueClass.BELOW_TAU, ValueClass.AT_LEAST_TAU)
            else:
                assert cls is ValueClass.RAW

    def test_stage3_placements_respect_spec(self):
        cfg = AlgoConfig(num_groups=4, compat_constant=2.0)
        g = sample_game(500, D, SeedSpec(88))
        det = run_three_stage_detailed(g, cfg)
        if det.report.stage3_success:
            merged_blocks = det.merged.coalitions
            for agent, idx, satisfied in det.placements:
                assert satisfied
                block = merged_blocks[idx]
                util = float(g.utilities[agent, list(block)].sum())
                assert util > 0
                assert not det.ledger.stage2_between(agent, block)


@given(st.integers(2, 5), st.integers(6, 16), st.data())
@settings(max_examples=40, deadline=None)
def test_run_three_stage_always_valid_partition(g_count, n, data):
    vals = data.draw(st.lists(st.floats(-1, 1, allow_nan=False),
                              min_size=n * n, max_size=n * n))
    arr = np.array(vals).reshape(n, n)
    np.fill_diagonal(arr, 0.0)
    game = HedonicGame(arr)
    cfg = AlgoConfig(num_groups=g_count,
                     clique_size_rule=lambda m: data.draw(st.integers(1, 3)))
    partition, report, ledger = run_three_stage(game, cfg)
    assert partition.n == n
    Partition(n, partition.coalitions)
    assert sum(len(c) for c in partition.coalitions) == n


class TestGroupAssignment:
    def test_round_robin_balance(self):
        from hedonic_lab.clustering import GroupAssignment
        ga = GroupAssignment.round_robin(22, 4)
        sizes = [len(g) for g in ga.groups]
        assert sorted(sizes) == [5, 5, 6, 6]

    def test_rejects_imbalance(self):
        from hedonic_lab.clustering import GroupAssignment
        with pytest.raises(ValueError):
            GroupAssignment(2, ((0, 1, 2), (3,)))


BELOW, AT_LEAST, RAW = ValueClass.BELOW_TAU, ValueClass.AT_LEAST_TAU, ValueClass.RAW


class ReferenceLedger:
    """A dict ledger: one entry per ordered pair, the first writer wins."""

    def __init__(self):
        self.seen = {}

    def put(self, stage, src, dst, cls):
        self.seen.setdefault((src, dst), (stage, cls))

    def linked(self, agent, block):
        """Whether a stage-2 entry links ``agent`` with ``block``, either direction."""
        return any(self.seen.get(pair, (0,))[0] == 2
                   for m in block for pair in ((agent, m), (m, agent)))

    def entries(self):
        return {(stage, src, dst, cls) for (src, dst), (stage, cls) in self.seen.items()}


def reference_entries(game, cfg, det):
    """Replay, one pair at a time, which entries each stage of ``det``'s run examined.

    Stages 1 and 2 are replayed in full and must rebuild ``det``'s cliques and
    merged coalitions; stage 3 takes each agent's placement from ``det``.
    """
    U, n = game.utilities, game.n
    g, s, tau, c = cfg.num_groups, cfg.clique_size(n), cfg.edge_threshold, cfg.compat_constant
    led = ReferenceLedger()

    def joins(w, members):  # member by member, stopping at the first value below tau
        for z in members:
            for a, b in ((w, z), (z, w)):
                led.put(1, a, b, AT_LEAST if U[a, b] >= tau else BELOW)
                if U[a, b] < tau:
                    return False
        return True

    cliques = []
    for j in range(g):
        R, out = list(range(j, n, g)), []
        while R:
            C = [R[0]]
            for w in R[1:]:
                if len(C) == s:
                    break
                if joins(w, C):
                    C.append(w)
            if len(C) < s:
                break
            out.append(tuple(C))
            R = [a for a in R if a not in C]
        cliques.append(out)
    assert [list(pp.coalitions) for pp in det.clique_partitions] == cliques

    def compatible(cand, union, k):  # stops at the first violated sum
        for m in union:
            for b in cand:
                led.put(2, m, b, RAW)
            if U[m, list(cand)].sum() < -c * s:
                return False
        for b in cand:
            for m in union:
                led.put(2, b, m, RAW)
            if U[b, union].sum() < -(k - 1) * c * s:
                return False
        return True

    avail, merged = [list(out) for out in cliques], []
    while avail[0]:
        union, picks = list(avail[0][0]), [0]
        for kk in range(1, g):
            idx = next((i for i, block in enumerate(avail[kk])
                        if compatible(block, union, kk + 1)), None)
            if idx is None:
                break
            picks.append(idx)
            union = sorted(union + list(avail[kk][idx]))
        if len(picks) < g:
            break
        for kk, idx in enumerate(picks):
            avail[kk].pop(idx)
        merged.append(tuple(union))
    assert list(det.merged.coalitions) == merged

    alive = [True] * len(merged)
    for agent, best, satisfied in det.placements:
        if best is None:
            continue  # coalitions ran out: nothing examined
        qual = [i for i, block in enumerate(merged) if alive[i] and not led.linked(agent, block)]
        assert best in qual or not satisfied
        for i in qual if satisfied else [i for i in range(len(merged)) if alive[i]]:
            for m in merged[i]:
                led.put(3, agent, m, RAW)
        alive[best] = False
    return led.entries()


def assert_ledger_matches_reference(n, g, s, tau, compat, seed):
    cfg = AlgoConfig(num_groups=g, edge_threshold=tau, compat_constant=compat,
                     clique_size_rule=lambda m: s)
    game = sample_game(n, D, SeedSpec(seed))
    det = run_three_stage_detailed(game, cfg)
    assert set(det.ledger.entries()) == reference_entries(game, cfg, det)
    return det


# Every g x clique size; tau, compat and n each take all their values, chosen so
# that stage 2 merges and stage 3 places agents wherever the clique size allows.
LEDGER_CASES = [  # g, s, tau, compat, n
    (2, 1, 0.3, 0.05, 200), (2, 2, 0.3, 0.25, 200), (2, 3, 0.3, 0.25, 400), (2, 4, 0.5, 2.0, 90),
    (4, 1, 0.3, 0.25, 90), (4, 2, 0.5, 0.25, 400), (4, 3, 0.3, 2.0, 200), (4, 4, 0.5, 0.05, 30),
    (8, 1, 0.5, 0.25, 400), (8, 2, 0.3, 2.0, 400), (8, 3, 0.5, 0.05, 200), (8, 4, 0.3, 0.25, 90),
]


class TestLedgerAgainstReference:
    @pytest.mark.parametrize("g,s,tau,compat,n", LEDGER_CASES)
    def test_entries_match_reference(self, g, s, tau, compat, n):
        assert_ledger_matches_reference(n, g, s, tau, compat, seed=5000 + n + 10 * g + s)

    def test_stage1_stops_on_failed_clique(self):
        det = assert_ledger_matches_reference(90, 2, 4, 0.5, 2.0, seed=5101)
        assert any(det.group_remainders)

    def test_stage3_runs_out_of_coalitions(self):
        det = assert_ledger_matches_reference(200, 4, 2, 0.5, 2.0, seed=5102)
        outcomes = {"out" if best is None else ok for _a, best, ok in det.placements}
        assert outcomes == {"out", True, False}


class TestLedgerInputs:
    PAIRS = {(1, 0), (1, 2), (3, 0), (3, 2)}

    @pytest.mark.parametrize("sources,targets", [
        ({1, 3}, {0, 2}),
        (range(1, 4, 2), range(0, 3, 2)),
        ((a for a in (1, 3)), (b for b in (0, 2))),
        (np.array([1, 3]), np.array([0, 2], dtype=np.int32)),
        ([1, 3], (0, 2)),
    ])
    def test_record_block_accepts_any_iterable(self, sources, targets):
        ledger = RevelationLedger(5)
        ledger.record_block(2, sources, targets)
        assert {(src, dst) for _st, src, dst, _c in ledger.entries()} == self.PAIRS
        assert ledger.count_by_stage() == {1: 0, 2: 4, 3: 0}

    @pytest.mark.parametrize("members", [
        {2, 3}, range(2, 4), (m for m in (2, 3)), np.array([2, 3]), [3, 2]])
    def test_stage2_between_accepts_any_iterable(self, members):
        ledger = RevelationLedger(5)
        ledger.record(2, 4, 2, RAW)
        assert ledger.stage2_between(4, members)

    def test_stage2_between_either_direction_and_stage2_only(self):
        ledger = RevelationLedger(5)
        ledger.record(2, 4, 2, RAW)
        ledger.record(3, 4, 1, RAW)
        assert ledger.stage2_between(2, [4])
        assert not ledger.stage2_between(4, [0, 1, 3])
        assert not ledger.stage2_between(4, [])

    def test_out_of_range_agents_raise(self):
        ledger = RevelationLedger(5)
        calls = [lambda: ledger.record(2, -1, 0, RAW), lambda: ledger.record(2, 0, 5, RAW),
                 lambda: ledger.record_block(2, [0, 5], [1]),
                 lambda: ledger.record_block(3, {0}, range(-1, 1)),
                 lambda: ledger.lookup(0, 5), lambda: ledger.lookup(-1, 0),
                 lambda: ledger.stage2_between(0, [-1])]
        for call in calls:
            with pytest.raises(InvalidAgentError):
                call()
        assert len(ledger) == 0
        g = game_from({}, 5)
        with pytest.raises(InvalidAgentError):
            is_compatible(g, (-1, 3), (0, 1), 2, TestIsCompatible.CFG, ledger)

    def test_ledger_size_must_match_game(self):
        g = game_from({}, 5)
        with pytest.raises(ValueError):
            greedy_cliques(g, range(5), 2, 0.5, RevelationLedger(6))

    def test_queued_writes_keep_first_writer(self):
        ledger = RevelationLedger(4)
        ledger.record_block(2, [0], [1])
        ledger.record_block(3, [0], [1, 2])
        assert ledger.lookup(0, 1) == (2, RAW)
        assert ledger.lookup(0, 2) == (3, RAW)
        ledger.record_block(2, [0, 1], [2, 3])
        assert not ledger.record(1, 1, 2, BELOW)
        assert ledger.record(1, 2, 0, BELOW)
        assert [(st, src, dst) for st, src, dst, _c in ledger.entries()] == [
            (2, 0, 1), (3, 0, 2), (2, 0, 3), (2, 1, 2), (2, 1, 3), (1, 2, 0)]
        assert len(ledger) == 6

    def test_merge_and_equality_use_effective_codes(self):
        a, b = RevelationLedger(3), RevelationLedger(3)
        a.record(1, 0, 1, AT_LEAST)
        b.record_block(2, [0], [1, 2])
        b.record(3, 1, 0, RAW)
        a.merge(b)
        assert a.lookup(0, 1) == (1, AT_LEAST)
        assert a.lookup(0, 2) == (2, RAW) and a.lookup(1, 0) == (3, RAW)
        c = RevelationLedger(3)
        c.record(1, 0, 1, AT_LEAST)
        c.record_block(2, [0, 0], [2, 1])
        c.record_block(3, [1], [0])
        assert a == c
        c.record(2, 2, 2, RAW)
        assert a != c


def test_run_three_stage_memory_at_n1000():
    # The int8 code matrix is n^2 bytes; the dict ledger it replaced peaked at
    # ~5 n^2 bytes on this game, and one n x n float temporary is 8 n^2.
    n = 1000
    cfg = AlgoConfig(num_groups=4, edge_threshold=0.5, compat_constant=2.0,
                     clique_size_rule=lambda m: 2)
    game = sample_game(n, D, SeedSpec(1))
    tracemalloc.start()
    try:
        _partition, _report, ledger = run_three_stage(game, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ledger) > 0
    assert peak < 4 * n * n, f"{peak / n**2:.2f} n^2 bytes"
