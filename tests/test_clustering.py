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
from hedonic_lab.clustering import _AT_LEAST, _BELOW, _admit, _compat_thresholds, _write_codes
from hedonic_lab.games import (HedonicGame, InvalidAgentError, PartialPartition, Partition,
                               PartitionError, _agent_ids, coalition_utility)
from hedonic_lab.sampling import SeedSpec, UtilityDistribution, sample_game

D = UtilityDistribution(-1, 1)


def record1(ledger, src, dst, cls):
    """Log one stage-1 observation of u_src(dst), as ``greedy_cliques`` logs its checks."""
    _agent_ids((src, dst), ledger.n)
    code = _BELOW if cls is ValueClass.BELOW_TAU else _AT_LEAST
    ledger._write(_write_codes, np.array([src * ledger.n + dst]), code)


def codes_of(ledger):
    """{(src, dst): (stage, value class)} of every entry ``ledger`` has revealed."""
    return {(src, dst): (stage, cls) for stage, src, dst, cls in ledger.entries()}


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

    @pytest.mark.parametrize("compat", [float("nan"), -float("nan"), -1.0, -float("inf"),
                                        float("inf")])
    def test_rejects_compat_that_is_not_positive_and_finite(self, compat):
        # A NaN constant makes every threshold NaN, and no sum is below NaN;
        # an infinite one makes every threshold -inf.
        with pytest.raises(ValueError, match="compat_constant"):
            AlgoConfig(compat_constant=compat)

    @pytest.mark.parametrize("groups", [2.5, 4.0, "4", None])
    def test_rejects_num_groups_that_is_not_an_integer(self, groups):
        with pytest.raises(TypeError):
            AlgoConfig(num_groups=groups)

    def test_accepts_integer_like_num_groups(self):
        assert AlgoConfig(num_groups=np.int64(4)).num_groups == 4

    @pytest.mark.parametrize("s", [2.7, 2.0, "2", None])
    def test_rejects_clique_size_rule_that_is_not_an_integer(self, s):
        cfg = AlgoConfig(num_groups=2, clique_size_rule=lambda n: s)
        with pytest.raises(TypeError):
            cfg.clique_size(40)
        with pytest.raises(TypeError):
            run_three_stage(sample_game(40, D, SeedSpec(5)), cfg)
        assert AlgoConfig(clique_size_rule=lambda n: np.int64(2)).clique_size(40) == 2


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

    @pytest.mark.parametrize("size", [2.5, 2.0, "2"])
    def test_rejects_size_that_is_not_an_integer(self, size):
        g = sample_game(40, D, SeedSpec(5))
        with pytest.raises(TypeError):
            greedy_cliques(g, range(40), size, 0.1)
        assert greedy_cliques(g, range(40), np.int64(2), 0.1) == greedy_cliques(
            g, range(40), 2, 0.1)

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


def greedy_cliques_numpy(game, carrier, size, threshold, ledger):
    """``greedy_cliques`` as a vectorised scan, for cross-checking the scalar one.

    Each growth step tests every remaining candidate against the clique at
    once and takes the first hit; the ledger replays, one pair at a time, the
    member-by-member checks of the candidates up to and including that hit.
    """
    U = game.utilities
    R = np.array(sorted(set(carrier)), dtype=np.intp)
    blocks, steps, remainder = [], [], set()
    while R.size:
        v = int(R[0])
        C, taken, L, pos, failed = [v], [0], R[1:], 0, False
        while len(C) < size:
            remaining = L[pos:]
            if remaining.size == 0:
                failed = True
                break
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
    for members, scanned in steps:
        for w in scanned.tolist():
            for a, b in [pair for z in members for pair in ((w, z), (z, w))]:
                below = U[a, b] < threshold
                record1(ledger, a, b, BELOW if below else AT_LEAST)
                if below:
                    break
    return blocks, remainder


class TestGreedyCliquesAgainstNumpyScan:
    N = 90
    CARRIERS = {
        "range": lambda n: range(n),
        "set": lambda n: set(range(1, n, 3)) | {0, n - 1},
        "list": lambda n: list(range(n - 1, -1, -2)) + [4, 4],
        "ndarray": lambda n: np.arange(2, n, 2, dtype=np.int32),
        "generator": lambda n: (a for a in range(n) if a % 5 != 3),
        "subset": lambda n: [a for a in range(n) if (a * a) % 7 in (1, 2, 4)],
    }

    @pytest.mark.parametrize("carrier", sorted(CARRIERS))
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_same_blocks_remainder_and_ledger(self, size, tau, carrier):
        for seed in range(3):
            g = sample_game(self.N, D, SeedSpec(900 + 10 * size + seed))
            ledger, expected_ledger = RevelationLedger(self.N), RevelationLedger(self.N)
            pp, rem = greedy_cliques(g, self.CARRIERS[carrier](self.N), size, tau, ledger)
            blocks, expected_rem = greedy_cliques_numpy(
                g, self.CARRIERS[carrier](self.N), size, tau, expected_ledger)
            assert list(pp.coalitions) == blocks
            assert rem == expected_rem
            assert ledger == expected_ledger
            assert all(type(a) is int for block in pp.coalitions for a in block)
            assert all(type(a) is int for a in rem)


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
        assert is_compatible(g, (6, 7), (0, 1, 2, 3, 4, 5), 4, cfg)
        thr_cand, thr_merged = _compat_thresholds(cfg, 2, 4)
        ok, units, _n_eval, _n_eval2 = _admit(memoryview(g.utilities), [6, 7],
                                              [0, 1, 2, 3, 4, 5], 4, thr_cand, thr_merged)
        # |M| + |C|*(k-1) = 6 + 2*3 = 12 = 2(k-1)s
        assert ok and units == 12

    def test_rejects_round_one(self):
        g = game_from({}, 4)
        with pytest.raises(ValueError):
            is_compatible(g, (2, 3), (0, 1), 1, self.CFG)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2"])
    def test_rejects_round_that_is_not_an_integer(self, k):
        g = game_from({}, 4, default=0.2)
        with pytest.raises(TypeError):
            is_compatible(g, (2, 3), (0, 1), k, self.CFG)
        assert is_compatible(g, (2, 3), (0, 1), np.int64(2), self.CFG)

    def test_rejects_shared_agent(self):
        g = game_from({}, 4, default=0.2)
        ledger = RevelationLedger(4)
        for cand, merged in [((0, 2), (0, 1)), ([3], {1, 3}), (iter([1, 2]), range(3))]:
            with pytest.raises(PartitionError, match="share"):
                is_compatible(g, cand, merged, 2, self.CFG, ledger)
        assert len(ledger) == 0


def table(kind, rng, shape):
    """A float64 table of ``shape``: U(-1, 1), or signed magnitudes 1e-8 .. 1e8."""
    if kind == "uniform":
        return rng.uniform(-1, 1, shape)
    signs = rng.choice([-1.0, 1.0], shape)
    return signs * rng.uniform(1, 10, shape) * 10.0 ** rng.integers(-8, 8, shape)


def sequential_sums(U, rows, cols):
    """Each ``U[r, cols]`` added left to right, the order of ``coalition_utility``."""
    return np.add.accumulate(U[rows[:, None], cols], axis=1)[:, -1]


def admit_reference(U, cand, merged, k, thr_cand, thr_merged, ledger):
    """The stage-2 admission test from ``sequential_sums``, for cross-checking ``_admit``.

    Takes sorted, disjoint id arrays; returns (ok, pair units) and records the
    two stage-2 blocks its sums revealed, cut at the first violated sum.
    """
    vals_m = sequential_sums(U, merged, cand)
    viol = np.flatnonzero(vals_m < thr_cand)
    n_eval = len(merged) if viol.size == 0 else int(viol[0]) + 1
    units = n_eval
    ledger.record_block(2, merged[:n_eval], cand)
    if viol.size > 0:
        return False, units
    vals_c = sequential_sums(U, cand, merged)
    viol2 = np.flatnonzero(vals_c < thr_merged)
    n_eval2 = len(cand) if viol2.size == 0 else int(viol2[0]) + 1
    units += n_eval2 * (k - 1)
    ledger.record_block(2, cand[:n_eval2], merged)
    return viol2.size == 0, units


class TestAdmitAgainstReference:
    """The scalar ``_admit`` against ``admit_reference`` on random disjoint sets.

    Merged sets reach 200 agents.  Thresholds are random, or set to a
    reference sum or the next float above it, so that a sum equal to its
    threshold passes and a sum one ulp off the reference lands on the other
    side.
    """
    N = 260

    def random_sets(self, rng):
        m = int(rng.integers(1, 201))
        c = int(rng.integers(1, 21))
        ids = rng.permutation(self.N)
        return np.sort(ids[:m]), np.sort(ids[m:m + c])

    def thresholds(self, rng, sums_m, sums_c):
        mode = rng.integers(5)
        if mode == 0:
            return rng.uniform(-3, 1), rng.uniform(-6, 1)
        if mode == 1:  # both tests pass, with equality at the smallest sums
            return sums_m.min(), sums_c.min()
        if mode == 2:  # the first test passes exactly; the second stops at a chosen sum
            return sums_m.min(), np.nextafter(rng.choice(sums_c), np.inf)
        if mode == 3:  # the first test stops at a chosen sum or passes with equality
            return rng.choice(sums_m), sums_c.min()
        return np.nextafter(sums_m.min(), np.inf), sums_c.min()

    @pytest.mark.parametrize("seed", range(8))
    def test_same_verdict_units_and_ledger(self, seed):
        rng = np.random.default_rng(seed)
        U = sample_game(self.N, D, SeedSpec(3100 + seed)).utilities
        entry = memoryview(U)
        for _ in range(60):
            merged, cand = self.random_sets(rng)
            sums_m = sequential_sums(U, merged, cand)
            sums_c = sequential_sums(U, cand, merged)
            thr_cand, thr_merged = self.thresholds(rng, sums_m, sums_c)
            k = int(rng.integers(2, 21))
            got_ledger, want_ledger = RevelationLedger(self.N), RevelationLedger(self.N)
            ok, units, n_eval, n_eval2 = _admit(entry, cand.tolist(), merged.tolist(), k,
                                                float(thr_cand), float(thr_merged))
            got_ledger.record_block(2, merged[:n_eval], cand)
            got_ledger.record_block(2, cand[:n_eval2], merged)
            want = admit_reference(U, cand, merged, k, thr_cand, thr_merged, want_ledger)
            assert (ok, units) == want, (len(merged), len(cand), thr_cand, thr_merged)
            assert got_ledger == want_ledger

    @pytest.mark.parametrize("seed", range(8))
    def test_is_compatible_writes_the_same_ledger(self, seed):
        # Even seeds pass the first test with equality at its smallest sum, so
        # the second runs; odd seeds stop the first test at its median sum.
        rng = np.random.default_rng(seed)
        game = sample_game(self.N, D, SeedSpec(3200 + seed))
        merged, cand = self.random_sets(rng)
        sums_m = np.array([coalition_utility(game, a, cand) for a in merged])
        edge = sums_m.min() if seed % 2 == 0 else np.median(sums_m)
        config = AlgoConfig(num_groups=2, compat_constant=max(-float(edge), 1e-3),
                            clique_size_rule=lambda n: 1)
        k = int(rng.integers(2, 6))
        thr_cand, thr_merged = _compat_thresholds(config, 1, k)
        got_ledger, want_ledger = RevelationLedger(self.N), RevelationLedger(self.N)
        got = is_compatible(game, cand, merged, k, config, got_ledger)
        want, _units = admit_reference(game.utilities, cand, merged, k, thr_cand, thr_merged,
                                       want_ledger)
        assert got == want
        assert got_ledger == want_ledger

    def test_threshold_equal_to_coalition_utility_admits(self):
        # u_0's sum over agents 1..9 is exactly -c; NumPy's pairwise row sum of
        # the same entries is one ulp below it, and an admission test adding
        # in that order rejected this merge.
        game = sample_game(12, D, SeedSpec(98))
        c = 2.163454081101906
        assert coalition_utility(game, 0, range(1, 10)) == -c
        config = AlgoConfig(num_groups=2, compat_constant=c, clique_size_rule=lambda n: 1)
        assert is_compatible(game, range(1, 10), [0], 2, config)


class TestAdmitShortSumBoundary:
    """``_admit`` on sums of 1 to 9 and of 127 to 129 terms.

    A pairwise reduction such as NumPy's changes its order from 8 terms and
    splits above 128, so these lengths are where another order would show.
    One merged agent against ``length`` candidates makes the first test one
    sum of ``length`` terms; one candidate against ``length`` merged agents
    does the same for the second test.  Each sum's threshold is set to the
    sequential sum of the same entries (the test passes) or the next float
    above it (it fails), so a sum one ulp off gives another verdict.
    """
    N = 260
    LENGTHS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 127, 128, 129]

    @pytest.mark.parametrize("kind", ["uniform", "magnitudes"])
    @pytest.mark.parametrize("length", LENGTHS)
    def test_long_side_against_sequential_sums(self, length, kind):
        rng = np.random.default_rng(length)
        U = table(kind, rng, (self.N, self.N))
        entry = memoryview(U)
        for trial in range(12):
            ids = rng.permutation(self.N)
            many, one = np.sort(ids[:length]), ids[length:length + 1]
            # trial % 2: the long sum is the first test's (candidate side) or the second's.
            cand, merged = (many, one) if trial % 2 == 0 else (one, many)
            sums_m = sequential_sums(U, merged, cand)
            sums_c = sequential_sums(U, cand, merged)
            for bump_m, bump_c in [(False, False), (True, False), (False, True)]:
                thr_cand = np.nextafter(sums_m.min(), np.inf) if bump_m else sums_m.min()
                thr_merged = np.nextafter(sums_c.min(), np.inf) if bump_c else sums_c.min()
                k = int(rng.integers(2, 6))
                got_ledger, want_ledger = RevelationLedger(self.N), RevelationLedger(self.N)
                ok, units, n_eval, n_eval2 = _admit(entry, cand.tolist(), merged.tolist(), k,
                                                    float(thr_cand), float(thr_merged))
                got_ledger.record_block(2, merged[:n_eval], cand)
                got_ledger.record_block(2, cand[:n_eval2], merged)
                want = admit_reference(U, cand, merged, k, thr_cand, thr_merged, want_ledger)
                assert (ok, units) == want, (length, trial, bump_m, bump_c)
                assert ok == (not bump_m and not bump_c)
                assert got_ledger == want_ledger


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

    def test_numpy_remainder_ids_save(self, tmp_path):
        g = game_from({(4, 2): 0.45, (5, 0): 0.3}, 6)
        merged = PartialPartition(6, [(0, 1), (2, 3)])
        partition, ok = complete_partition(g, merged, np.array([4, 5]))
        assert ok and partition.coalitions == ((0, 1, 5), (2, 3, 4))
        partition.save(tmp_path / "p.json")
        assert Partition.load(tmp_path / "p.json", n=6) == partition

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
        ledger.record_block(2, [4], [2])
        partition, ok = complete_partition(g, merged, {4}, ledger)
        assert ok
        assert partition.coalitions == ((0, 1, 4), (2, 3))

    def test_queued_stage2_writes_keep_their_codes(self):
        # Agent 4 is linked to both coalitions by stage-2 writes, so it falls
        # back and examines every member; stage 3 must not overwrite the
        # stage-2 codes or the stage-1 one.
        g = game_from({(4, 0): -0.2, (4, 1): -0.2, (4, 2): -0.8, (4, 3): -0.8}, 5)
        merged = PartialPartition(5, [(0, 1), (2, 3)])
        ledger = RevelationLedger(5)
        record1(ledger, 4, 1, BELOW)
        ledger.record_block(2, [4], [0])
        ledger.record_block(2, [2], [4])
        partition, ok = complete_partition(g, merged, {4}, ledger)
        assert not ok
        assert partition.coalitions == ((0, 1, 4), (2, 3))
        assert sorted((src, dst, st) for st, src, dst, _c in ledger.entries()) == [
            (2, 4, 2), (4, 0, 2), (4, 1, 1), (4, 2, 3), (4, 3, 3)]

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

    def test_rejects_merged_ids_outside_the_game(self):
        # Carrier {5, 6} plus remainder {0, 1, 2} covers five agents, but
        # ids 5 and 6 do not exist in a five-agent game.
        g = game_from({}, 5, default=0.5)
        merged = PartialPartition(8, [(5, 6)])
        with pytest.raises(InvalidAgentError):
            complete_partition(g, merged, {0, 1, 2})


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
        # The remainder caps are vacuous at tiny n, so the formal stage-1/2
        # flags hold degenerately there.  From n = 257 a hostile group's whole
        # remainder n/4 exceeds the stage-1 cap n/log16(n)^2, and both flip.
        cfg = AlgoConfig(num_groups=4, clique_size_rule=lambda n: 2)
        g = game_from({}, 24, default=-0.8)
        partition, report, _ = run_three_stage(g, cfg)
        assert partition == Partition.singletons(24)
        assert report.merged_count == 0
        assert not report.stage3_success

        _, report2, _ = run_three_stage(game_from({}, 300, default=-0.8), cfg)
        assert report2.group_remainders == (75, 75, 75, 75)
        assert not report2.stage1_success
        assert not report2.stage2_success

    def test_output_is_valid_partition(self):
        cfg = AlgoConfig(num_groups=4, compat_constant=2.0)
        for seed in range(8):
            n = 40 + 17 * seed
            g = sample_game(n, D, SeedSpec(2400 + seed))
            det = run_three_stage_detailed(g, cfg)
            partition, report = det.partition, det.report
            # Round-robin groups, sizes within one of each other.
            assert det.groups == tuple(tuple(range(j, n, 4)) for j in range(4))
            sizes = [len(group) for group in det.groups]
            assert max(sizes) - min(sizes) <= 1
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


BELOW, AT_LEAST, RAW = ValueClass.BELOW_TAU, ValueClass.AT_LEAST_TAU, ValueClass.RAW


class ReferenceLedger:
    """A dict ledger: one entry per ordered pair, the first writer wins."""

    def __init__(self):
        self.seen = {}
        self.revisits = set()  # (stage, earlier stage) of pairs examined again

    def put(self, stage, src, dst, cls):
        first = self.seen.setdefault((src, dst), (stage, cls))[0]
        if first < stage:
            self.revisits.add((stage, first))

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
    return led


def assert_ledger_matches_reference(n, g, s, tau, compat, seed):
    cfg = AlgoConfig(num_groups=g, edge_threshold=tau, compat_constant=compat,
                     clique_size_rule=lambda m: s)
    game = sample_game(n, D, SeedSpec(seed))
    det = run_three_stage_detailed(game, cfg)
    ref = reference_entries(game, cfg, det)
    assert set(det.ledger.entries()) == ref.entries()
    return det, ref


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

    @pytest.mark.parametrize("compat", [2.0, 0.25])
    def test_benchmark_configs_at_n2000(self, compat):
        _det, ref = assert_ledger_matches_reference(2000, 4, 2, 0.5, compat, seed=5200)
        # Stage 3 examined pairs that an earlier stage had already revealed,
        # so its in-place write must have kept the first writer's code.
        assert {(3, 1), (3, 2)} & ref.revisits

    def test_stage1_stops_on_failed_clique(self):
        det, _ref = assert_ledger_matches_reference(90, 2, 4, 0.5, 2.0, seed=5101)
        assert any(det.group_remainders)

    def test_stage3_runs_out_of_coalitions(self):
        det, _ref = assert_ledger_matches_reference(200, 4, 2, 0.5, 2.0, seed=5102)
        outcomes = {"out" if best is None else ok for _a, best, ok in det.placements}
        assert outcomes == {"out", True, False}


def complete_reference(game, merged, remainder, ledger):
    """Stage 3 as it ran before placing only what it can: every remainder row is
    gathered and walked, and an agent finding no coalition left becomes a singleton.

    Stage-2 links are read from ``ledger`` before anything is placed; each
    examined coalition is then recorded on it as a stage-3 block.  Returns
    (partition, success, placements).
    """
    U, blocks = game.utilities, list(merged.coalitions)
    rem = np.array(sorted(remainder), dtype=np.intp)
    order = np.array([a for block in blocks for a in block], dtype=np.intp)
    starts = np.cumsum([0] + [len(b) for b in blocks])[:-1]
    vals = np.add.reduceat(U[rem[:, None], order], starts, axis=1)
    linked = [[ledger.stage2_between(int(a), block) for block in blocks] for a in rem]
    alive = np.ones(len(blocks), dtype=bool)
    final, placements, success = list(blocks), [], True
    for i, a in enumerate(rem.tolist()):
        if not alive.any():
            final.append((a,))
            placements.append((a, None, False))
            success = False
            continue
        qual = alive & ~np.array(linked[i], dtype=bool)
        best = int(np.where(qual, vals[i], -np.inf).argmax())
        satisfied = bool(qual[best] and vals[i, best] > 0.0)
        if not satisfied:
            success = False
            best = int(np.where(alive, vals[i], -np.inf).argmax())
        for j in np.flatnonzero(qual if satisfied else alive):
            ledger.record_block(3, [a], blocks[j])
        placements.append((a, best, satisfied))
        final[best] = tuple(sorted(final[best] + (a,)))
        alive[best] = False
    return Partition(game.n, final), success, placements


class TestStage3MoreRemainderThanCoalitions:
    """Only the first len(merged) remainder agents are placed; the reference walks them all."""

    @pytest.mark.parametrize("fall_back", [0, 3])
    def test_complete_partition_against_reference(self, fall_back):
        # 40 coalitions of 5, 120 remainder agents; random stage-1 and stage-2
        # entries link remainder agents to coalition members, and the first
        # ``fall_back`` placed agents to every coalition, so they fall back.
        n, rng = 320, np.random.default_rng(33)
        game = sample_game(n, D, SeedSpec(33))
        ids = rng.permutation(n)
        members, remainder = ids[:200], ids[200:]
        merged = PartialPartition(n, [members[i:i + 5].tolist() for i in range(0, 200, 5)])
        ledgers = RevelationLedger(n), RevelationLedger(n)
        for ledger in ledgers:
            ledger.record_block(2, np.sort(remainder)[:fall_back], members)
        for _ in range(60):
            src, dst = rng.choice(remainder, 2), rng.choice(members, 3)
            for ledger in ledgers:
                ledger.record_block(2, src, dst)
                ledger.record_block(2, dst[:1], src)
                record1(ledger, int(src[0]), int(dst[1]), BELOW)
        got_ledger, ref_ledger = ledgers
        partition, ok = complete_partition(game, merged, set(remainder.tolist()), got_ledger)
        want_partition, want_ok, placements = complete_reference(game, merged, remainder,
                                                                 ref_ledger)
        assert sum(best is None for _a, best, _ok in placements) == 80
        # Every placed agent is satisfied without fall-backs, yet the leftovers fail stage 3.
        satisfied = {sat for _a, best, sat in placements if best is not None}
        assert satisfied == ({True, False} if fall_back else {True})
        assert not want_ok
        assert (partition, ok) == (want_partition, want_ok)
        assert got_ledger == ref_ledger

    def test_run_three_stage_detailed_against_reference(self):
        # 36 merged coalitions and 112 remainder agents.
        n = 400
        cfg = AlgoConfig(num_groups=4, edge_threshold=0.3, compat_constant=0.5,
                         clique_size_rule=lambda m: 2)
        game = sample_game(n, D, SeedSpec(7000))
        det = run_three_stage_detailed(game, cfg)
        remainder = [a for a, _best, _ok in det.placements]
        assert len(det.merged) == 36 and len(remainder) == 112
        ledger = RevelationLedger(n)  # det's stage-1 and stage-2 codes
        flat = det.ledger._codes.reshape(-1)
        keys = np.flatnonzero((flat != 0) & (flat != 4))
        ledger._write(_write_codes, keys, flat[keys])
        partition, ok, placements = complete_reference(game, det.merged, remainder, ledger)
        assert (det.partition, det.report.stage3_success) == (partition, ok)
        assert det.placements == tuple(placements)
        assert det.ledger == ledger


class TestAttemptColumns:
    """``det.attempts``, built from stage 2's columns, replayed through the public gate."""

    @staticmethod
    def replay(game, cfg, det, ledger):
        """``is_compatible`` on each attempt's candidate and union, rebuilt from the records."""
        g = cfg.num_groups
        avail = [list(pp.coalitions) for pp in det.clique_partitions]
        flags, merged, round_index = [], [], None
        for att in det.attempts:
            if att.round_index != round_index:
                round_index, union, picks = att.round_index, list(avail[0][0]), [0]
            cand = avail[att.group][att.candidate_index]
            flags.append(is_compatible(game, cand, union, att.position, cfg, ledger))
            if att.success:
                union = sorted(union + list(cand))
                picks.append(att.candidate_index)
            if len(picks) == g:
                for kk, idx in enumerate(picks):
                    avail[kk].pop(idx)
                merged.append(tuple(union))
                picks = []
        return flags, merged

    @pytest.mark.parametrize("compat", [0.25, 2.0])
    def test_success_flags_and_stage2_ledger(self, compat):
        n = 400
        cfg = AlgoConfig(num_groups=4, edge_threshold=0.5, compat_constant=compat,
                         clique_size_rule=lambda m: 2)
        game = sample_game(n, D, SeedSpec(2020))
        det = run_three_stage_detailed(game, cfg)
        ledger = RevelationLedger(n)
        flags, merged = self.replay(game, cfg, det, ledger)
        assert flags == [att.success for att in det.attempts]
        assert merged == list(det.merged.coalitions)
        assert len(merged) > 0 and (compat == 2.0 or not all(flags))
        want = {pair: code for pair, code in codes_of(det.ledger).items() if code[0] == 2}
        assert codes_of(ledger) == want


class TestLedgerInputs:
    PAIRS = {(1, 0), (1, 2), (3, 0), (3, 2)}

    @pytest.mark.parametrize("sources,targets", [
        ({1, 3}, {0, 2}),
        (range(1, 4, 2), range(0, 3, 2)),
        ((a for a in (1, 3)), (b for b in (0, 2))),
        (np.array([1, 3]), np.array([0, 2], dtype=np.int32)),
        (np.array([1, 3], dtype=np.uint8), np.array([[0], [2]], dtype=np.int64)),
        ([1, 3], (0, 2)),
    ])
    def test_record_block_accepts_any_iterable(self, sources, targets):
        ledger = RevelationLedger(5)
        ledger.record_block(2, sources, targets)
        assert {(src, dst) for _st, src, dst, _c in ledger.entries()} == self.PAIRS
        assert ledger.count_by_stage() == {1: 0, 2: 4, 3: 0}

    @pytest.mark.parametrize("members", [
        {2, 3}, range(2, 4), (m for m in (2, 3)), np.array([2, 3]), [3, 2],
        np.array([3, 2], dtype=np.uint8)])
    def test_stage2_between_accepts_any_iterable(self, members):
        ledger = RevelationLedger(5)
        ledger.record_block(2, [4], [2])
        assert ledger.stage2_between(4, members)

    def test_stage2_between_either_direction_and_stage2_only(self):
        ledger = RevelationLedger(5)
        ledger.record_block(2, [4], [2])
        ledger.record_block(3, [4], [1])
        assert ledger.stage2_between(2, [4])
        assert not ledger.stage2_between(4, [0, 1, 3])
        assert not ledger.stage2_between(4, [])

    def test_out_of_range_agents_raise(self):
        ledger = RevelationLedger(5)
        calls = [lambda: ledger.record_block(2, [-1], [0]),
                 lambda: ledger.record_block(2, [0], [5]),
                 lambda: ledger.record_block(2, [0, 5], [1]),
                 lambda: ledger.record_block(3, {0}, range(-1, 1)),
                 lambda: ledger.stage2_between(5, [0]), lambda: ledger.stage2_between(-1, [0]),
                 lambda: ledger.stage2_between(0, [-1])]
        for call in calls:
            with pytest.raises(InvalidAgentError):
                call()
        assert len(ledger) == 0
        g = game_from({}, 5)
        with pytest.raises(InvalidAgentError):
            is_compatible(g, (-1, 3), (0, 1), 2, TestIsCompatible.CFG, ledger)

    @pytest.mark.parametrize("n,error", [(-1, ValueError), (2.5, TypeError), ("3", TypeError),
                                         (None, TypeError), (np.float64(3), TypeError)])
    def test_bad_size_raises_at_construction(self, n, error):
        with pytest.raises(error):
            RevelationLedger(n)

    def test_integer_sizes_are_accepted(self):
        assert RevelationLedger(np.int64(3)).n == 3
        assert len(RevelationLedger(0)) == 0

    def test_ledger_size_must_match_game(self):
        g = game_from({}, 5)
        with pytest.raises(ValueError):
            greedy_cliques(g, range(5), 2, 0.5, RevelationLedger(6))

    def test_queued_writes_keep_first_writer(self):
        ledger = RevelationLedger(4)
        ledger.record_block(2, [0], [1])
        ledger.record_block(3, [0], [1, 2])
        assert codes_of(ledger) == {(0, 1): (2, RAW), (0, 2): (3, RAW)}
        ledger.record_block(2, [0, 1], [2, 3])
        record1(ledger, 1, 2, BELOW)
        record1(ledger, 2, 0, BELOW)
        assert [(st, src, dst) for st, src, dst, _c in ledger.entries()] == [
            (2, 0, 1), (3, 0, 2), (2, 0, 3), (2, 1, 2), (2, 1, 3), (1, 2, 0)]
        assert len(ledger) == 6

    def test_merge_and_equality_use_effective_codes(self):
        a, b = RevelationLedger(3), RevelationLedger(3)
        record1(a, 0, 1, AT_LEAST)
        b.record_block(2, [0], [1, 2])
        b.record_block(3, [1], [0])
        a.merge(b)
        assert codes_of(a) == {(0, 1): (1, AT_LEAST), (0, 2): (2, RAW), (1, 0): (3, RAW)}
        c = RevelationLedger(3)
        record1(c, 0, 1, AT_LEAST)
        c.record_block(2, [0, 0], [2, 1])
        c.record_block(3, [1], [0])
        assert a == c
        c.record_block(2, [2], [2])
        assert a != c


def entries_per_code(ledger, stages):
    """``ledger.entries(stages)`` as one ``==`` pass over the codes per wanted code."""
    decode = {_BELOW: (1, BELOW), _AT_LEAST: (1, AT_LEAST), 3: (2, RAW), 4: (3, RAW)}
    by_stage = {1: (_BELOW, _AT_LEAST), 2: (3,), 3: (4,)}
    flat = ledger._codes.reshape(-1)
    mask = np.zeros(flat.size, dtype=bool)
    for stage in (1, 2, 3) if stages is None else stages:
        for code in by_stage.get(stage, ()):
            mask |= flat == code
    return [(decode[int(flat[key])][0], int(key) // ledger.n, int(key) % ledger.n,
             decode[int(flat[key])][1]) for key in np.flatnonzero(mask)]


@pytest.mark.parametrize("stages", [None, set(), {1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3},
                                    {1, 2, 3}, {4}, {0, 2}, [3, 1, 3]])
def test_entries_select_stages_like_one_pass_per_code(stages):
    game = sample_game(300, D, SeedSpec(23))
    cfg = AlgoConfig(num_groups=3, edge_threshold=0.3, compat_constant=0.5)
    ledger = run_three_stage_detailed(game, cfg).ledger
    assert all(ledger.count_by_stage().values())  # every stage wrote
    got = list(ledger.entries(stages))
    assert got == entries_per_code(ledger, stages)
    assert all(type(x) is int for entry in got for x in entry[:3])


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


@pytest.mark.parametrize("compat", [2.0, 0.25])
def test_run_three_stage_memory_with_tiled_stage3(compat):
    # The benchmark's two configs at n=1000 (clique size 2).  With compat 0.25
    # ~430 remainder agents face ~570 merged members: one stage-3 gather of
    # their utilities would be ~2 n^2 bytes, and it peaked at 4.2 n^2.
    n = 1000
    cfg = AlgoConfig(num_groups=4, edge_threshold=0.5, compat_constant=compat,
                     clique_size_rule=lambda m: 2)
    game = sample_game(n, D, SeedSpec(1))
    tracemalloc.start()
    try:
        _partition, _report, ledger = run_three_stage(game, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ledger) > 0
    assert peak < 3.25 * n * n, f"{peak / n**2:.2f} n^2 bytes"


def composed_stages(game, cfg):
    """The public stages run one after another into one ledger, as ``run_three_stage`` runs them."""
    n, g = game.n, cfg.num_groups
    ledger = RevelationLedger(n)
    stage1 = [greedy_cliques(game, range(j, n, g), cfg.clique_size(n), cfg.edge_threshold, ledger)
              for j in range(g)]
    merged, rem2 = greedy_cluster(game, [cliques for cliques, _ in stage1], cfg, ledger)
    remainder = set(rem2).union(*(rem for _, rem in stage1))
    partition, _ok = complete_partition(game, merged, remainder, ledger)
    return partition, ledger


@pytest.mark.parametrize("compat", [2.0, 0.25])
def test_deferred_ledger_survives_refilling_the_table(compat):
    # run_three_stage builds its ledger on first read; the next sample_game
    # into the same buffer must not reach it.
    n = 400
    cfg = AlgoConfig(num_groups=4, edge_threshold=0.5, compat_constant=compat,
                     clique_size_rule=lambda m: 2)
    buf = np.empty((n, n))
    game = sample_game(n, D, SeedSpec(41), out=buf)
    partition, _report, ledger = run_three_stage(game, cfg)
    want_partition, want_ledger = composed_stages(game, cfg)
    assert ledger._matrix is None  # not built yet
    next_game = sample_game(n, D, SeedSpec(42), out=buf)
    assert composed_stages(next_game, cfg)[1] != want_ledger  # the refill is another game
    assert partition == want_partition
    assert ledger == want_ledger
    assert ledger.count_by_stage()[3] > 0


def test_run_three_stage_unread_ledger_memory_at_n2000():
    # The unread ledger builds no n x n code matrix, which alone is n^2 bytes;
    # the run peaked at 0.83 n^2 on this game (the stage-3 gathers and sums).
    n = 2000
    cfg = AlgoConfig(num_groups=4, edge_threshold=0.5, compat_constant=0.25,
                     clique_size_rule=lambda m: 2)
    game = sample_game(n, D, SeedSpec(2))
    tracemalloc.start()
    try:
        _partition, report, _ledger = run_three_stage(game, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.merged_count > 0 and report.stage2_remainder > 0
    assert peak < n * n, f"{peak / n**2:.2f} n^2 bytes"


@pytest.mark.parametrize("read_groups", [False, True])
@pytest.mark.parametrize("n,g,tau,compat", [(400, 4, 0.5, 2.0), (400, 4, 0.5, 0.25),
                                            (1000, 20, 0.1, 2.0)])
def test_merged_group_ledgers_equal_run_three_stage(n, g, tau, compat, read_groups):
    # One ledger per stage-1 group, merged into one that stages 2 and 3 then
    # use, equals run_three_stage's ledger whether or not the group ledgers
    # were read (built) before the merge.
    cfg = AlgoConfig(num_groups=g, edge_threshold=tau, compat_constant=compat,
                     clique_size_rule=lambda m: 2)
    game = sample_game(n, D, SeedSpec(43))
    partition, report, want = run_three_stage(game, cfg)
    group_ledgers = [RevelationLedger(n) for _ in range(g)]
    stage1 = [greedy_cliques(game, range(j, n, g), 2, tau, group_ledgers[j]) for j in range(g)]
    if read_groups:
        assert sum(len(gl) for gl in group_ledgers) == want.count_by_stage()[1]
    ledger = RevelationLedger(n)
    for gl in group_ledgers:
        ledger.merge(gl)
    assert ledger._matrix is None
    assert all((gl._matrix is None) != read_groups for gl in group_ledgers)
    merged, rem2 = greedy_cluster(game, [cliques for cliques, _ in stage1], cfg, ledger)
    remainder = set(rem2).union(*(rem for _, rem in stage1))
    composed, _ok = complete_partition(game, merged, remainder, ledger)
    assert report.merged_count > 0
    assert composed == partition
    assert ledger == want
    assert ledger.count_by_stage()[3] > 0


def test_unread_stage_ledger_memory_at_n2000():
    # Stages 1 and 2 only log their writes: before the first read the ledger
    # holds no n x n code matrix, which alone is n^2 bytes.
    n, g = 2000, 4
    cfg = AlgoConfig(num_groups=g, edge_threshold=0.5, compat_constant=0.25,
                     clique_size_rule=lambda m: 2)
    game = sample_game(n, D, SeedSpec(2))
    tracemalloc.start()
    try:
        ledger = RevelationLedger(n)
        stage1 = [greedy_cliques(game, range(j, n, g), 2, 0.5, ledger) for j in range(g)]
        greedy_cluster(game, [cliques for cliques, _ in stage1], cfg, ledger)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ledger._matrix is None
    assert peak < n * n, f"{peak / n**2:.2f} n^2 bytes"
    counts = ledger.count_by_stage()
    assert counts[1] > 0 and counts[2] > 0


@pytest.mark.parametrize("seed", range(25))
def test_logged_writes_keep_first_writer_like_reference(seed):
    # Random sequences of stage-1 writes, record_block, merge (of ledgers that
    # were or were not read) and reads, against the dict ledger.
    rng = np.random.default_rng(seed)
    n = 6

    def ids():
        return rng.integers(0, n, size=int(rng.integers(0, 4))).tolist()

    def check(ledger, ref):
        assert set(ledger.entries()) == ref.entries()
        assert len(ledger) == len(ref.seen)

    def run(ledger, ref, steps, depth):
        for _ in range(steps):
            op = int(rng.integers(0, 5 if depth else 4))
            if op == 0:
                src, dst = (int(a) for a in rng.integers(0, n, size=2))
                cls = BELOW if rng.random() < 0.5 else AT_LEAST
                record1(ledger, src, dst, cls)
                ref.put(1, src, dst, cls)
            elif op == 1:
                stage, sources, targets = int(rng.integers(2, 4)), ids(), ids()
                ledger.record_block(stage, sources, targets)
                for src in sources:
                    for dst in targets:
                        ref.put(stage, src, dst, RAW)
            elif op in (2, 3):
                check(ledger, ref)
            else:
                other, other_ref = RevelationLedger(n), ReferenceLedger()
                run(other, other_ref, int(rng.integers(0, 8)), depth - 1)
                ledger.merge(other)
                for (src, dst), (stage, cls) in other_ref.seen.items():
                    ref.put(stage, src, dst, cls)
                run(other, other_ref, 2, 0)  # later writes to other stay out of ledger

    ledger, ref = RevelationLedger(n), ReferenceLedger()
    run(ledger, ref, 30, 2)
    check(ledger, ref)
