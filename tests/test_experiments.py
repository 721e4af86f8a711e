import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hedonic_lab import clustering as clustering_mod
from hedonic_lab import experiments as experiments_mod
from hedonic_lab import oracle as oracle_mod
from hedonic_lab.clustering import AlgoConfig
from hedonic_lab.experiments import (
    Campaign,
    CampaignKind,
    FrequencyEstimate,
    ResultRow,
    TrialSummary,
    existence_by_k,
    export_results,
    fixed_shape_ns_successes,
    grand_coalition_flags,
    load_results,
    nash_existence_by_k,
    run_campaign,
    run_mc_alg,
    run_oracle_existence,
    wilson_interval,
    WILSON_Z,
)
from hedonic_lab.games import HedonicGame, Partition
from hedonic_lab.oracle import (
    EnumerationLimitError,
    enumerate_partitions,
    exists_stable,
    rgs_strings,
    stirling2,
)
from hedonic_lab.sampling import SeedSpec, UtilityDistribution, derive_trial_seed, sample_game
from hedonic_lab.stability import (IMPLICATIONS, Concept, agent_verdicts, check, concept_profile,
                                   implied_concepts)

D = UtilityDistribution(-1, 1)


def existence_by_k_scatter(games: np.ndarray, concepts) -> dict[Concept, np.ndarray]:
    """``existence_by_k`` with every partition's rows scattered from scratch, for cross-checking.

    Partitions of each block count k are tested in chunks; each block sum
    starts at 0.0 and adds all n members in ascending order, and the favour
    masks are ORed the same way.  No partition is built from another.
    """
    T, n, _ = games.shape
    exists = {c: np.zeros((T, n + 1), dtype=bool) for c in concepts}
    cols = np.ascontiguousarray(games.transpose(2, 0, 1)).reshape(n, T * n)
    dislikes = (games < 0).transpose(1, 0, 2).reshape(n, T * n)
    likes = (games > 0).transpose(1, 0, 2).reshape(n, T * n)
    flat_agent = np.arange(T * n).reshape(T, n)
    table = np.fromiter(itertools.chain.from_iterable(rgs_strings(n)), np.int64).reshape(-1, n)
    counts = table.max(axis=1) + 1
    for k in np.unique(counts).tolist():
        rows = table[counts == k]
        step = max(1, (1 << 15) // (k * T * n))
        for p0 in range(0, len(rows), step):
            lab = rows[p0:p0 + step]
            P = len(lab)
            block_row = np.arange(P)[:, None] * k + lab
            own_at = (block_row[:, None, :], flat_agent)
            S = np.zeros((P * k, T * n))
            F = np.zeros((P * k, T * n), dtype=bool)
            G = np.zeros((P * k, T * n), dtype=bool)
            for b in range(n):
                S[block_row[:, b]] += cols[b]
                F[block_row[:, b]] |= dislikes[b]
                G[block_row[:, b]] |= likes[b]
            F[own_at] = True  # read by enter-denied only
            ok = agent_verdicts(S.reshape(P, k, T, n), S[own_at], F.reshape(P, k, T, n),
                                G[own_at], concepts=exists)
            for c, ex in exists.items():
                ex[:, k] |= ok[c].all(axis=-1).any(axis=0)
    return exists


def count_folds(monkeypatch) -> collections.Counter:
    """Count, per block count k, the chunks whose verdicts ``existence_by_k`` ORs in."""
    folds = collections.Counter()
    fold = experiments_mod._fold_verdicts

    def counting(exists, layers, lab, k, flat_agent):
        folds[k] += 1
        fold(exists, layers, lab, k, flat_agent)

    monkeypatch.setattr(experiments_mod, "_fold_verdicts", counting)
    return folds


def integer_games(seed: int, T: int, n: int) -> np.ndarray:
    """Utilities in {-2..2}: exact ties, zero sums and zero favours at every k."""
    games = np.random.default_rng(seed).integers(-2, 3, size=(T, n, n)).astype(float)
    games[:, np.arange(n), np.arange(n)] = 0.0
    return games


class TestWilson:
    def test_closed_form_at_zero_successes(self):
        lo, hi = wilson_interval(0, 50)
        z2 = WILSON_Z ** 2
        assert lo == 0.0
        assert hi == pytest.approx(z2 / (50 + z2))

    def test_closed_form_at_full_successes(self):
        lo, hi = wilson_interval(50, 50)
        z2 = WILSON_Z ** 2
        assert hi == 1.0
        assert lo == pytest.approx(50 / (50 + z2))

    def test_interval_contains_estimate(self):
        for s, t in [(1, 10), (5, 10), (999, 1000), (0, 3)]:
            est = FrequencyEstimate.from_counts(s, t)
            assert 0.0 <= est.wilson_lo <= est.estimate <= est.wilson_hi <= 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)


class TestCampaignValidation:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            Campaign(kind=CampaignKind.MC_GRAND, n_values=(5,), trials=0,
                     dist=D, master_seed=SeedSpec(0))

    def test_unsorted_n_rejected(self):
        with pytest.raises(ValueError):
            Campaign(kind=CampaignKind.MC_GRAND, n_values=(10, 5), trials=5,
                     dist=D, master_seed=SeedSpec(0))
        with pytest.raises(ValueError, match="strictly ascending"):
            Campaign(kind=CampaignKind.MC_ALG, n_values=(50, 50), trials=5,
                     dist=D, master_seed=SeedSpec(0))

    @pytest.mark.parametrize("kind,field,values", [
        (CampaignKind.ORACLE_EXISTENCE, "concepts", (Concept.NASH, Concept.NASH)),
        (CampaignKind.BOUNDS_COMPARE, "shape_ks", (2, 3, 2)),
        (CampaignKind.LEMMA_VERIFY, "m_values", (1, 1)),
        (CampaignKind.LEMMA_VERIFY, "k_values", (5, 2, 5)),
    ])
    def test_repeated_values_rejected(self, kind, field, values):
        with pytest.raises(ValueError, match=field):
            Campaign(kind=kind, n_values=(6,), trials=5, dist=D, master_seed=SeedSpec(0),
                     **{field: values})

    @pytest.mark.parametrize("field,value", [
        ("trials", True), ("trials", 2.5),
        ("n_values", (5.5,)), ("n_values", (True,)), ("shape_ks", (2.0,)),
        ("m_values", (1, False)), ("k_values", (np.float64(2),)),
    ])
    def test_counts_that_are_not_integers_rejected(self, field, value):
        # trials=True used to run and export "True" as the trial count.
        settings = dict(kind=CampaignKind.MC_GRAND, n_values=(5,), trials=3, dist=D,
                        master_seed=SeedSpec(0))
        settings[field] = value
        with pytest.raises(TypeError, match=field):
            Campaign(**settings)

    def test_counts_are_stored_as_python_ints(self):
        campaign = Campaign(kind=CampaignKind.BOUNDS_COMPARE, n_values=[np.int64(6)],
                            trials=np.int32(4), dist=D, master_seed=SeedSpec(0),
                            shape_ks=[np.uint8(2)])
        assert campaign.n_values == (6,) and campaign.shape_ks == (2,)
        assert [type(v) for v in (*campaign.n_values, *campaign.shape_ks,
                                  campaign.trials)] == [int] * 3


class TestGrandStudy:
    def test_flags_match_reference_checker(self):
        idx = np.arange(5)
        uniform = SeedSpec(505).rng().uniform(-1, 1, (64, 5, 5))
        # Utilities in {-2..2} give zero row sums and zero utilities: the
        # own >= 0 and max <= 0 boundaries that U(-1, 1) games never reach.
        ties = np.random.default_rng(506).integers(-2, 3, size=(400, 5, 5)).astype(float)
        ties[:200] = np.minimum(ties[:200], 0.0)  # singleton-ns holds on some of them
        for batch in (uniform, ties):
            batch[:, idx, idx] = 0.0
            flags = grand_coalition_flags(batch)
            for i in range(len(batch)):
                g = HedonicGame(batch[i])
                grand = Partition.grand(5)
                singles = Partition.singletons(5)
                assert flags["grand-exit-denied"][i] == check(
                    g, grand, Concept.EXIT_DENIED).stable
                assert flags["grand-cns"][i] == check(
                    g, grand, Concept.CONTRACTUAL_NASH).stable
                assert flags["grand-ir"][i] == check(
                    g, grand, Concept.INDIVIDUALLY_RATIONAL).stable
                assert flags["grand-ns"][i] == check(g, grand, Concept.NASH).stable
                assert flags["singleton-ns"][i] == check(g, singles, Concept.NASH).stable
        assert (ties.sum(axis=2) == 0).any() and flags["grand-ns"].any()
        assert flags["singleton-ns"].any() and not flags["singleton-ns"].all()

    def test_exit_denied_tracks_formula(self):
        campaign = Campaign(kind=CampaignKind.MC_GRAND, n_values=(8,), trials=4000,
                            dist=D, master_seed=SeedSpec(21))
        rows = {r.property: r for r in run_campaign(campaign).rows}
        row = rows["grand-exit-denied"]
        se = math.sqrt(row.bound_value * (1 - row.bound_value) / row.trials)
        assert abs(row.estimate - row.bound_value) <= 4 * se

    def test_nonpositive_support_singleton_ns_always(self):
        campaign = Campaign(kind=CampaignKind.MC_GRAND, n_values=(6,), trials=500,
                            dist=UtilityDistribution(-1.0, -1e-9),
                            master_seed=SeedSpec(3))
        rows = {r.property: r for r in run_campaign(campaign).rows}
        assert rows["singleton-ns"].estimate == 1.0


class TestOracleExistence:
    def test_n2_exact_half(self):
        # Exact existence probability at n=2 is 1/2: a Nash-stable partition
        # exists iff the two utilities share a sign (grand for +/+, singletons
        # for -/-); the two mixed-sign quadrants are run-and-chase.
        campaign = Campaign(kind=CampaignKind.ORACLE_EXISTENCE, n_values=(2,),
                            trials=4000, dist=D, master_seed=SeedSpec(55),
                            concepts=(Concept.NASH,))
        rows = {r.property: r for r in run_campaign(campaign).rows}
        row = rows["exists:nash"]
        assert row.wilson_lo <= 0.5 <= row.wilson_hi

    def test_engine_matches_reference_oracle(self):
        T, n = 40, 5
        games = np.empty((T, n, n))
        for t in range(T):
            games[t] = sample_game(n, D, SeedSpec(7000 + t)).utilities
        assert np.array_equal(nash_existence_by_k(games), self.reference_by_k(games))

    @staticmethod
    def reference_by_k(games: np.ndarray, concept: Concept = Concept.NASH) -> np.ndarray:
        T, n, _ = games.shape
        by_k: dict[int, list[Partition]] = {}
        for p in enumerate_partitions(n):
            by_k.setdefault(len(p), []).append(p)
        ref = np.zeros((T, n + 1), dtype=bool)
        for t in range(T):
            g = HedonicGame(games[t])
            for k, parts in by_k.items():
                ref[t, k] = any(check(g, p, concept).stable for p in parts)
        return ref

    @pytest.mark.parametrize("n", range(1, 8))
    def test_engine_matches_reference_on_integer_games(self, n, monkeypatch):
        # Utilities in {-2..2}: exact ties and zero sums at every block count.
        rng = np.random.default_rng(500 + n)
        games = rng.integers(-2, 3, size=(30, n, n)).astype(float)
        games[:, np.arange(n), np.arange(n)] = 0.0
        ref = self.reference_by_k(games)
        assert np.array_equal(nash_existence_by_k(games), ref)
        # Short table slices split every block count across several of them.
        monkeypatch.setattr(experiments_mod, "_RGS_ROWS", 7)
        assert np.array_equal(nash_existence_by_k(games), ref)

    def test_engine_matches_reference_across_chunks(self, monkeypatch):
        # Each middle k spans several block-sum chunks, so a chunk that
        # overwrote rather than OR-ed the earlier chunks' verdicts would show.
        T, n = 60, 8
        games = np.stack([sample_game(n, D, SeedSpec(7100 + t)).utilities for t in range(T)])
        folds = count_folds(monkeypatch)
        ex = nash_existence_by_k(games)
        assert all(folds[k] >= 3 for k in (2, 3, 4, 5)), folds
        assert np.array_equal(ex, self.reference_by_k(games))
        assert ex[:, 2:6].sum() >= 5

    def test_engine_edge_cases(self):
        empty = nash_existence_by_k(np.zeros((0, 4, 4)))
        assert empty.shape == (0, 5) and empty.dtype == bool
        single = nash_existence_by_k(np.zeros((3, 1, 1)))
        assert single.tolist() == [[False, True]] * 3
        with pytest.raises(ValueError):
            nash_existence_by_k(np.zeros((2, 3, 4)))

    def test_engine_rejects_nonzero_diagonal(self):
        # A singleton's own sum is its diagonal entry, so the Nash test's
        # "own >= 0" holds for singletons only on a zero diagonal.
        games = np.zeros((2, 3, 3))
        games[1, 2, 2] = -0.5
        with pytest.raises(ValueError, match="diagonal"):
            nash_existence_by_k(games)
        games[1, 2, 2] = 0.0
        assert nash_existence_by_k(games).tolist() == [[False, True, True, True]] * 2

    def test_engine_memory_at_n9(self):
        # All 21,147 partitions of 200 games at once would take ~2.7 GB.
        games = np.stack([sample_game(9, D, SeedSpec(7300 + t)).utilities for t in range(200)])
        tracemalloc.start()
        try:
            ex = nash_existence_by_k(games)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"{peak} bytes"
        flags = grand_coalition_flags(games)
        assert np.array_equal(ex[:, 1], flags["grand-ns"])
        assert np.array_equal(ex[:, 9], flags["singleton-ns"])

    def test_cis_always_exists(self):
        campaign = Campaign(kind=CampaignKind.ORACLE_EXISTENCE, n_values=(4, 5),
                            trials=100, dist=D, master_seed=SeedSpec(77),
                            concepts=(Concept.CONTRACTUAL_INDIVIDUAL,))
        for row in run_campaign(campaign).rows:
            assert row.estimate == 1.0

    def test_limit_respected(self):
        campaign = Campaign(kind=CampaignKind.ORACLE_EXISTENCE, n_values=(14,),
                            trials=5, dist=D, master_seed=SeedSpec(0),
                            concepts=(Concept.NASH,))
        with pytest.raises(EnumerationLimitError):
            run_oracle_existence(campaign)


class TestExistenceKernel:
    """``existence_by_k`` for all seven concepts against ``check`` on every partition."""

    reference_by_k = staticmethod(TestOracleExistence.reference_by_k)

    def assert_matches_reference(self, games: np.ndarray) -> None:
        got = existence_by_k(games, tuple(Concept))
        assert list(got) == list(Concept)
        for c in Concept:
            assert np.array_equal(got[c], self.reference_by_k(games, c)), c

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_reference_on_integer_games(self, n, monkeypatch):
        # Utilities in {-2..2}: exact ties, zero sums and zero favours at every k.
        rng = np.random.default_rng(600 + n)
        games = rng.integers(-2, 3, size=(30, n, n)).astype(float)
        games[:, np.arange(n), np.arange(n)] = 0.0
        self.assert_matches_reference(games)
        monkeypatch.setattr(experiments_mod, "_RGS_ROWS", 7)
        self.assert_matches_reference(games)

    def test_matches_reference_across_chunks(self, monkeypatch):
        # k = 2..5 each span at least 3 chunks, so the favour masks and verdicts
        # of every chunk must land in its own rows and OR into the earlier ones.
        T, n = 60, 8
        games = np.stack([sample_game(n, D, SeedSpec(7600 + t)).utilities for t in range(T)])
        folds = count_folds(monkeypatch)
        self.assert_matches_reference(games)
        assert all(folds[k] >= 3 for k in (2, 3, 4, 5)), folds

    @staticmethod
    def assert_matches_scatter(games: np.ndarray, concepts=tuple(Concept)) -> None:
        got = existence_by_k(games, concepts)
        want = existence_by_k_scatter(games, concepts)
        for c in concepts:
            assert np.array_equal(got[c], want[c]), c

    @pytest.mark.parametrize("games,slice_rows", [
        *((integer_games(650 + n, 30, n), 7) for n in range(1, 8)),
        (np.stack([sample_game(8, D, SeedSpec(7650 + t)).utilities for t in range(60)]), 50),
        (np.stack([sample_game(9, D, SeedSpec(7710 + t)).utilities for t in range(8)]), 500),
    ], ids=[*(f"integer-n{n}" for n in range(1, 8)), "uniform-n8", "uniform-n9"])
    def test_matches_scatter_reference(self, games, slice_rows, monkeypatch):
        # Building each partition from its prefix adds the same floats in the
        # same order as scattering it from scratch, so every array is equal.
        self.assert_matches_scatter(games)
        # Short table slices split every prefix block count across several of them.
        monkeypatch.setattr(experiments_mod, "_RGS_ROWS", slice_rows)
        self.assert_matches_scatter(games)

    def test_splits_join_children_across_chunks(self, monkeypatch):
        # Room for two 5-block children per chunk: one parent per chunk, and
        # the join children of a prefix with m >= 4 blocks take several chunks.
        T, n = 30, 6
        games = integer_games(670, T, n)
        monkeypatch.setattr(experiments_mod, "_CHUNK", 2 * (n - 1) * T * n)
        folds = count_folds(monkeypatch)
        self.assert_matches_scatter(games)
        # k = 4: two chunks per 4-block prefix, one per 3-block prefix.
        assert folds[4] == 2 * stirling2(n - 1, 4) + stirling2(n - 1, 3), folds

    @pytest.mark.parametrize("concepts", [(Concept.ENTER_DENIED,), (Concept.EXIT_DENIED,),
                                          (Concept.ENTER_DENIED, Concept.EXIT_DENIED)])
    def test_denial_concepts_build_no_sums(self, concepts, monkeypatch):
        games = integer_games(680, 30, 6)
        calls = []
        verdicts = experiments_mod.agent_verdicts

        def spy(S, own, *args, **kwargs):
            calls.append((S, own))
            return verdicts(S, own, *args, **kwargs)

        monkeypatch.setattr(experiments_mod, "agent_verdicts", spy)
        self.assert_matches_scatter(games, concepts)
        assert calls and all(S is None and own == 0.0 for S, own in calls)

    def test_requested_concepts_only(self):
        games = np.stack([sample_game(6, D, SeedSpec(7700 + t)).utilities for t in range(20)])
        full = existence_by_k(games, tuple(Concept))
        for c in Concept:
            alone = existence_by_k(games, (c, c))
            assert list(alone) == [c] and np.array_equal(alone[c], full[c])
        assert existence_by_k(games, ()) == {}
        with pytest.raises(ValueError, match="concept"):
            existence_by_k(games, ("nash",))

    def test_memory_at_n9_all_concepts(self):
        games = np.stack([sample_game(9, D, SeedSpec(7300 + t)).utilities for t in range(200)])
        tracemalloc.start()
        try:
            ex = existence_by_k(games, tuple(Concept))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"{peak} bytes"
        # A k-block partition stable under one concept is stable under what it implies.
        for (lhs,), rhs in (imp for imp in IMPLICATIONS if len(imp[0]) == 1):
            assert not (ex[lhs] & ~ex[rhs]).any(), (lhs, rhs)
        flags = grand_coalition_flags(games)
        assert np.array_equal(ex[Concept.NASH][:, 1], flags["grand-ns"])
        assert np.array_equal(ex[Concept.EXIT_DENIED][:, 1], flags["grand-exit-denied"])
        assert np.array_equal(ex[Concept.CONTRACTUAL_NASH][:, 1], flags["grand-cns"])

    def test_memory_at_criterion_5_shape(self):
        # Criterion 5's batch at n = 7: 2,000 Nash games, so every chunk holds
        # one parent and each of its join children is built alone.
        games = experiments_mod._sample_game_batch(
            7, D, SeedSpec(20240607), 4 * experiments_mod.TRIAL_BLOCK, 0, 2000)
        tracemalloc.start()
        try:
            ex = nash_existence_by_k(games)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**20, f"{peak} bytes"
        flags = grand_coalition_flags(games)
        assert np.array_equal(ex[:, 1], flags["grand-ns"])
        assert np.array_equal(ex[:, 7], flags["singleton-ns"])

    def test_oracle_existence_calls_no_fallback(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("exists_stable called")

        master = SeedSpec(7800)
        campaign = Campaign(kind=CampaignKind.ORACLE_EXISTENCE, n_values=(4, 5), trials=40,
                            dist=D, master_seed=master, concepts=tuple(Concept))
        monkeypatch.setattr(experiments_mod, "exists_stable", refuse)
        result = run_oracle_existence(campaign)
        monkeypatch.undo()
        for s in result.summaries:
            n_idx = campaign.n_values.index(s.n)
            game = HedonicGame(experiments_mod._sample_game_batch(
                s.n, D, master, n_idx * experiments_mod.TRIAL_BLOCK, s.trial, 1)[0])
            for c in Concept:
                assert s.outcome(f"exists:{c.value}") == (exists_stable(game, c) is not None)

    def test_benchmark_hook_names(self):
        # perfbench/tracing.py wraps these module attributes by name.
        hooks = [(experiments_mod, name) for name in
                 ("exists_stable", "rgs_strings", "nash_existence_by_k", "nash_k_bound")]
        hooks += [(clustering_mod, "is_compatible"), (oracle_mod, "check"),
                  (oracle_mod, "rgs_strings")]
        for mod, name in hooks:
            assert callable(getattr(mod, name)), (mod.__name__, name)


class TestMcAlg:
    CFG = AlgoConfig(num_groups=4, compat_constant=2.0,
                     clique_size_rule=lambda n: 2)

    def campaign(self, **kw):
        defaults = dict(kind=CampaignKind.MC_ALG, n_values=(60,), trials=30,
                        dist=D, master_seed=SeedSpec(99), config=self.CFG)
        defaults.update(kw)
        return Campaign(**defaults)

    def test_positive_support_is_always_ir(self):
        campaign = self.campaign(dist=UtilityDistribution(0.1, 1.0))
        rows = {r.property: r for r in run_campaign(campaign).rows}
        assert rows["individually-rational"].estimate == 1.0

    def test_lattice_consistent_on_all_trials(self):
        result = run_mc_alg(self.campaign(trials=40))
        assert len(result.summaries) == 40
        for summary in result.summaries:
            outcomes = dict(summary.outcomes)
            profile = {c: outcomes[c.value] for c in Concept}
            assert implied_concepts(profile) == []

    def test_histogram_totals_n(self):
        result = run_mc_alg(self.campaign(trials=10))
        for summary in result.summaries:
            assert sum(s * c for s, c in summary.coalition_sizes) == summary.n

    def test_reused_tables_give_each_trial_its_own_game(self):
        # Trials refill one table per n; each must still see the fresh game
        # of its own seed.
        result = run_mc_alg(self.campaign(n_values=(20, 40), trials=9))
        assert len(result.summaries) == 18
        for s in result.summaries:
            n_idx = (20, 40).index(s.n)
            seed = derive_trial_seed(SeedSpec(99), n_idx * experiments_mod.TRIAL_BLOCK + s.trial)
            game = sample_game(s.n, D, seed)
            partition, report, _ledger = clustering_mod.run_three_stage(game, self.CFG)
            outcomes = dict(s.outcomes)
            assert {c: outcomes[c.value] for c in Concept} == concept_profile(game, partition)
            assert outcomes["stage3-success"] == report.stage3_success
            assert s.coalition_sizes == tuple(sorted(report.coalition_size_histogram.items()))


class TestFixedShape:
    def test_matches_reference_on_small_batch(self):
        n, k = 4, 2
        lab = [0, 0, 1, 1]
        succ = 0
        trials = 3000
        got = fixed_shape_ns_successes(n, k, trials, D, SeedSpec(123))
        # reference: same partition, generic checker over fresh games
        ref_partition = Partition.from_labels(lab)
        count = 0
        rng = SeedSpec(124).rng()
        for _ in range(trials):
            arr = rng.uniform(-1, 1, (n, n))
            np.fill_diagonal(arr, 0.0)
            if check(HedonicGame(arr), ref_partition, Concept.NASH).stable:
                count += 1
        p_hat, p_ref = got / trials, count / trials
        se = math.sqrt(max(p_hat * (1 - p_hat), 1e-9) / trials) * 2
        assert abs(p_hat - p_ref) <= 4 * se + 0.01

    @pytest.mark.parametrize("n,k,base,trials", [(4, 2, 0, 600), (6, 3, 5, 20000),
                                                 (6, 2, 1 << 40, 6000)])
    def test_counts_equal_check_on_the_same_games(self, n, k, base, trials):
        # One chunk: the function draws its games from the generator of
        # stream ``base`` of the master, then zeroes the diagonal.
        master = SeedSpec(125)
        batch = D.sample(derive_trial_seed(master, base).rng(), (trials, n, n))
        batch[:, np.arange(n), np.arange(n)] = 0.0
        shape = Partition.from_labels(np.repeat(np.arange(k), n // k).tolist())
        expected = sum(check(HedonicGame(U), shape, Concept.NASH).stable for U in batch)
        assert fixed_shape_ns_successes(n, k, trials, D, master, base) == expected
        assert expected > 0

    def test_rejects_singleton_shapes(self):
        with pytest.raises(ValueError):
            fixed_shape_ns_successes(5, 2, 10, D, SeedSpec(0))
        with pytest.raises(ValueError):
            fixed_shape_ns_successes(6, 6, 10, D, SeedSpec(0))


class TestLemmaVerify:
    def test_lagrange_rows_separate_true_maximum_from_symmetric_form(self):
        campaign = Campaign(kind=CampaignKind.LEMMA_VERIFY, n_values=(), trials=2000,
                            dist=D, master_seed=SeedSpec(5), m_values=(1,),
                            k_values=(1,))
        rows = {r.property: r for r in run_campaign(campaign).rows}
        assert rows["lagrange-product-violations"].successes == 0
        # The symmetric (z/k)^n form fails on ~12% of sampled instances.
        assert rows["lagrange-symmetric-form-violations"].successes > 0


class TestExport:
    ROWS = [
        ResultRow(5, "grand-ns", 3, 10, 0.3, 0.1, 0.6, 0.25),
        ResultRow(6, "exists:nash", 0, 10, 0.0, 0.0, 0.3, None),
    ]

    def test_csv_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_results([], path, "csv")
        assert path.read_text() == ("n,property,successes,trials,estimate,"
                                    "wilson_lo,wilson_hi,bound_value\n")

    def test_csv_content(self, tmp_path):
        path = tmp_path / "r.csv"
        export_results(self.ROWS, path, "csv")
        lines = path.read_text().splitlines()
        assert lines[1] == "5,grand-ns,3,10,0.3,0.1,0.6,0.25"
        assert lines[2].endswith(",")  # empty bound column

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        export_results(self.ROWS, path, "json")
        assert load_results(path) == self.ROWS

    def test_byte_identical_reruns(self, tmp_path):
        campaign = Campaign(kind=CampaignKind.MC_GRAND, n_values=(5, 7), trials=300,
                            dist=D, master_seed=SeedSpec(1234))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_results(run_campaign(campaign).rows, a, "csv")
        export_results(run_campaign(campaign).rows, b, "csv")
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_results(self.ROWS, tmp_path / "x.bin", "parquet")


def test_trial_summary_wall_time_ignored_in_equality():
    a = TrialSummary(5, 0, 0, (("x", True),), wall_ms=1.0)
    b = TrialSummary(5, 0, 0, (("x", True),), wall_ms=99.0)
    assert a == b


class TestExistenceSumTrend:
    def test_per_k_existence_sum_non_increasing(self):
        # Sum over k of P(some k-block partition is Nash-stable), n=4..7:
        # non-increasing in n up to confidence-interval overlap.
        trials = 400
        sums, ses = [], []
        for n_idx, n in enumerate(range(4, 8)):
            campaign = Campaign(kind=CampaignKind.ORACLE_EXISTENCE,
                                n_values=(n,), trials=trials, dist=D,
                                master_seed=SeedSpec(424200 + n_idx),
                                concepts=(Concept.NASH,))
            rows = [r for r in run_campaign(campaign, keep_summaries=False).rows
                    if ":k=" in r.property]
            total = sum(r.estimate for r in rows)
            var = sum(r.estimate * (1 - r.estimate) / trials for r in rows)
            sums.append(total)
            ses.append(math.sqrt(var))
        for i in range(len(sums) - 1):
            assert sums[i + 1] <= sums[i] + 3 * (ses[i] + ses[i + 1])
