import numpy as np
import pytest

from hedonic_lab.games import (
    Deviation,
    HedonicGame,
    NEW_SINGLETON,
    Partition,
    coalition_utility,
    enumerate_deviations,
    favor_in,
    favor_out,
)
from hedonic_lab.sampling import SeedSpec, UtilityDistribution, sample_game
from hedonic_lab.stability import (
    _TILE_ROWS,
    Concept,
    Verdict,
    check,
    concept_profile,
    implied_concepts,
)

RUN_AND_CHASE = HedonicGame([[0.0, -1.0], [1.0, 0.0]])
D = UtilityDistribution(-1, 1)


def brute_force_check(game, partition, concept):
    """Definitional re-derivation from raw deviations and favor sets."""
    for dev in enumerate_deviations(game, partition):
        a = dev.agent
        own = partition.coalition_of(a)
        current = coalition_utility(game, a, own)
        if dev.target is NEW_SINGLETON:
            new_val, consent_out = 0.0, True
        else:
            target = partition.coalitions[dev.target]
            new_val = coalition_utility(game, a, target)
            consent_out = len(favor_out(game, target, a)) == 0
        if new_val <= current:
            continue
        consent_in = len(favor_in(game, own, a)) == 0
        if concept is Concept.NASH:
            return False
        if concept is Concept.INDIVIDUAL and consent_out:
            return False
        if concept is Concept.CONTRACTUAL_NASH and consent_in:
            return False
        if concept is Concept.CONTRACTUAL_INDIVIDUAL and consent_out and consent_in:
            return False
    return True


class TestRunAndChase:
    def test_no_nash_stable_extreme_partitions(self):
        for p in (Partition.singletons(2), Partition.grand(2)):
            assert not check(RUN_AND_CHASE, p, Concept.NASH).stable

    def test_witnesses(self):
        v = check(RUN_AND_CHASE, Partition.grand(2), Concept.NASH)
        assert v.witness == Deviation(0, NEW_SINGLETON)
        v = check(RUN_AND_CHASE, Partition.singletons(2), Concept.NASH)
        assert v.witness == Deviation(1, 0)


class TestCheckBasics:
    def test_singleton_partition_always_ir(self):
        for seed in range(20):
            g = sample_game(5, D, SeedSpec(seed))
            assert check(g, Partition.singletons(5), Concept.INDIVIDUALLY_RATIONAL).stable

    def test_singleton_coalition_breaks_exit_denied(self):
        for seed in range(20):
            g = sample_game(4, D, SeedSpec(seed))
            p = Partition(4, [[0, 1, 2], [3]])
            assert not check(g, p, Concept.EXIT_DENIED).stable

    def test_exit_denied_witness_is_singleton_when_rest_held(self):
        arr = np.full((4, 4), 0.5)
        np.fill_diagonal(arr, 0.0)
        g = HedonicGame(arr)
        v = check(g, Partition(4, [[0, 1, 2], [3]]), Concept.EXIT_DENIED)
        assert v.witness == (3, 1)

    def test_all_positive_grand_is_nash(self):
        arr = np.full((4, 4), 0.3)
        np.fill_diagonal(arr, 0.0)
        g = HedonicGame(arr)
        assert check(g, Partition.grand(4), Concept.NASH).stable

    def test_verdict_witness_consistency(self):
        with pytest.raises(ValueError):
            Verdict(stable=True, witness=(0, 1))
        with pytest.raises(ValueError):
            Verdict(stable=False)

    def test_ir_witness_is_agent_and_coalition(self):
        g = HedonicGame([[0.0, -1.0], [1.0, 0.0]])
        v = check(g, Partition.grand(2), Concept.INDIVIDUALLY_RATIONAL)
        assert v.witness == (0, 0)


class TestWitnessValidity:
    def test_witness_improves_and_has_consent(self):
        deviation_concepts = (Concept.NASH, Concept.INDIVIDUAL,
                              Concept.CONTRACTUAL_NASH, Concept.CONTRACTUAL_INDIVIDUAL)
        rng = np.random.default_rng(7)
        for trial in range(300):
            n = int(rng.integers(2, 7))
            g = sample_game(n, D, SeedSpec(9000 + trial))
            p = Partition.from_labels(rng.integers(0, n, size=n))
            for concept in deviation_concepts:
                v = check(g, p, concept)
                if v.stable:
                    continue
                dev = v.witness
                a = dev.agent
                current = coalition_utility(g, a, p.coalition_of(a))
                if dev.target is NEW_SINGLETON:
                    assert 0.0 > current
                    consent_out = True
                else:
                    target = p.coalitions[dev.target]
                    assert coalition_utility(g, a, target) > current
                    consent_out = not favor_out(g, target, a)
                if concept in (Concept.INDIVIDUAL, Concept.CONTRACTUAL_INDIVIDUAL):
                    assert consent_out
                if concept in (Concept.CONTRACTUAL_NASH, Concept.CONTRACTUAL_INDIVIDUAL):
                    assert not favor_in(g, p.coalition_of(a), a)


class TestProfileAgainstReference:
    def test_profile_matches_check_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for trial in range(400):
            n = int(rng.integers(2, 8))
            g = sample_game(n, D, SeedSpec(4000 + trial))
            p = Partition.from_labels(rng.integers(0, n, size=n))
            prof = concept_profile(g, p)
            for concept in Concept:
                assert prof[concept] == check(g, p, concept).stable, (
                    f"{concept} mismatch on trial {trial}")

    def test_reference_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(2, 7))
            g = sample_game(n, D, SeedSpec(6000 + trial))
            p = Partition.from_labels(rng.integers(0, n, size=n))
            for concept in (Concept.NASH, Concept.INDIVIDUAL,
                            Concept.CONTRACTUAL_NASH, Concept.CONTRACTUAL_INDIVIDUAL):
                assert check(g, p, concept).stable == brute_force_check(g, p, concept)


class TestProfileAcrossTiles:
    """``concept_profile`` against ``check`` on a game spanning three row tiles.

    The base game makes the partition Nash-stable (positive utilities inside
    blocks, negative across), and each case plants one violation at one agent:
    the first agent of the second tile or one in the last, partial tile.
    """

    N = 2 * _TILE_ROWS + 17
    PLANTED_AGENTS = (_TILE_ROWS, 2 * _TILE_ROWS + 9)

    @staticmethod
    def labels(shape, n):
        if shape == "grand":
            return np.zeros(n, dtype=np.int64)
        if shape == "singletons":
            return np.arange(n)
        # One large block, 15 blocks of 5 and singletons, agents shuffled.
        sizes = [40] + [5] * 15 + [1] * (n - 115)
        blocks = np.repeat(np.arange(len(sizes)), sizes)
        return blocks[np.random.default_rng(21).permutation(n)]

    @staticmethod
    def base_utilities(labels):
        rng = np.random.default_rng(22)
        n = len(labels)
        mag = rng.uniform(0.1, 1.0, size=(n, n))
        arr = np.where(labels[:, None] == labels[None, :], mag, -mag)
        np.fill_diagonal(arr, 0.0)
        return arr

    @staticmethod
    def plant(arr, labels, a, concept):
        """Make ``concept`` fail at agent ``a``; return False where the shape rules that out."""
        own = labels == labels[a]
        own[a] = False
        others = np.flatnonzero(labels != labels[a])
        target = labels == labels[others[-1]] if len(others) else None
        if concept is Concept.INDIVIDUALLY_RATIONAL:
            arr[a, own] = -1.0
            return bool(own.any())
        if concept is Concept.ENTER_DENIED:
            if target is None:
                return False
            arr[target, a] = 0.5
            return True
        if concept is Concept.EXIT_DENIED:
            arr[own, a] = -0.5
            return True
        # Deviation concepts: a gains by joining the target block (or by leaving
        # the grand coalition), with the consent each concept asks for.
        if target is None:
            arr[a, own] = -1.0
        else:
            arr[a, target] = (arr[a, own].sum() + 1.0) / target.sum()
            if concept in (Concept.INDIVIDUAL, Concept.CONTRACTUAL_INDIVIDUAL):
                arr[target, a] = 0.5
        if concept in (Concept.CONTRACTUAL_NASH, Concept.CONTRACTUAL_INDIVIDUAL):
            arr[own, a] = -0.5
        return True

    @pytest.mark.parametrize("shape", ["mixed", "grand", "singletons"])
    def test_base_partition_is_nash_stable(self, shape):
        labels = self.labels(shape, self.N)
        g = HedonicGame(self.base_utilities(labels))
        p = Partition.from_labels(labels)
        prof = concept_profile(g, p)
        assert prof[Concept.NASH]
        assert prof == {c: check(g, p, c).stable for c in Concept}

    @pytest.mark.parametrize("shape", ["mixed", "grand", "singletons"])
    @pytest.mark.parametrize("agent", PLANTED_AGENTS)
    @pytest.mark.parametrize("concept", list(Concept), ids=lambda c: c.value)
    def test_planted_violation(self, shape, agent, concept):
        labels = self.labels(shape, self.N)
        arr = self.base_utilities(labels)
        feasible = self.plant(arr, labels, agent, concept)
        g = HedonicGame(arr)
        p = Partition.from_labels(labels)
        expected = {c: check(g, p, c).stable for c in Concept}
        if feasible:
            assert not expected[concept]
        assert concept_profile(g, p) == expected


class TestImpliedConcepts:
    def base(self, **overrides):
        results = {c: True for c in Concept}
        for key, val in overrides.items():
            results[Concept[key]] = val
        return results

    def test_detects_nash_without_individual(self):
        violations = implied_concepts(self.base(INDIVIDUAL=False,
                                                ENTER_DENIED=False))
        assert "NASH=>INDIVIDUAL" in violations

    def test_all_false_is_consistent(self):
        assert implied_concepts({c: False for c in Concept}) == []

    def test_exit_denied_with_cns_consistent(self):
        results = self.base()
        assert implied_concepts(results) == []

    def test_missing_concept_rejected(self):
        partial = {Concept.NASH: True}
        with pytest.raises(ValueError, match="missing"):
            implied_concepts(partial)

    def test_lattice_holds_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for trial in range(1000):
            n = int(rng.integers(2, 8))
            g = sample_game(n, D, SeedSpec(100_000 + trial))
            p = Partition.from_labels(rng.integers(0, n, size=n))
            assert implied_concepts(concept_profile(g, p)) == []


def test_concept_parse_aliases():
    assert Concept.parse("ir") is Concept.INDIVIDUALLY_RATIONAL
    assert Concept.parse("contractual_nash") is Concept.CONTRACTUAL_NASH
    assert Concept.parse("NASH") is Concept.NASH
    with pytest.raises(ValueError):
        Concept.parse("corestability")
