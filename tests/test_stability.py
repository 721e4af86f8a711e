import dataclasses
import tracemalloc

import numpy as np
import pytest

from hedonic_lab.games import (
    Deviation,
    HedonicGame,
    NEW_SINGLETON,
    PartialPartition,
    Partition,
    PartitionError,
    coalition_utility,
    enumerate_deviations,
    favor_in,
    favor_out,
)
from hedonic_lab.oracle import enumerate_partitions
from hedonic_lab.sampling import SeedSpec, UtilityDistribution, sample_game
from hedonic_lab import stability
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


def integer_game(n, seed):
    """Utilities drawn from {-2..2}: exact ties and zero sums are common."""
    arr = np.random.default_rng(seed).integers(-2, 3, size=(n, n)).astype(float)
    np.fill_diagonal(arr, 0.0)
    return HedonicGame(arr)


def first_witness(game, partition, concept):
    """Definitional re-derivation of ``check``'s witness (None when stable).

    Deviation concepts walk ``enumerate_deviations`` and return the first move
    that strictly improves the agent with the consent the concept asks for;
    the denial concepts return the first ``(agent, coalition)`` pair, agent
    ascending, then coalition index ascending.
    """
    blocks = partition.coalitions
    if concept is Concept.INDIVIDUALLY_RATIONAL:
        for a in range(game.n):
            if coalition_utility(game, a, partition.coalition_of(a)) < 0:
                return (a, partition.index_of(a))
        return None
    if concept is Concept.ENTER_DENIED:
        for a in range(game.n):
            for j, block in enumerate(blocks):
                if j != partition.index_of(a) and not favor_out(game, block, a):
                    return (a, j)
        return None
    if concept is Concept.EXIT_DENIED:
        for a in range(game.n):
            if not favor_in(game, partition.coalition_of(a), a):
                return (a, partition.index_of(a))
        return None
    for dev in enumerate_deviations(game, partition):
        a = dev.agent
        own = partition.coalition_of(a)
        current = coalition_utility(game, a, own)
        if dev.target is NEW_SINGLETON:
            new_val, consent_out = 0.0, True
        else:
            target = blocks[dev.target]
            new_val = coalition_utility(game, a, target)
            consent_out = len(favor_out(game, target, a)) == 0
        if new_val <= current:
            continue
        consent_in = len(favor_in(game, own, a)) == 0
        if concept is Concept.NASH:
            return dev
        if concept is Concept.INDIVIDUAL and consent_out:
            return dev
        if concept is Concept.CONTRACTUAL_NASH and consent_in:
            return dev
        if concept is Concept.CONTRACTUAL_INDIVIDUAL and consent_out and consent_in:
            return dev
    return None


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


class TestCheckDispatch:
    """``check`` decides the concept's rules once per call and shares its verdicts."""

    # TestWitnessOrder checks every member's verdicts against the definition.
    @pytest.mark.parametrize("concept", ["nash", None, 0])
    def test_non_member_raises_value_error(self, concept):
        with pytest.raises(ValueError, match="unhandled concept"):
            check(RUN_AND_CHASE, Partition.grand(2), concept)

    def test_repeated_failing_checks_return_equal_verdicts(self):
        g = sample_game(6, D, SeedSpec(41))
        for concept in Concept:
            first = [check(g, p, concept) for p in enumerate_partitions(6)]
            again = [check(g, p, concept) for p in enumerate_partitions(6)]
            assert again == first, concept
            fresh = [Verdict(v.stable, v.witness) for v in first]
            assert fresh == first, concept
            assert not all(v.stable for v in first), concept

    def test_verdicts_are_frozen(self):
        for p in (Partition.grand(2), Partition.singletons(2)):
            for concept in Concept:
                v = check(RUN_AND_CHASE, p, concept)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    v.stable = not v.stable
                with pytest.raises(dataclasses.FrozenInstanceError):
                    v.witness = None
                if isinstance(v.witness, Deviation):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        v.witness.agent = 1

    def test_verdict_caches_are_bounded(self):
        for cached in (stability._moves, stability._denied):
            maxsize = cached.cache_info().maxsize
            assert maxsize is not None and 0 < maxsize <= 4096

    def test_partial_partition_raises_partition_error(self):
        # Even one that covers every agent once raised a bare AttributeError.
        for p in (PartialPartition(2, [[0, 1]]), PartialPartition(2, [[1]])):
            for concept in Concept:
                with pytest.raises(PartitionError, match="a Partition is required"):
                    check(RUN_AND_CHASE, p, concept)
            with pytest.raises(PartitionError, match="a Partition is required"):
                concept_profile(RUN_AND_CHASE, p)


class TestGameViews:
    """``check`` reads through row and column memoryviews built once per game."""

    def test_views_read_the_table_and_are_kept(self):
        g = sample_game(7, D, SeedSpec(43))
        rows, cols = g._rows_cols
        U = g.utilities
        for a in range(7):
            assert rows[a].readonly and cols[a].readonly
            assert list(rows[a]) == U[a].tolist() and list(cols[a]) == U[:, a].tolist()
        check(g, Partition.grand(7), Concept.CONTRACTUAL_NASH)
        again = g._rows_cols
        assert again[0] is rows and again[1] is cols

    def test_refilled_buffer_checks_like_a_fresh_copy(self):
        n = 7
        buf = np.empty((n, n))
        first = sample_game(n, D, SeedSpec(44), out=buf)
        parts = list(enumerate_partitions(n))[::37]
        for concept in Concept:
            check(first, Partition.grand(n), concept)  # builds the first game's views
        second = sample_game(n, D, SeedSpec(45), out=buf)
        assert second.utilities is buf
        fresh = HedonicGame(buf.copy())
        verdicts = [check(second, p, c) for p in parts for c in Concept]
        assert verdicts == [check(fresh, p, c) for p in parts for c in Concept]
        old = sample_game(n, D, SeedSpec(44))
        assert verdicts != [check(old, p, c) for p in parts for c in Concept]

    def test_views_at_n2000_are_views_not_copies(self):
        # A list of Python floats per row and per column would take ~250 MB.
        g = sample_game(2000, D, SeedSpec(46))
        tracemalloc.start()
        try:
            rows, cols = g._rows_cols
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MB"
        assert len(rows) == len(cols) == 2000 and len(rows[0]) == len(cols[0]) == 2000


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


class TestWitnessOrder:
    """``check`` returns exactly the first witness of the documented order."""

    @pytest.mark.parametrize("kind", ["uniform", "integer"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_first_witness_on_every_partition(self, kind, n):
        for seed in range(3):
            if kind == "uniform":
                g = sample_game(n, D, SeedSpec(7100 + seed))
            else:
                g = integer_game(n, 7200 + 10 * n + seed)
            for p in enumerate_partitions(n):
                for concept in Concept:
                    assert check(g, p, concept).witness == first_witness(g, p, concept), (
                        f"{concept} on {p}")


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
                assert check(g, p, concept).stable == (first_witness(g, p, concept) is None)


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


class TestProfileRestrictedRows:
    """The scan past the first tile, which reads only rows without an own-block friend.

    Agent 0 fails Nash, IS, IR and enter-denied, so after the first tile only
    CNS and CIS can still hold.  Agent ``PLANTED`` (in the last, partial tile)
    loses every own-block friend; it then breaks CNS alone (a gain without the
    target's consent), CIS and CNS (with consent), or neither.
    """

    N = TestProfileAcrossTiles.N
    PLANTED = TestProfileAcrossTiles.PLANTED_AGENTS[1]

    def game(self, case):
        labels = TestProfileAcrossTiles.labels("mixed", self.N)
        big = int(np.flatnonzero(np.bincount(labels) > 1)[0])
        first = int(np.flatnonzero(labels == big)[0])
        labels[0], labels[first] = labels[first], labels[0]  # agent 0 joins a block
        arr = TestProfileAcrossTiles.base_utilities(labels)
        plant = TestProfileAcrossTiles.plant
        assert plant(arr, labels, 0, Concept.INDIVIDUALLY_RATIONAL)
        assert plant(arr, labels, 0, Concept.ENTER_DENIED)
        concept = {"cns": Concept.CONTRACTUAL_NASH, "cis": Concept.CONTRACTUAL_INDIVIDUAL,
                   "none": Concept.EXIT_DENIED}[case]
        assert plant(arr, labels, self.PLANTED, concept)
        return HedonicGame(arr), Partition.from_labels(labels)

    @pytest.mark.parametrize("case", ["cns", "cis", "none"])
    def test_profile_matches_check(self, case):
        assert self.N - 1 - self.PLANTED < self.N % _TILE_ROWS  # in the last, partial tile
        g, p = self.game(case)
        expected = {c: check(g, p, c).stable for c in Concept}
        for concept in (Concept.NASH, Concept.INDIVIDUAL, Concept.INDIVIDUALLY_RATIONAL,
                        Concept.ENTER_DENIED):
            witness = check(g, p, concept).witness
            assert (witness.agent if isinstance(witness, Deviation) else witness[0]) == 0
        assert expected[Concept.CONTRACTUAL_NASH] == (case == "none")
        assert expected[Concept.CONTRACTUAL_INDIVIDUAL] == (case != "cis")
        assert concept_profile(g, p) == expected


class TestProfileMemory:
    """``concept_profile`` keeps O(_TILE_ROWS * n) extra memory on every block shape.

    The grand coalition is the shape where a per-block cube of own-block
    utilities would be n x n (~18 MB at n = 1500); singletons give the most
    blocks.  Each shape runs on a U(-1, 1) game, where the full-tile scan
    stops after one tile, and on a game where every row must be scanned.
    """

    N = 1500
    PEAK_BYTES = 2.5 * 2**20

    @pytest.mark.parametrize("shape", ["grand", "singletons", "pairs", "9-blocks"])
    def test_peak_at_n1500(self, shape):
        n = self.N
        labels = {"grand": np.zeros(n, dtype=np.int64), "singletons": np.arange(n),
                  "pairs": np.arange(n) // 2,
                  "9-blocks": np.random.default_rng(41).permutation(np.arange(n) // 9)}[shape]
        p = Partition.from_labels(labels)
        uniform = sample_game(n, D, SeedSpec(42))
        mag = np.abs(uniform.utilities) + 0.1
        arr = np.where(labels[:, None] == labels[None, :], mag, -mag)
        np.fill_diagonal(arr, 0.0)
        planted = HedonicGame(arr)
        del arr, mag
        tracemalloc.start()
        try:
            for g in (uniform, planted):
                tracemalloc.reset_peak()
                prof = concept_profile(g, p)
                peak = tracemalloc.get_traced_memory()[1]
                assert peak <= self.PEAK_BYTES, f"{shape}: {peak / 2**20:.2f} MB"
        finally:
            tracemalloc.stop()
        assert prof[Concept.NASH]  # the planted game holds, so every row was read


class TestCheckMemory:
    """``check`` reads one row or column at a time, never the whole table.

    A copy of the table as Python floats would take ~70 MB at n = 1500.  The
    base game (positive utilities inside blocks, negative across) is stable
    for all seven concepts; agent ``PLANTED`` is then made to fail each of
    them, which keeps the scans short under ``tracemalloc``.
    """

    N = 1500
    PLANTED = 50
    PEAK_BYTES = 4 * 2**20

    def test_check_memory_and_verdicts_at_n1500(self):
        rng = np.random.default_rng(31)
        labels = rng.integers(0, 60, size=self.N)
        mag = rng.uniform(0.1, 1.0, size=(self.N, self.N))
        arr = np.where(labels[:, None] == labels[None, :], mag, -mag)
        np.fill_diagonal(arr, 0.0)
        a = self.PLANTED
        own = np.flatnonzero(labels == labels[a])
        own = own[own != a]
        arr[a, own] = -1.0  # a would rather be alone: fails IR and every deviation concept
        arr[own, a] = -0.5  # nobody keeps a: fails exit-denied, lifts the contractual veto
        arr[labels == labels[a] + 1, a] = 0.5  # nobody refuses a: fails enter-denied
        g, p = HedonicGame(arr), Partition.from_labels(labels)
        del arr, mag
        prof = concept_profile(g, p)
        tracemalloc.start()
        try:
            for concept in Concept:
                tracemalloc.reset_peak()
                verdict = check(g, p, concept)
                peak = tracemalloc.get_traced_memory()[1]
                assert peak < self.PEAK_BYTES, f"{concept}: {peak} bytes"
                assert verdict.stable == prof[concept], concept
                assert not verdict.stable
        finally:
            tracemalloc.stop()


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
