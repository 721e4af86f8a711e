import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedonic_lab.games import (
    HedonicGame,
    Partition,
    PartitionError,
    coalition_utility,
    favor_in,
    favor_out,
)
from hedonic_lab.oracle import (
    DEFAULT_ENUMERATION_LIMIT,
    EnumerationLimitError,
    bell,
    count_stable,
    enumerate_partitions,
    exists_stable,
    rgs_strings,
    stirling2,
)
from hedonic_lab.sampling import SeedSpec, UtilityDistribution, sample_game
from hedonic_lab.stability import Concept

RUN_AND_CHASE = HedonicGame([[0.0, -1.0], [1.0, 0.0]])
D = UtilityDistribution(-1, 1)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]


def stirling2_alternating(n: int, k: int) -> int:
    """S(n, k) via the alternating binomial sum, for cross-checking the recurrence."""
    if k > n:
        return 0
    if k == 0:
        return 1 if n == 0 else 0
    total = sum((-1) ** (k - i) * math.comb(k, i) * i ** n for i in range(1, k + 1))
    assert total % math.factorial(k) == 0
    return total // math.factorial(k)


class TestEnumeration:
    def test_counts_match_bell(self):
        for n in range(1, 10):
            assert sum(1 for _ in enumerate_partitions(n)) == BELL[n]

    def test_raw_strings_match_bell_up_to_12(self):
        for n in (10, 11, 12):
            assert sum(1 for _ in rgs_strings(n)) == BELL[n]

    def test_n3_has_five_partitions(self):
        parts = list(enumerate_partitions(3))
        assert len(parts) == 5
        assert parts[0] == Partition.grand(3)
        assert parts[-1] == Partition.singletons(3)

    def test_no_duplicates(self):
        seen = set(p.coalitions for p in enumerate_partitions(6))
        assert len(seen) == BELL[6]

    def test_k_filter(self):
        assert sum(1 for _ in enumerate_partitions(4, k=2)) == 7
        assert all(len(p) == 3 for p in enumerate_partitions(5, k=3))

    def test_n1(self):
        assert [p.coalitions for p in enumerate_partitions(1)] == [((0,),)]

    def test_limit_guard(self):
        with pytest.raises(EnumerationLimitError):
            next(enumerate_partitions(DEFAULT_ENUMERATION_LIMIT + 1))
        # explicit limit raise works
        gen = enumerate_partitions(4, limit=4)
        assert sum(1 for _ in gen) == 15


class TestTrustedPartitions:
    """``enumerate_partitions`` skips validation; its partitions must equal validated ones."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_trusted_equals_validated(self, n):
        for p in enumerate_partitions(n):
            q = Partition(n, p.coalitions)
            assert q == p
            assert [q.index_of(a) for a in range(n)] == [p.index_of(a) for a in range(n)]

    def test_untrusted_construction_still_validates(self):
        n = 5
        for p in enumerate_partitions(n):
            blocks = [list(b) for b in p.coalitions]
            for bad_id in (n, -1):
                with pytest.raises(PartitionError, match="outside"):
                    Partition(n, blocks[:-1] + [blocks[-1] + [bad_id]])
            with pytest.raises(PartitionError, match="two coalitions"):
                Partition(n, blocks + [[blocks[0][0]]])
            short = [kept for b in blocks if (kept := [a for a in b if a != n - 1])]
            with pytest.raises(PartitionError, match="not covered"):
                Partition(n, short)


class TestStirling:
    def test_matches_enumeration(self):
        assert stirling2(4, 2) == 7
        for n in range(1, 8):
            for k in range(1, n + 1):
                assert stirling2(n, k) == sum(1 for _ in enumerate_partitions(n, k=k))

    def test_boundaries(self):
        assert stirling2(6, 6) == 1
        assert stirling2(6, 1) == 1
        assert stirling2(3, 5) == 0
        assert stirling2(0, 0) == 1

    @given(st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=120, deadline=None)
    def test_recurrence_equals_alternating_sum(self, n, k):
        assert stirling2(n, k) == stirling2_alternating(n, k)

    def test_bell_sums(self):
        for n in range(13):
            assert bell(n) == BELL[n]

    def test_exactness_at_large_n(self):
        # Value beyond float precision; checked against the alternating sum.
        assert stirling2(60, 30) == stirling2_alternating(60, 30)
        assert stirling2(60, 30) > 10 ** 50


class TestExistsAndCount:
    def test_run_and_chase_has_no_nash(self):
        assert exists_stable(RUN_AND_CHASE, Concept.NASH) is None
        assert count_stable(RUN_AND_CHASE, Concept.NASH) == 0

    def test_single_agent(self):
        g = HedonicGame([[0.0]])
        for concept in (Concept.NASH, Concept.INDIVIDUALLY_RATIONAL,
                        Concept.CONTRACTUAL_INDIVIDUAL):
            assert exists_stable(g, concept) is not None

    def test_all_positive_grand_found(self):
        arr = np.full((4, 4), 0.2)
        np.fill_diagonal(arr, 0.0)
        g = HedonicGame(arr)
        found = exists_stable(g, Concept.NASH)
        assert found == Partition.grand(4)

    def test_mutual_positive_pair_counts_one_nash(self):
        g = HedonicGame([[0.0, 0.4], [0.3, 0.0]])
        assert count_stable(g, Concept.NASH) == 1

    def test_exists_consistent_with_count(self):
        for seed in range(30):
            g = sample_game(5, D, SeedSpec(19_000 + seed))
            for concept in (Concept.NASH, Concept.INDIVIDUAL):
                assert (count_stable(g, concept) > 0) == (
                    exists_stable(g, concept) is not None)

    def test_limit_enforced(self):
        g = sample_game(5, D, SeedSpec(0))
        with pytest.raises(EnumerationLimitError):
            exists_stable(g, Concept.NASH, limit=4)


class TestGuaranteedConcepts:
    def test_cis_and_ir_always_exist(self):
        # Guaranteed-satisfiable concepts; checked exhaustively on 1000 games.
        rng = np.random.default_rng(0)
        for trial in range(1000):
            n = int(rng.integers(2, 8))
            g = sample_game(n, D, SeedSpec(50_000 + trial))
            assert exists_stable(g, Concept.CONTRACTUAL_INDIVIDUAL) is not None
            assert exists_stable(g, Concept.INDIVIDUALLY_RATIONAL) is not None

    def test_count_monotone_in_concept_strength(self):
        rng = np.random.default_rng(1)
        for trial in range(60):
            n = int(rng.integers(2, 7))
            g = sample_game(n, D, SeedSpec(60_000 + trial))
            ns = count_stable(g, Concept.NASH)
            ind = count_stable(g, Concept.INDIVIDUAL)
            cns = count_stable(g, Concept.CONTRACTUAL_NASH)
            cis = count_stable(g, Concept.CONTRACTUAL_INDIVIDUAL)
            assert ns <= ind <= cis
            assert ns <= cns <= cis


def _stable_by_definition(game, partition, concept):
    """Stability straight from the definitions, without ``stability.check``."""
    blocks = partition.coalitions
    for a in range(game.n):
        i = partition.index_of(a)
        own = blocks[i]
        current = coalition_utility(game, a, own)
        others = [blk for j, blk in enumerate(blocks) if j != i]
        kept = bool(favor_in(game, own, a))
        if concept is Concept.INDIVIDUALLY_RATIONAL:
            fails = current < 0
        elif concept is Concept.EXIT_DENIED:
            fails = not kept
        elif concept is Concept.ENTER_DENIED:
            fails = any(not favor_out(game, blk, a) for blk in others)
        else:
            # (value, admitted) for every move; the fresh singleton admits anyone.
            moves = [(coalition_utility(game, a, blk), not favor_out(game, blk, a))
                     for blk in others]
            if len(own) > 1:
                moves.append((0.0, True))
            if concept in (Concept.INDIVIDUAL, Concept.CONTRACTUAL_INDIVIDUAL):
                moves = [m for m in moves if m[1]]
            if concept in (Concept.CONTRACTUAL_NASH, Concept.CONTRACTUAL_INDIVIDUAL) and kept:
                moves = []
            fails = any(value > current for value, _ in moves)
        if fails:
            return False
    return True


class TestOracleAgainstDefinition:
    """Exact counts and first stable partitions on games full of ties."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_count_and_first_match_definition(self, n):
        rng = np.random.default_rng(8800 + n)
        for _ in range(3):
            arr = rng.integers(-2, 3, size=(n, n)).astype(float)
            np.fill_diagonal(arr, 0.0)
            g = HedonicGame(arr)
            partitions = list(enumerate_partitions(n))
            for concept in Concept:
                stable = [p for p in partitions if _stable_by_definition(g, p, concept)]
                assert count_stable(g, concept) == len(stable), concept
                assert exists_stable(g, concept) == (stable[0] if stable else None), concept
