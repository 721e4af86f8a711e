import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedonic_lab.games import (
    Deviation,
    HedonicGame,
    InvalidAgentError,
    NEW_SINGLETON,
    PartialPartition,
    Partition,
    PartitionError,
    coalition_utility,
    enumerate_deviations,
    favor_in,
    favor_out,
)
from hedonic_lab.stability import Concept, check


def game_from(entries, n):
    arr = np.zeros((n, n))
    for (a, b), v in entries.items():
        arr[a, b] = v
    return HedonicGame(arr)


RUN_AND_CHASE = HedonicGame([[0.0, -1.0], [1.0, 0.0]])


class TestHedonicGame:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            HedonicGame([[0.5, 0.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HedonicGame([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]])

    def test_rejects_missing_entries(self):
        with pytest.raises(ValueError, match="populated"):
            HedonicGame([[0.0, np.nan], [1.0, 0.0]])

    @pytest.mark.parametrize("n", [[2], None, {"n": 2}, 2.9, 2.0, True, "2"])
    def test_from_dict_rejects_a_non_integer_n(self, n):
        # int(2.9) once loaded a 2-agent game.
        with pytest.raises(ValueError, match="n must be an integer"):
            HedonicGame.from_dict({"n": n, "utilities": [[0.0, 1.0], [1.0, 0.0]]})

    def test_from_dict_takes_a_numpy_integer_n(self):
        game = HedonicGame.from_dict({"n": np.int64(2), "utilities": [[0.0, 1.0], [1.0, 0.0]]})
        assert game == HedonicGame([[0.0, 1.0], [1.0, 0.0]])

    def test_utilities_read_only(self):
        g = RUN_AND_CHASE
        with pytest.raises(ValueError):
            g.utilities[0, 1] = 3.0

    @pytest.mark.parametrize("how", ["pickle", "deepcopy", "copy"])
    @pytest.mark.parametrize("checked", [False, True])
    def test_copies_stay_frozen_and_check_alike(self, how, checked):
        # A pickled or deep-copied table once came back writeable, and a game
        # holding its memoryviews would not pickle at all.
        g = HedonicGame([[0.0, -1.0, 2.0], [1.0, 0.0, -3.0], [0.5, 0.5, 0.0]])
        p = Partition(3, [[0, 1], [2]])
        if checked:
            check(g, p, Concept.NASH)
        h = {"pickle": lambda: pickle.loads(pickle.dumps(g)),
             "deepcopy": lambda: copy.deepcopy(g), "copy": lambda: copy.copy(g)}[how]()
        assert h == g and type(h) is HedonicGame
        with pytest.raises(ValueError):
            h.utilities[0, 1] = 5.0
        assert (h.utilities is g.utilities) == (how == "copy")
        for concept in Concept:
            assert check(h, p, concept) == check(g, p, concept)
        assert g.utilities[0, 1] == -1.0

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "game.json"
        RUN_AND_CHASE.save(path)
        loaded = HedonicGame.load(path)
        assert loaded == RUN_AND_CHASE
        raw = json.loads(path.read_text())
        assert raw["n"] == 2 and raw["utilities"][1][0] == 1.0


class TestCoalitionUtility:
    def test_two_term_sum(self):
        g = game_from({(0, 1): 0.5, (0, 2): -0.25}, 3)
        assert coalition_utility(g, 0, {0, 1, 2}) == pytest.approx(0.25)

    def test_own_singleton_is_empty_sum(self):
        assert coalition_utility(RUN_AND_CHASE, 0, {0}) == 0.0

    def test_membership_not_required(self):
        g = game_from({(0, 1): 0.7}, 2)
        assert coalition_utility(g, 0, {1}) == pytest.approx(0.7)

    def test_invalid_agent_in_coalition(self):
        with pytest.raises(InvalidAgentError):
            coalition_utility(RUN_AND_CHASE, 0, {0, 5})


class TestFavorSets:
    def test_run_and_chase_favor_in(self):
        # B holds positive utility for A, so B favors A in.
        assert favor_in(RUN_AND_CHASE, {1}, 0) == {1}

    def test_self_excluded(self):
        assert favor_in(RUN_AND_CHASE, {0}, 0) == set()

    def test_indifference_blocks_nothing(self):
        g = game_from({}, 3)
        assert favor_in(g, {1, 2}, 0) == set()
        assert favor_out(g, {1, 2}, 0) == set()

    def test_run_and_chase_favor_out(self):
        assert favor_out(RUN_AND_CHASE, {1}, 0) == set()
        g = game_from({(1, 0): -0.3}, 2)
        assert favor_out(g, {1}, 0) == {1}

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_trichotomy_partitions_coalition(self, n, data):
        vals = data.draw(st.lists(
            st.floats(-1, 1, allow_nan=False), min_size=n * n, max_size=n * n))
        arr = np.array(vals).reshape(n, n)
        np.fill_diagonal(arr, 0.0)
        g = HedonicGame(arr)
        agent = data.draw(st.integers(0, n - 1))
        coalition = set(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        fin = favor_in(g, coalition, agent)
        fout = favor_out(g, coalition, agent)
        assert fin.isdisjoint(fout)
        rest = coalition - {agent}
        assert fin <= rest and fout <= rest
        indifferent = {b for b in rest if g.u(b, agent) == 0}
        assert fin | fout | indifferent == rest


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_coalition_utility_additive_over_disjoint_sets(n, data):
    vals = data.draw(st.lists(
        st.floats(-10, 10, allow_nan=False), min_size=n * n, max_size=n * n))
    arr = np.array(vals).reshape(n, n)
    np.fill_diagonal(arr, 0.0)
    g = HedonicGame(arr)
    agent = data.draw(st.integers(0, n - 1))
    pool = [b for b in range(n) if b != agent]
    left = set(data.draw(st.sets(st.sampled_from(pool)))) if pool else set()
    right = set(pool) - left
    total = coalition_utility(g, agent, left | right)
    assert total == pytest.approx(
        coalition_utility(g, agent, left) + coalition_utility(g, agent, right))


class TestPartition:
    def test_valid_partition(self):
        p = Partition(4, [[0, 2], [1], [3]])
        assert p.coalition_of(2) == (0, 2)
        assert p.index_of(3) == 2
        assert p.sizes() == (2, 1, 1)

    def test_rejects_overlap(self):
        with pytest.raises(PartitionError, match="two coalitions"):
            Partition(3, [[0, 1], [1, 2]])

    def test_rejects_missing_agent(self):
        with pytest.raises(PartitionError, match="not covered"):
            Partition(3, [[0, 1]])

    def test_rejects_empty_coalition(self):
        with pytest.raises(PartitionError, match="nonempty"):
            Partition(2, [[0, 1], []])

    def test_rejects_out_of_range(self):
        with pytest.raises(PartitionError):
            Partition(2, [[0, 1, 2]])

    def test_partial_partition_allows_uncovered(self):
        pp = PartialPartition(5, [[0, 3]])
        assert pp.carrier == {0, 3}

    def test_from_labels_first_occurrence_order(self):
        p = Partition.from_labels([7, 1, 7, 1])
        assert p.coalitions == ((0, 2), (1, 3))

    @pytest.mark.parametrize("labels", [
        [0, 1.5, 1.2, True], [0, 1.0], [True, False], [0, "1"], [0, None],
        np.array([0.0, 1.0]), np.array([True, False])])
    def test_from_labels_rejects_non_integer_labels(self, labels):
        # int(lab) once truncated 1.5 and 1.2 to the same block and took True as 1.
        with pytest.raises(PartitionError, match="labels must be integers"):
            Partition.from_labels(labels)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8])
    def test_from_labels_takes_numpy_integer_labels(self, dtype):
        p = Partition.from_labels(np.array([2, 0, 2, 5], dtype=dtype))
        assert p == Partition.from_labels([2, 0, 2, 5])
        assert p.assignment == (0, 1, 0, 2)
        assert {type(i) for i in p.assignment} == {int}

    def test_json_round_trip(self, tmp_path):
        p = Partition(4, [[0, 2], [1], [3]])
        path = tmp_path / "p.json"
        p.save(path)
        assert Partition.load(path, n=4) == p

    def test_numpy_ids_save_and_load(self, tmp_path):
        p = Partition(4, [np.array([2, 0]), np.array([1, 3], dtype=np.int32)])
        assert p.coalitions == ((0, 2), (1, 3))
        assert {type(a) for block in p.coalitions for a in block} == {int}
        path = tmp_path / "p.json"
        p.save(path)
        assert Partition.load(path, n=4) == p

    @pytest.mark.parametrize("coalitions", [
        [[0.0, 1.0], [2]], "012", [[True, False], [2]], [[np.True_], [0, 1]], [5], [[None]],
        [["0"], [1, 2]]])
    def test_non_integer_ids_raise_partition_error(self, coalitions):
        with pytest.raises(PartitionError, match="integer agent ids"):
            Partition.from_dict({"coalitions": coalitions})
        if isinstance(coalitions, list):
            with pytest.raises(PartitionError, match="integer agent ids"):
                PartialPartition(3, coalitions)

    @pytest.mark.parametrize("data", [[[0, 1], [2]], "p", 3, None])
    def test_from_dict_rejects_a_non_object(self, data):
        with pytest.raises(ValueError, match="JSON object"):
            Partition.from_dict(data)
        with pytest.raises(ValueError, match="JSON object"):
            HedonicGame.from_dict(data)

    def test_partial_partition_numpy_ids_round_trip_through_json(self):
        pp = PartialPartition(6, [np.array([4, 1]), (np.int64(3),)])
        assert pp.coalitions == ((1, 4), (3,))
        assert {type(a) for block in pp.coalitions for a in block} == {int}
        assert PartialPartition(6, json.loads(json.dumps(pp.coalitions))) == pp


class TestEnumerateDeviations:
    def test_two_singletons(self):
        devs = enumerate_deviations(RUN_AND_CHASE, Partition.singletons(2))
        assert devs == [Deviation(0, 1), Deviation(1, 0)]

    def test_grand_coalition(self):
        devs = enumerate_deviations(RUN_AND_CHASE, Partition.grand(2))
        assert devs == [Deviation(0, NEW_SINGLETON), Deviation(1, NEW_SINGLETON)]

    def test_three_agents_mixed(self):
        # {{0,1},{2}}: agents 0 and 1 may join {2} or split off; agent 2 may
        # only join {0,1} (already a singleton).
        g = game_from({}, 3)
        devs = enumerate_deviations(g, Partition(3, [[0, 1], [2]]))
        assert len(devs) == 5
        assert devs == [
            Deviation(0, 1), Deviation(0, NEW_SINGLETON),
            Deviation(1, 1), Deviation(1, NEW_SINGLETON),
            Deviation(2, 0),
        ]

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=50, deadline=None)
    def test_count_formula(self, n, data):
        labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        p = Partition.from_labels(labels)
        g = game_from({}, n)
        devs = enumerate_deviations(g, p)
        expected = sum(len(p) - 1 + (1 if len(p.coalition_of(a)) > 1 else 0)
                       for a in range(n))
        assert len(devs) == expected
