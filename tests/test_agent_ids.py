"""One agent-id rule across the API.

Every public entry point that takes agent ids raises ``InvalidAgentError``
for a bool, a non-integer or an id outside 0..n-1, and gives the same
output for every integer form of the same ids.
"""
import numpy as np
import pytest

from hedonic_lab.clustering import (AlgoConfig, RevelationLedger, complete_partition,
                                    greedy_cliques, greedy_cluster, is_compatible)
from hedonic_lab.games import (InvalidAgentError, PartialPartition, coalition_utility, favor_in,
                               favor_out)
from hedonic_lab.sampling import SeedSpec, UtilityDistribution, sample_game

N = 6
GAME = sample_game(N, UtilityDistribution(-1, 1), SeedSpec(21))
CFG = AlgoConfig(num_groups=2, compat_constant=0.25, clique_size_rule=lambda n: 2)


def ledger_with_link():
    ledger = RevelationLedger(N)
    ledger.record_block(2, [5], [1])
    return ledger


def entries_after(stage, sources, targets):
    ledger = RevelationLedger(N)
    ledger.record_block(stage, sources, targets)
    return list(ledger.entries())


# Entry points that take one id, called with it.
ONE_ID = {
    "check_agent": lambda a: GAME.check_agent(a),
    "u source": lambda a: GAME.u(a, 0),
    "u target": lambda a: GAME.u(0, a),
    "coalition_utility agent": lambda a: coalition_utility(GAME, a, [0, 1]),
    "favor_in agent": lambda a: favor_in(GAME, [0, 1], a),
    "favor_out agent": lambda a: favor_out(GAME, [0, 1], a),
    "stage2_between agent": lambda a: ledger_with_link().stage2_between(a, [0, 1]),
}
# Entry points that take several ids, called with ids drawn from agents 0 and 1.
MANY_IDS = {
    "coalition_utility coalition": lambda ids: coalition_utility(GAME, 5, ids),
    "favor_in coalition": lambda ids: favor_in(GAME, ids, 5),
    "favor_out coalition": lambda ids: favor_out(GAME, ids, 5),
    "greedy_cliques carrier": lambda ids: greedy_cliques(GAME, ids, 1, 0.5),
    "is_compatible candidate": lambda ids: is_compatible(GAME, ids, [4, 5], 2, CFG),
    "is_compatible merged": lambda ids: is_compatible(GAME, [4, 5], ids, 2, CFG),
    "complete_partition remainder": lambda ids: complete_partition(
        GAME, PartialPartition(N, [(2, 3), (4, 5)]), ids),
    "record_block sources": lambda ids: entries_after(2, ids, [5]),
    "record_block targets": lambda ids: entries_after(3, [5], ids),
    "stage2_between members": lambda ids: ledger_with_link().stage2_between(5, ids),
}
# Entry points that take ids inside partial partitions, which admit only
# integers >= 0, so only an id too large for the game reaches them.
IN_PARTITIONS = {
    "greedy_cluster partitions": lambda: greedy_cluster(
        GAME, [PartialPartition(N + 1, [(0, 1)]), PartialPartition(N + 1, [(2, N)])], CFG),
    "complete_partition merged": lambda: complete_partition(
        GAME, PartialPartition(N + 1, [(0, N)]), range(1, N - 1)),
}

SCALAR_BAD = {"float": 1.5, "bool": True, "negative": -1, "n": N}
ARRAY_BAD = {"float array": np.array([0.0, 1.0]), "bool array": np.array([True])}


@pytest.mark.parametrize("bad", SCALAR_BAD.values(), ids=SCALAR_BAD.keys())
@pytest.mark.parametrize("call", ONE_ID.values(), ids=ONE_ID.keys())
def test_one_bad_id_raises(call, bad):
    call(0)
    with pytest.raises(InvalidAgentError):
        call(bad)


@pytest.mark.parametrize("bad", [[0, b] for b in SCALAR_BAD.values()] + list(ARRAY_BAD.values()),
                         ids=[*SCALAR_BAD, *ARRAY_BAD])
@pytest.mark.parametrize("call", MANY_IDS.values(), ids=MANY_IDS.keys())
def test_bad_ids_raise(call, bad):
    with pytest.raises(InvalidAgentError):
        call(bad)


@pytest.mark.parametrize("call", IN_PARTITIONS.values(), ids=IN_PARTITIONS.keys())
def test_partition_ids_outside_the_game_raise(call):
    with pytest.raises(InvalidAgentError):
        call()


FORMS = {
    "tuple": lambda: (0, 1),
    "set": lambda: {0, 1},
    "range": lambda: range(2),
    "generator": lambda: (a for a in (1, 0)),
    "numpy ints": lambda: [np.int64(0), np.int32(1)],
    "int32 array": lambda: np.array([0, 1], dtype=np.int32),
    "int64 array": lambda: np.array([1, 0], dtype=np.int64),
    "uint8 array": lambda: np.array([0, 1], dtype=np.uint8),
}


@pytest.mark.parametrize("form", FORMS.values(), ids=FORMS.keys())
@pytest.mark.parametrize("call", MANY_IDS.values(), ids=MANY_IDS.keys())
def test_integer_forms_give_the_list_output(call, form):
    assert call(form()) == call([0, 1])


@pytest.mark.parametrize("a", [np.int64(3), np.uint8(3), np.int32(3)])
def test_numpy_integer_ids_are_one_id(a):
    for call in ONE_ID.values():
        assert call(a) == call(3)
