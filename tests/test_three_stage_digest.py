"""Pinned digests of ``run_three_stage_detailed`` over a sweep of small configs.

Every field of the detailed result and the ledger's entries are hashed per
config and compared with ``data/three_stage_sweep.txt``, which an earlier
version of the program wrote.  A clustering change that moves any output,
down to one ledger entry or one attempt's pair units, shows here.  After a
deliberate change of outputs, rewrite the file with

    PYTHONPATH=src python tests/test_three_stage_digest.py > tests/data/three_stage_sweep.txt

Only public functions are used, so any version of the program can write it.
"""
import hashlib
import json
import sys
from pathlib import Path

from hedonic_lab.clustering import AlgoConfig, run_three_stage_detailed
from hedonic_lab.sampling import SeedSpec, UtilityDistribution, derive_trial_seed, sample_game

DATA = Path(__file__).parent / "data" / "three_stage_sweep.txt"
D = UtilityDistribution(-1, 1)
# 3 x 5 x 4 x 3 x 3 = 540 configs; g = 8 and 20 with s up to 4 make second
# admission tests of 8 or more terms, where a pairwise order would differ
# from the sequential one.
SWEEP = [(n, g, s, tau, compat)
         for n in (30, 90, 250) for g in (2, 3, 4, 8, 20) for s in (1, 2, 3, 4)
         for tau in (0.1, 0.5, 0.9) for compat in (0.05, 0.25, 2.0)]


def result_digest(det) -> str:
    fields = (det.partition.coalitions, json.dumps(det.report.to_dict(), sort_keys=True),
              det.groups, tuple(pp.coalitions for pp in det.clique_partitions),
              det.group_remainders, det.merged.coalitions, det.merged_composition,
              det.stage2_remainder, det.attempts, det.placements)
    h = hashlib.sha256(repr(fields).encode())
    h.update(repr([(st, a, b, c.value) for st, a, b, c in det.ledger.entries()]).encode())
    return h.hexdigest()[:16]


def sweep():
    """Yield (line, detailed result) per config, the game of config i from trial seed i."""
    for i, (n, g, s, tau, compat) in enumerate(SWEEP):
        cfg = AlgoConfig(num_groups=g, edge_threshold=tau, compat_constant=compat,
                         clique_size_rule=lambda m, s=s: s)
        det = run_three_stage_detailed(sample_game(n, D, derive_trial_seed(SeedSpec(77), i)), cfg)
        yield f"{n} {g} {s} {tau} {compat} {result_digest(det)}", det


def test_sweep_matches_pinned_digests():
    expected = DATA.read_text().splitlines()
    assert len(expected) == len(SWEEP)
    long_sums = out_of_coalitions = nothing_merged = nothing_left = 0
    for want, (got, det) in zip(expected, sweep()):
        assert got == want
        s = det.report.clique_size
        merged = det.report.merged_count
        # An attempt whose first test passed summed (k-1)*s terms per candidate agent.
        long_sums += sum(a.pair_units > (a.position - 1) * s >= 8 for a in det.attempts)
        # Stage 3 placed one agent per coalition and left the rest as singletons.
        out_of_coalitions += 0 < merged < len(det.placements)
        # Stage 3 had no coalition to place into, or no agent to place.
        nothing_merged += merged == 0
        nothing_left += merged > 0 and not det.placements
    assert long_sums > 0
    assert out_of_coalitions > 0
    assert nothing_merged > 0
    assert nothing_left > 0


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line, _det in sweep()))
