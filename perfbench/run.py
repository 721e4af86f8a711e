"""Benchmark of hedonic-lab: one workload per run, outputs checked, one JSON result line.

    python3 perfbench/run.py --workload alg-tuned-n4000 --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations until ``--seconds`` have passed,
checks every output, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The program is
imported from ``src/`` of the checkout this file sits in.  See README.md.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4

# One process; BLAS gets no more threads than this process may run on.
THREADS = str(len(os.sched_getaffinity(0)))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = THREADS


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    return p.parse_args(argv)


def import_program():
    """Import hedonic_lab from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "hedonic_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'hedonic_lab'}")
    sys.path.insert(0, str(src))
    import hedonic_lab
    if Path(hedonic_lab.__file__).resolve().parent != (src / "hedonic_lab").resolve():
        sys.exit(f"perfbench: imported hedonic_lab from {hedonic_lab.__file__}")


def probe_setup(args) -> list[float]:
    """Set-up times of fresh processes doing what this one did before its first operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def op_seconds(results) -> float:
    """Median time of an operation on each input, averaged over the inputs."""
    by_input = {}
    for op in results:
        by_input.setdefault(op.input, []).append(op.seconds)
    return statistics.fmean(statistics.median(times) for times in by_input.values())


def layer_metrics(tr, results) -> dict:
    ms = {
        "sampling.sample_game_ms": "sampling.sample_game",
        "clustering.run_three_stage_ms": "clustering.run_three_stage",
        "clustering.stage1_ms": "clustering.stage1",
        "clustering.stage1_noledger_ms": "clustering.stage1_noledger",
        "clustering.ledger_merge_ms": "clustering.ledger_merge",
        "clustering.stage2_ms": "clustering.stage2",
        "clustering.stage3_ms": "clustering.stage3",
        "stability.concept_profile_ms": "stability.concept_profile",
        "oracle.count_stable_ms": "oracle.count_stable",
        "oracle.exists_stable_ms": "oracle.exists_stable",
        "experiments.nash_existence_by_k_ms": "experiments.nash_existence_by_k",
        "experiments.run_oracle_existence_ms": "experiments.run_oracle_existence",
        "bounds.nash_k_bound_ms": "bounds.nash_k_bound",
    }
    counts = {
        "clustering.merge_attempts": "merge_attempts",
        "clustering.ledger_entries_stage1": "ledger_entries_stage1",
        "clustering.ledger_entries_stage2": "ledger_entries_stage2",
        "clustering.ledger_entries_stage3": "ledger_entries_stage3",
        "clustering.stage3_singletons": "stage3_singletons",
        "stability.check_calls": "check_calls",
        "oracle.partitions_enumerated": "partitions_enumerated",
        "oracle.exists_partitions_scanned": "exists_partitions_scanned",
    }
    out = {name: (tr.median_ms(span), "ms") for name, span in ms.items()}
    out.update({name: (tr.median_count(key), "count") for name, key in counts.items()})
    attempts, calls = tr.total("merge_attempts"), tr.total("check_calls")
    out["clustering.merge_accept_ratio"] = (
        tr.total("merge_accepts") / attempts if attempts else 0.0, "ratio")
    out["stability.check_us"] = (tr.total("check_s") / calls * 1e6 if calls else 0.0, "us")
    out["bench.traced_op_s"] = (op_seconds(results), "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_own = time.perf_counter() - T_START
    if args.setup_probe:
        print(repr(setup_own))
        return 0

    tr = None
    results = []
    with contextlib.ExitStack() as stack:
        if args.trace:
            import tracing
            tr = tracing.Tracer()
            stack.enter_context(tracing.instrument(tr))
        t0 = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - t0 < args.seconds:
            results += wl.round(r, tr)
            r += 1
    try:
        problems = wl.finish(tr)
    except Exception:  # a program fault met while checking fails the run's checks
        problems = [traceback.format_exc()]
    for p in problems:
        print("check:", p, file=sys.stderr)
    failed = 0
    for i, op in enumerate(results):
        if op.error or op.problems:
            failed += 1
            print(f"operation {i} failed:", op.error or "; ".join(op.problems), file=sys.stderr)

    if tr is None:
        metrics = {
            "setup_s": (statistics.median([setup_own] + probe_setup(args)), "s"),
            "op_s": (op_seconds(results), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tr, results)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tr.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps({
        "correct": not problems and not any(op.problems for op in results),
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
