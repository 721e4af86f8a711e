"""Command line front end: sample | check | run-alg | oracle | bounds | mc.

Exit codes: 0 success, 2 input error, 3 violation detected in verify modes.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bounds as bounds_mod
from .clustering import AlgoConfig, run_three_stage
from .games import Deviation, HedonicGame, Partition
from .oracle import DEFAULT_ENUMERATION_LIMIT, count_stable, exists_stable
from .sampling import SeedSpec, UtilityDistribution, sample_game
from .stability import Concept, check
from .experiments import (
    Campaign,
    CampaignKind,
    export_results,
    run_campaign,
)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.replace(",", " ").split())


def _build_config(args) -> AlgoConfig:
    kwargs = {}
    if getattr(args, "groups", None) is not None:
        kwargs["num_groups"] = int(args.groups)
    if getattr(args, "tau", None) is not None:
        kwargs["edge_threshold"] = float(args.tau)
    if getattr(args, "compat", None) is not None:
        kwargs["compat_constant"] = float(args.compat)
    if getattr(args, "clique_size", None) is not None:
        s = int(args.clique_size)
        kwargs["clique_size_rule"] = lambda n, s=s: s
    return AlgoConfig(**kwargs)


def _witness_json(witness) -> object:
    if witness is None:
        return None
    if isinstance(witness, Deviation):
        return {"agent": witness.agent,
                "target": "new-singleton" if witness.target is None else witness.target}
    agent, coalition = witness
    return {"agent": agent, "coalition": coalition}


def _cmd_sample(args) -> int:
    dist = UtilityDistribution.parse(args.dist)
    game = sample_game(args.n, dist, SeedSpec(args.seed, args.stream))
    game.save(args.out)
    print(json.dumps({"written": args.out, "n": args.n, "dist": dist.spec_string()}))
    return 0


def _cmd_check(args) -> int:
    game = HedonicGame.load(args.game)
    partition = Partition.load(args.partition, n=game.n)
    verdict = check(game, partition, Concept.parse(args.concept))
    print(json.dumps({"concept": Concept.parse(args.concept).value,
                      "stable": verdict.stable,
                      "witness": _witness_json(verdict.witness)}))
    return 0


def _cmd_run_alg(args) -> int:
    game = HedonicGame.load(args.game)
    config = _build_config(args)
    partition, report, _ledger = run_three_stage(game, config)
    partition.save(args.out_partition)
    with open(args.out_report, "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True)
    print(json.dumps({"partition": args.out_partition, "report": args.out_report,
                      "stage1_success": report.stage1_success,
                      "stage2_success": report.stage2_success,
                      "stage3_success": report.stage3_success}))
    return 0


def _cmd_oracle(args) -> int:
    game = HedonicGame.load(args.game)
    concept = Concept.parse(args.concept)
    if args.count:
        total = count_stable(game, concept, limit=args.limit)
        print(json.dumps({"concept": concept.value, "count": str(total)}))
        return 0
    witness = exists_stable(game, concept, limit=args.limit)
    print(json.dumps({"concept": concept.value,
                      "exists": witness is not None,
                      "partition": None if witness is None
                      else [list(c) for c in witness.coalitions]}))
    return 0


def _coerce(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        return float(text)


def _cmd_bounds(args) -> int:
    if args.verify_lemmas:
        worst = 0
        reports = []
        for m in _parse_int_list(args.m):
            for k in _parse_int_list(args.k):
                report = bounds_mod.check_dominance_lemmas(
                    m, k, args.trials, SeedSpec(args.seed))
                reports.append({
                    "m": m, "k": k,
                    "violations": [e.name for e in report.violations],
                    "min_z": min((e.z_score for e in report.estimates), default=0.0),
                })
                worst += len(report.violations)
        print(json.dumps({"trials": args.trials, "reports": reports}, sort_keys=True))
        return 3 if worst else 0
    if not args.formula:
        raise ValueError("need --formula NAME or --verify-lemmas")
    supplied = dict(kv.split("=", 1) for kv in args.params)
    kwargs = {p: _coerce(v) for p, v in supplied.items()}
    try:
        bound = bounds_mod.evaluate_formula(args.formula, **kwargs)
    except TypeError as exc:  # a count given as a float or a bool
        raise ValueError(str(exc)) from None
    print(json.dumps({"formula": args.formula, "params": kwargs,
                      "value": bound.value, "description": bound.description}))
    return 0


def _read_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw!r}; expected key=value")
            key, val = line.split("=", 1)
            out[key.strip().lower()] = val.strip()
    return out


def _config_value(action: argparse.Action, key: str, text: str, path) -> object:
    """A config-file value converted and checked as its command-line flag would be."""
    try:
        value = action.type(text) if action.type else text
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad value {text!r} for key {key!r} in config file {path}") from exc
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"bad value {text!r} for key {key!r} in config file {path}; "
                         f"choose from {', '.join(map(str, action.choices))}")
    return value


def _cmd_mc(args, actions: dict[str, argparse.Action]) -> int:
    # Explicit flags win; file values fill the gaps; then hard defaults.  Every
    # file value is checked before anything runs.
    if args.config:
        settable = set(vars(args)) - {"fn", "command", "config"}
        for key, val in _read_config_file(args.config).items():
            attr = key.replace("-", "_")
            if attr not in settable:
                raise ValueError(f"unknown key {key!r} in config file {args.config}")
            value = _config_value(actions[attr], key, val, args.config)
            if getattr(args, attr) is None:
                setattr(args, attr, value)
    if args.n is None:
        raise ValueError("mc needs --n (or n= in the config file)")
    args.kind = args.kind or "mc-alg"
    args.trials = args.trials if args.trials is not None else 100
    args.dist = args.dist or "uniform:-1:1"
    args.seed = args.seed if args.seed is not None else 0
    args.workers = args.workers if args.workers is not None else 1
    args.format = args.format or "csv"
    kind = CampaignKind.parse(args.kind)
    concepts = tuple(Concept.parse(c) for c in str(args.concepts).replace(",", " ").split()) \
        if args.concepts else ()
    campaign = Campaign(
        kind=kind,
        n_values=_parse_int_list(str(args.n)),
        trials=int(args.trials),
        dist=UtilityDistribution.parse(args.dist),
        master_seed=SeedSpec(int(args.seed)),
        config=_build_config(args),
        concepts=concepts,
        shape_ks=_parse_int_list(str(args.shape_k)) if args.shape_k else (),
        m_values=_parse_int_list(str(args.m)) if args.m else (),
        k_values=_parse_int_list(str(args.k)) if args.k else (),
        workers=int(args.workers),
    )
    result = run_campaign(campaign)
    if args.out:
        export_results(result.rows, args.out, args.format)
    else:
        for row in result.rows:
            print(f"{row.n} {row.property} {row.estimate:.6f} "
                  f"[{row.wilson_lo:.6f}, {row.wilson_hi:.6f}]"
                  + (f" bound={row.bound_value:.6g}" if row.bound_value is not None else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hedonic-lab",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a random game to a file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dist", default="uniform:-1:1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("check", help="check one stability concept")
    p.add_argument("--game", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--concept", required=True)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("run-alg", help="run the three-stage clustering algorithm")
    p.add_argument("--game", required=True)
    p.add_argument("--groups", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--compat", type=float)
    p.add_argument("--clique-size", type=int)
    p.add_argument("--out-partition", required=True)
    p.add_argument("--out-report", required=True)
    p.set_defaults(fn=_cmd_run_alg)

    p = sub.add_parser("oracle", help="exhaustive stable-partition search")
    p.add_argument("--game", required=True)
    p.add_argument("--concept", required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--limit", type=int, default=DEFAULT_ENUMERATION_LIMIT)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("bounds", help="evaluate closed forms / verify lemmas")
    p.add_argument("--formula", choices=sorted(bounds_mod.FORMULAS))
    p.add_argument("--params", nargs="*", default=[])
    p.add_argument("--verify-lemmas", action="store_true")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", default="1,3,10")
    p.add_argument("--k", default="1,2,5")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("mc", help="run a Monte Carlo campaign")
    p.add_argument("--kind")
    p.add_argument("--n")
    p.add_argument("--trials")
    p.add_argument("--dist")
    p.add_argument("--seed")
    p.add_argument("--concepts")
    p.add_argument("--groups", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--compat", type=float)
    p.add_argument("--clique-size", type=int)
    p.add_argument("--shape-k")
    p.add_argument("--m")
    p.add_argument("--k")
    p.add_argument("--workers")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"])
    p.set_defaults(fn=functools.partial(_cmd_mc, actions={a.dest: a for a in p._actions}))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
