"""Command-line front end: run campaigns, replay proofs, run the corpus suite.

Exit codes:
  0  success (run: at least one proof found; replay: all proofs reproduce)
  1  configuration or input error
  2  clean run, no proof found
  3  replay mismatch (claimed profit does not reproduce)
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .engine import (
    CampaignConfig,
    replay_profit,
    run_campaign,
    verify_result,
)
from .actions import TxSequence
from .reports import (
    TIMESTAMP_FIELD,
    ReportError,
    config_from_dict,
    parse_report,
    proof_from_dict,
    result_to_dict,
    serialize_report,
)
from .scenarios import Scenario, ScenarioError, builtin_names, builtin_scenario, load_scenario
from .suite import SUITE_SEEDS, VARIANTS, run_suite


def _load_scenario_ref(ref: str) -> Scenario:
    try:
        return builtin_scenario(ref)  # also covers the extra demo scenarios
    except ScenarioError:
        pass
    if os.path.exists(ref):
        scenario, _state = load_scenario(ref)
        return scenario
    raise ScenarioError(
        f"{ref!r} is neither a built-in scenario ({', '.join(builtin_names())}) "
        "nor a readable scenario file"
    )


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_report(report: dict, out_path: str | None) -> None:
    text = serialize_report(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- run ---------------------------------------------------------------------


def _campaign_task(args: tuple):
    ref, config = args
    scenario = _load_scenario_ref(ref)
    result = run_campaign(scenario, config)
    verify_result(scenario, result)
    return result


def cmd_run(args) -> int:
    try:
        scenario = _load_scenario_ref(args.scenario)
        config = CampaignConfig(
            seed=args.seed,
            iterations=args.iterations,
            sgd_budget=args.sgd_budget,
            record_schedule=args.emit_schedule,
            variant="full" if args.ablation == "none" else args.ablation,
        )
    except (ScenarioError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    configs = [
        CampaignConfig(**{**config.__dict__, "seed": config.seed + i})
        for i in range(args.repeat)
    ]
    if args.repeat > 1:
        workers = min(args.repeat, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_campaign_task, [(args.scenario, c) for c in configs]))
    else:
        results = [_campaign_task((args.scenario, configs[0]))]

    report = {
        "scenario": scenario.name,
        TIMESTAMP_FIELD: _timestamp(),
        "runs": [
            result_to_dict(scenario.name, r, emit_schedule=args.emit_schedule)
            for r in results
        ],
    }
    _write_report(report, args.out)
    found = any(r.best for r in results)
    return 0 if found else 2


# --- replay ------------------------------------------------------------------


def cmd_replay(args) -> int:
    try:
        with open(args.proof) as fh:
            payload = parse_report(fh.read())
        scenario = _load_scenario_ref(args.scenario)
    except (OSError, ReportError, ScenarioError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    runs = payload.get("runs")
    if runs is None:
        print("error: report contains no runs", file=sys.stderr)
        return 1
    try:
        proofs = [
            (run_entry["scenario"], config_from_dict(run_entry["config"]), proof_from_dict(p))
            for run_entry in runs
            for p in run_entry.get("proofs", [])
        ]
    except (ReportError, KeyError, TypeError, AttributeError) as e:
        print(f"error: malformed proof payload: {e}", file=sys.stderr)
        return 1
    if not proofs:
        print("error: report contains no proofs", file=sys.stderr)
        return 1

    status = 0
    for run_scenario, config, proof in proofs:
        if run_scenario != scenario.name:
            print(
                f"error: proof was recorded for scenario {run_scenario!r}, "
                f"not {scenario.name!r}",
                file=sys.stderr,
            )
            return 1
        seq = TxSequence(list(proof.txs), proof.pricing_token)
        # each proof is replayed under the accounting mode and length cap of
        # the run that found it
        try:
            replayed = replay_profit(
                scenario, seq, full_accounting=config.variant != "noacc", max_len=config.max_len
            )
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        if replayed == proof.profit:
            print(f"ok: profit {proof.profit} reproduced")
        else:
            print(f"MISMATCH: claimed {proof.profit}, replay produced {replayed}")
            status = 3
    return status


# --- corpus suite ------------------------------------------------------------


def cmd_corpus_suite(args) -> int:
    scenarios = tuple(args.scenario) if args.scenario else None
    try:
        report = run_suite(
            scenarios=scenarios or None or tuple(builtin_names()),
            seeds=tuple(range(1, args.seeds + 1)),
            variants=VARIANTS if args.ablations else ("full",),
            workers=args.workers,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    rows = report.matrix()
    if args.json:
        payload = {TIMESTAMP_FIELD: _timestamp(), "seeds": args.seeds, "matrix": rows}
        _write_report(payload, args.out)
        return 0

    variants = [v for v in VARIANTS if v in rows[0]] if rows else []
    header = ["scenario"] + [f"{v} (profit / % of full)" for v in variants]
    widths = [max(len(h), 24) for h in header]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        cells = [row["scenario"].ljust(widths[0])]
        for v, w in zip(variants, widths[1:]):
            cells.append(f"{row[v]} / {row[f'{v}_pct']}%".ljust(w))
        print("  ".join(cells))
    return 0


# --- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popfuzz",
        description="Profit-seeking exploit search over deterministic DeFi scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="fuzz one scenario and emit a report")
    run.add_argument("--scenario", required=True, help="built-in name or scenario file")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--iterations", type=int, default=4000)
    run.add_argument("--sgd-budget", type=int, default=2000)
    run.add_argument("--ablation", choices=("none",) + VARIANTS, default="full",
                     help="engine variant ('none' is 'full')")
    run.add_argument("--out", help="report path (default: stdout)")
    run.add_argument("--emit-schedule", action="store_true",
                     help="include convergence table and SGD step schedules")
    run.add_argument("--repeat", type=int, default=1,
                     help="run k campaigns on consecutive seeds in parallel")
    run.set_defaults(fn=cmd_run)

    replay = sub.add_parser("replay", help="re-execute a report's proofs")
    replay.add_argument("--proof", required=True, help="report file containing proofs")
    replay.add_argument("--scenario", required=True)
    replay.set_defaults(fn=cmd_replay)

    suite = sub.add_parser("corpus-suite", help="run built-ins x seeds x variants")
    suite.add_argument("--scenario", action="append",
                       help="restrict to one built-in (repeatable)")
    suite.add_argument("--seeds", type=int, default=len(SUITE_SEEDS))
    suite.add_argument("--no-ablations", dest="ablations", action="store_false",
                       help="run only the full engine")
    suite.add_argument("--workers", type=int, default=None)
    suite.add_argument("--json", action="store_true")
    suite.add_argument("--out", help="output path (default: stdout)")
    suite.set_defaults(fn=cmd_corpus_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
