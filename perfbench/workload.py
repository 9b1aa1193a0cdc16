"""One benchmark run: set-up, whole rounds of one workload, checks, and the
result line on stdout. `run.py` starts it in a fresh interpreter and passes
the moment it did so, so that set-up time covers interpreter start.

Campaign seeds are fixed per workload (CAMPAIGN_SEED). A campaign's work and
its time to the optimum depend on its seed by far more than any bound the
benchmark could hold (public_burn seeds 1-5 take 16-35 s at suite budgets),
so the benchmark's --seed draws the inputs that vary from run to run: the
order in which proofs are replayed on fresh states and the inputs of the
swap-arithmetic probes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

CAMPAIGN_SEED = 1  # the first suite seed
WORKERS = 2
MATRIX_SCENARIOS = ("public_mint", "fee_transfer", "rounding_vault")
SWAP_PROBES = 2000
CLI_TIME_LIMIT = 150
# candidate criteria that oracle.classify reports; the engine adds positive_profit
STRUCTURAL = ("imbalanced_pair", "unconditional_gain", "unconditional_burn")

perf = time.perf_counter


class Run:
    """What one run measures, counts and finds wrong."""

    def __init__(self, args):
        self.args = args
        self.rng = random.Random(f"{args.workload}:{args.seed}")
        self.scratch = OUT / f"{args.workload}-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.recorder = probes.Recorder(self.scratch, bool(args.trace))
        self.parts: list = []  # records of CLI processes and pool workers
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.setup_s = None
        self.campaign_s: list = []  # at the reference pace
        self.tto_s: list = []  # at the reference pace
        self.tto_iterations: list = []
        self.raw_campaign_s: list = []
        self.raw_tto_s: list = []
        self.peak_rss_mb = 0.0
        self.suite_walls: list = []

    def add_campaign(self, seconds: float, paced: float) -> None:
        self.raw_campaign_s.append(seconds)
        self.campaign_s.append(paced)

    def add_time_to_optimum(self, seconds: float, paced: float, iterations: int) -> None:
        self.raw_tto_s.append(seconds)
        self.tto_s.append(paced)
        self.tto_iterations.append(iterations)

    def repeat_rounds(self, one_round) -> None:
        """Whole rounds until the next one would end past --seconds."""
        started = perf()
        while True:
            t0 = perf()
            one_round()
            self.rounds += 1
            if perf() - started + (perf() - t0) > self.args.seconds:
                return

    def cli(self, record: Path, argv: list) -> tuple:
        """Run `popfuzz <argv>` in a fresh interpreter under the probes;
        returns its exit code, its stdout and its wall-clock seconds."""
        cmd = [sys.executable, str(HERE / "cli_entry.py"), str(record),
               str(self.args.trace), *argv]
        t0 = perf()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CLI_TIME_LIMIT)
        elapsed = perf() - t0
        if record.exists():
            self.parts.append(json.loads(record.read_text()))
        return proc.returncode, proc.stdout, elapsed

    def replay_cli(self, report: Path, scenario: str, owners: list) -> None:
        """`popfuzz replay` over a report; each proof replayed is one
        operation. owners[k] is the engine variant that found proof k."""
        code, stdout, _ = self.cli(self.scratch / f"replay-{scenario}-{self.rounds}.json",
                                ["replay", "--proof", str(report), "--scenario", scenario])
        lines = [ln for ln in stdout.splitlines() if ln.startswith(("ok:", "MISMATCH"))]
        self.attempted += len(owners)
        if code not in (0, 3) or len(lines) != len(owners):
            self.failed += len(owners)
            self.problems.append(f"popfuzz replay {scenario}: exit {code}, "
                                 f"{len(lines)} lines for {len(owners)} proofs")
            return
        for line, variant in zip(lines, owners):
            if line.startswith("MISMATCH"):
                self.failed += 1
                # replay always uses full accounting, so a noacc proof can
                # mismatch without a fault in the proof
                if variant != "noacc":
                    self.problems.append(f"{scenario} {variant} proof: {line}")


def time_to(record: dict, reached):
    """(seconds, seconds at the reference pace, iterations) until a campaign's
    verified best first met `reached(profit)`; None if it never did."""
    hit = next((r for r in record["replays"] if reached(r[1])), None)
    iterations = next((it + 1 for it, profit in record["proofs"] if reached(profit)), None)
    if hit is None or iterations is None:
        return None
    seconds, _, taken = hit
    return seconds, probes.at_pace(seconds, record["pace"][:taken]), iterations


def reached(name: str):
    """Whether a verified profit meets the scenario's acceptance threshold;
    fee_transfer has no numeric optimum, so any positive profit does."""
    if name == "fee_transfer":
        return lambda profit: profit > 0
    opt = checks.optimum(name)
    return lambda profit: checks.meets_threshold(name, profit, opt)


def add_time_to_optimum(run: Run, records: list, name: str) -> None:
    is_reached = reached(name)
    for rec in records:
        hit = time_to(rec, is_reached)
        if hit is None:
            run.problems.append(f"{name} seed {rec['seed']}: threshold never reached")
            hit = (rec["campaign_s"], rec["campaign_s"], rec["iterations"])
        run.add_time_to_optimum(*hit)


def check_repeats(run: Run, results: list, key) -> None:
    """Every round gives the same proofs: campaigns are pure functions of
    (scenario, config)."""
    first = key(results[0])
    for other in results[1:]:
        if key(other) != first:
            run.problems.append("a later round's proofs differ from the first round's")


def shuffled(run: Run, items) -> list:
    items = list(items)
    run.rng.shuffle(items)
    return items


def proof_key(result) -> tuple:
    return tuple((p.iteration, p.profit, p.pricing_token) for p in result.proofs)


# --- workloads -----------------------------------------------------------------


def burn_search(run: Run) -> None:
    """public_burn, full engine, suite budgets, campaigns back to back."""
    from popfuzz import engine, scenarios, suite

    name = "public_burn"
    scenario = scenarios.builtin_scenario(name)
    scenario.build_state()
    scenario.universe()
    config = suite.suite_config(name, CAMPAIGN_SEED)
    results = []

    pace = run.recorder.pace

    def one_round():
        run.attempted += 1
        pace0 = len(pace)
        t0 = perf()
        try:
            result = engine.run_campaign(scenario, config)
            engine.verify_result(scenario, result)
        except engine.ReplayMismatch as exc:
            run.failed += 1
            run.problems.append(str(exc))
            return
        elapsed = perf() - t0
        run.add_campaign(elapsed, probes.at_pace(elapsed, pace[pace0:]))
        results.append(result)

    run.recorder.start_pace()
    with run.recorder.installed():
        run.repeat_rounds(one_round)
    run.recorder.stop_pace()
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = run.recorder.campaigns
    run.setup_s = records[0]["start"] - run.args.spawned_at
    add_time_to_optimum(run, records, name)
    if results:
        best = results[0]
        run.problems += checks.check_best(name, scenario, best.best_proof(), best.best_profit)
        run.problems += checks.check_proofs(scenario, shuffled(run, best.proofs), config.max_len)
        check_repeats(run, results, proof_key)


def loop_buy_cli(run: Run) -> None:
    """zero_cost_buy as a user runs it: `popfuzz run` at its default budgets
    writes a report, `popfuzz replay` replays it."""
    name = "zero_cost_buy"
    reports = []

    def one_round():
        i = run.rounds
        report = run.scratch / f"report-{i}.json"
        record = run.scratch / f"run-{i}.json"
        run.attempted += 1
        spawned = time.monotonic()
        code, _, elapsed = run.cli(record, ["run", "--scenario", name,
                                            "--seed", str(CAMPAIGN_SEED), "--out", str(report)])
        if code != 0:
            run.failed += 1
            run.problems.append(f"popfuzz run {name}: exit {code}")
            return
        part = run.parts[-1]
        if run.setup_s is None:
            run.setup_s = part["campaigns"][0]["start"] - spawned
        run.add_campaign(elapsed, probes.at_pace(elapsed, part["pace"]))
        run.peak_rss_mb = max(run.peak_rss_mb, part["rss_mb"])
        payload = json.loads(report.read_text())
        reports.append(payload)
        run.replay_cli(report, name, ["full"] * len(payload["runs"][0]["proofs"]))

    with run.recorder.installed():
        run.repeat_rounds(one_round)

    from popfuzz import reports as rp
    from popfuzz.scenarios import builtin_scenario

    records = [c for part in run.parts for c in part["campaigns"]]
    add_time_to_optimum(run, records, name)
    if not reports:
        return
    scenario = builtin_scenario(name)
    entry = reports[0]["runs"][0]
    proofs = [rp.proof_from_dict(p) for p in entry["proofs"]]
    best = max(proofs, key=lambda p: p.profit, default=None)
    run.problems += checks.check_best(name, scenario, best, best.profit if best else 0)
    run.problems += checks.check_proofs(scenario, shuffled(run, proofs), entry["config"]["max_len"])
    check_repeats(run, reports, rp.strip_timestamp)


def ablation_matrix(run: Run) -> None:
    """suite.run_suite over three scenarios x all five variants x one seed on
    two workers, then every cell's proofs through `popfuzz replay`."""
    from popfuzz import engine, reports, scenarios, suite

    loaded = {n: scenarios.builtin_scenario(n) for n in MATRIX_SCENARIOS}
    for scenario in loaded.values():
        scenario.build_state()
        scenario.universe()
    suites = []

    def one_round():
        if run.setup_s is None:
            run.setup_s = time.monotonic() - run.args.spawned_at
        n_cells = len(MATRIX_SCENARIOS) * len(suite.VARIANTS)
        run.attempted += n_cells
        started = time.monotonic()
        t0 = perf()
        try:
            report = suite.run_suite(MATRIX_SCENARIOS, (CAMPAIGN_SEED,), suite.VARIANTS,
                                     workers=WORKERS)
        except engine.ReplayMismatch as exc:
            run.failed += n_cells
            run.problems.append(str(exc))
            return
        wall = perf() - t0
        # the workers ran the campaigns, so their pace samples scale the wall
        workers = probes.take_worker_parts(run.scratch)
        run.parts.append(workers)
        samples = [t for r in workers["campaigns"] for t in r["pace"]]
        run.add_campaign(wall, probes.at_pace(wall, samples))
        matrix_time_to_optimum(run, workers["campaigns"], started, samples)
        run.suite_walls.append(wall)
        if not suites:  # pool workers are the only children so far
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        suites.append(report)
        for name in MATRIX_SCENARIOS:
            cells = [c for c in report.cells if c.scenario == name]
            owners = [c.variant for c in cells for _ in c.result.proofs]
            if not owners:
                continue
            path = run.scratch / f"matrix-{name}-{run.rounds}.json"
            path.write_text(reports.serialize_report({
                "scenario": name,
                "runs": [reports.result_to_dict(name, c.result) for c in cells],
            }))
            run.replay_cli(path, name, owners)

    with run.recorder.installed():
        run.repeat_rounds(one_round)

    if not suites:
        return
    report = suites[0]
    for name, scenario in loaded.items():
        cell = report.cell(name, CAMPAIGN_SEED, "full")
        run.problems += checks.check_best(name, scenario, cell.result.best_proof(), cell.profit)
        nogrd = report.cell(name, CAMPAIGN_SEED, "nogrd")
        if nogrd.profit > cell.profit:
            run.problems.append(f"{name}: nogrd profit {nogrd.profit} > full {cell.profit}")
        for c in report.cells:
            if c.scenario == name:
                run.problems += checks.check_proofs(scenario, shuffled(run, c.result.proofs),
                                                    c.result.config.max_len)
    check_repeats(run, suites, lambda r: [(c.scenario, c.variant, proof_key(c.result))
                                          for c in r.cells])


def matrix_time_to_optimum(run: Run, records: list, started: float, samples: list) -> None:
    """Seconds from the start of run_suite until the last of the three
    full-engine cells first met its threshold, and the iterations those cells
    took to meet theirs, summed. The seconds span most of the suite, so the
    suite's pace samples scale them; one cell's window of about 1.5 s is too
    short to hold steady against the other worker's load."""
    full = {r["scenario"]: r for r in records if r["variant"] == "full"}
    last, iterations = 0.0, 0
    for name in MATRIX_SCENARIOS:
        hit = time_to(full[name], reached(name))
        if hit is None:
            run.problems.append(f"{name} full: threshold never reached")
            continue
        last = max(last, full[name]["start"] - started + hit[0])
        iterations += hit[2]
    run.add_time_to_optimum(last, probes.at_pace(last, samples), iterations)


WORKLOADS = {
    "burn_search": burn_search,
    "loop_buy_cli": loop_buy_cli,
    "ablation_matrix": ablation_matrix,
}


# --- metrics ------------------------------------------------------------------


def end_to_end(run: Run) -> dict:
    median = statistics.median
    return {
        "setup_s": (run.setup_s, "s"),
        "campaign_s": (median(run.campaign_s), "s"),
        "time_to_optimum_s": (median(run.tto_s), "s"),
        "iterations_to_optimum": (median(run.tto_iterations), "count"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def per_layer(run: Run, data: dict) -> dict:
    rounds = run.rounds
    agg, counts, records = data["agg"], data["counts"], data["campaigns"]

    def cell(name):
        return agg.get(name, (0, 0.0, 0.0))

    def calls(name):
        return cell(name)[0] / rounds

    def incl(name):
        return cell(name)[1] / rounds

    def self_s(name):
        return cell(name)[2] / rounds

    def count(name):
        return counts.get(name, 0) / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    def total(field):
        return sum(r[field] for r in records) / rounds

    cells = [r["campaign_s"] + r["verify_s"] for r in records] if run.suite_walls else []
    m = {
        "world.execute_sequence.calls": (calls("world.execute_sequence"), "count"),
        "world.execute_sequence.self_s": (self_s("world.execute_sequence"), "s"),
        "world.repeats_run": (count("world.repeats_run"), "count"),
        "world.repeats_short_circuited": (count("world.repeats_short_circuited"), "count"),
        "world.repeats_per_s": (ratio(count("world.repeats_run"),
                                      incl("world.execute_sequence")), "1/s"),
        "world.events": (count("world.events"), "count"),
        "world.rollback.calls": (count("world.rollback.calls"), "count"),
        "world.state_copy.calls": (calls("world.state_copy"), "count"),
        "world.state_copy.s": (incl("world.state_copy"), "s"),
        "runtime.dispatch.calls": (calls("runtime.dispatch"), "count"),
        "runtime.dispatch.self_s": (self_s("runtime.dispatch"), "s"),
        "actions.lower_action.calls": (calls("actions.lower_action"), "count"),
        "actions.lower_action.s": (incl("actions.lower_action"), "s"),
        "actions.mutate.calls": (calls("actions.mutate"), "count"),
        "actions.mutate.s": (incl("actions.mutate"), "s"),
        "oracle.classify.calls": (calls("oracle.classify"), "count"),
        "oracle.classify.s": (incl("oracle.classify"), "s"),
        # classify never reports positive profit; the engine adds it
        "oracle.candidates.positive_profit": (
            sum(r["candidate_counts"].get("positive_profit", 0) for r in records) / rounds,
            "count"),
        **{f"oracle.candidates.{c}": (count(f"oracle.candidates.{c}"), "count")
           for c in STRUCTURAL},
        "oracle.account.calls": (calls("oracle.account"), "count"),
        "oracle.account.s": (incl("oracle.account"), "s"),
        "maximizer.maximize_sequence.calls": (calls("maximizer.maximize_sequence"), "count"),
        "maximizer.maximize_sequence.self_s": (self_s("maximizer.maximize_sequence"), "s"),
        "maximizer.evals": (count("maximizer.evals"), "count"),
        "maximizer.evals_per_s": (ratio(count("maximizer.evals"),
                                        incl("maximizer.maximize_sequence")), "1/s"),
        "maximizer.apply_vector.s": (incl("maximizer.apply_vector"), "s"),
        "maximizer.lift_ratio": (ratio(count("maximizer.lifted"), count("maximizer.runs")),
                                 "ratio"),
        "engine.run_campaign.self_s": (self_s("engine.run_campaign"), "s"),
        "engine.corpus_candidates": (total("corpus_candidates"), "count"),
        "engine.corpus_novel": (total("corpus_novel"), "count"),
        "engine.proofs": (sum(len(r["proofs"]) for r in records) / rounds, "count"),
        "engine.replay_profit.calls": (calls("engine.replay_profit"), "count"),
        "engine.replay_profit.s": (incl("engine.replay_profit"), "s"),
        "scenarios.build_state.calls": (calls("scenarios.build_state"), "count"),
        "scenarios.build_state.s": (incl("scenarios.build_state"), "s"),
        "reports.serialize_report.s": (incl("reports.serialize_report"), "s"),
        "reports.report_bytes": (count("reports.report_bytes"), "bytes"),
        "cli.replay.s": (incl("cli.replay"), "s"),
        "suite.cells": (len(cells) / rounds, "count"),
        "suite.cell_s_max": (max(cells, default=0.0), "s"),
        "suite.worker_busy_ratio": (ratio(sum(cells), WORKERS * sum(run.suite_walls)), "ratio"),
    }
    return m


def trace_checks(run: Run, data: dict) -> None:
    """Counts taken from outside against the program's own counters."""
    for rec in data["campaigns"]:
        expected = rec["iterations"] + rec["sgd_evals"]
        if rec["executions"] != expected:
            run.problems.append(
                f"{rec['scenario']} {rec['variant']}: {rec['executions']} sequence executions "
                f"seen, stats give iterations + sgd_evals = {expected}")
    for criterion in STRUCTURAL:
        seen = data["counts"].get(f"oracle.candidates.{criterion}", 0)
        stated = sum(r["candidate_counts"].get(criterion, 0) for r in data["campaigns"])
        if seen != stated:
            run.problems.append(f"{criterion}: classify returned {seen}, stats count {stated}")


def write_trace(run: Run, data: dict) -> None:
    path = OUT / f"trace-{run.args.workload}.json"
    path.write_text(json.dumps({
        "workload": run.args.workload,
        "seed": run.args.seed,
        "rounds": run.rounds,
        "aggregates": {k: {"calls": c, "inclusive_s": i, "self_s": s}
                       for k, (c, i, s) in sorted(data["agg"].items())},
        "counts": data["counts"],
        "spans": [dict(zip(("id", "parent", "name", "start", "end", "pid"), s))
                  for s in sorted(data["spans"], key=lambda s: (s[5], s[0]))],
    }, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    import popfuzz

    src = ROOT / "src"
    if Path(popfuzz.__file__).resolve().parent != (src / "popfuzz").resolve():
        print(f"error: popfuzz imported from {popfuzz.__file__}, not {src}", file=sys.stderr)
        return 2

    run = Run(args)
    try:
        WORKLOADS[args.workload](run)
        data = run.recorder.snapshot()
        for part in run.parts:
            probes.merge_into(data, part)
        run.problems += checks.check_swap_probes(run.rng, SWAP_PROBES)
        if args.trace:
            trace_checks(run, data)
            write_trace(run, data)
            metrics = per_layer(run, data)
        else:
            metrics = end_to_end(run)
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if run.raw_campaign_s:
        print(f"{args.workload}: {run.rounds} round(s); measured wall-clock: campaign_s "
              f"{statistics.median(run.raw_campaign_s):.3f}, time_to_optimum_s "
              f"{statistics.median(run.raw_tto_s or [0.0]):.3f}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
