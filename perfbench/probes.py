"""Probes and tracing around calls into popfuzz's public functions.

Every wrapper calls the original function with the same arguments and returns
its result unchanged; nothing inside the program is edited. Wrappers replace
every binding of a function in the loaded ``popfuzz`` modules (``from .x import
f`` copies a binding), so a call made through any module is seen.

Two levels:

* probes, on in every run: campaign start and end, and each return from
  ``engine.replay_profit`` (once per new best) with the time and the verified
  profit. Time-to-optimum, set-up time and per-cell seconds come from these.
* tracing, on with ``--trace 1``: time and call counts at each layer boundary,
  and counts read from the values that cross it. Hot calls (dispatch,
  lowering, execution) run millions of times per campaign, so they are folded
  into per-name aggregates as they return: calls, inclusive seconds (outermost
  call of a name only, so recursion is not counted twice) and self seconds
  (inclusive minus the time of wrapped calls nested inside). Coarse calls
  (campaigns, optimizer runs, replays, CLI commands, the suite) are also kept
  whole as spans with their parent span, and written out when the run ends.
  The wrappers' own bookkeeping is charged to no layer's self time.

The host's speed swings by up to 2x within seconds (other tenants share the
cores), far more than any regression bound. So each process that runs
campaigns also samples its pace: every PACE_INTERVAL of wall-clock a SIGALRM
handler times a fixed piece of pure-Python work. A time is reported at the
reference pace: measured seconds x PACE_REFERENCE_S / (mean of the middle
half of the probe times taken over the same interval). The middle half leaves
out probes slowed by the probe itself, such as a garbage collection or the
copy-on-write faults of a freshly forked worker. Program changes do not touch the probe, so a faster
campaign still reads faster; a slower host does not.

Worker processes of ``suite.run_suite`` are forked with the wrappers in place.
A forked worker drops what it inherited at its first campaign and appends what
it records to ``<out_dir>/worker-<pid>.jsonl`` after each campaign's
``verify_result``; ``take_worker_parts`` merges those files.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

perf = time.perf_counter
stamp = time.monotonic  # system-wide clock: stamps compare across processes

# (layer metric prefix, module, function) wrapped with timing when tracing.
TIMED = (
    ("runtime.dispatch", "popfuzz.runtime", "dispatch"),
    ("actions.lower_action", "popfuzz.actions", "lower_action"),
    ("actions.mutate", "popfuzz.actions", "mutate"),
    ("oracle.account", "popfuzz.oracle", "account"),
    ("maximizer.apply_vector", "popfuzz.maximizer", "apply_vector"),
)
PACE_INTERVAL = 0.01
PACE_REFERENCE_S = 60e-6  # middle-half mean probe time on a quiet 2-core host


def _pace_work() -> dict:
    # int keys only: string hashes change with each process's hash seed
    d: dict = {}
    for i in range(300):
        key = (i % 97, i % 7)
        d[key] = d.get(key, 0) + i * 3 // 7
    return d


def at_pace(seconds: float, samples: list) -> float:
    """Seconds at the reference pace, from the probe times taken over them
    (unscaled if there are fewer than four)."""
    if len(samples) < 4:
        return seconds
    ordered = sorted(samples)
    quarter = len(ordered) // 4
    return seconds * PACE_REFERENCE_S / statistics.fmean(ordered[quarter:len(ordered) - quarter])


class Recorder:
    """Everything the probes and the tracer collect in one process."""

    def __init__(self, out_dir: Path, trace: bool):
        self.out_dir = Path(out_dir)
        self.trace = trace
        self.owner = os.getpid()
        self.worker = False
        self.campaigns: list = []  # one dict per finished campaign
        self.agg: dict = {}  # name -> [calls, inclusive s, self s]
        self.counts: dict = {}  # name -> number
        self.spans: list = []  # [id, parent id, name, start, end, pid]
        self._frames: list = []  # [child seconds] per open timed call
        self._span_stack: list = []
        self._span_ids = itertools.count(1)
        self._campaign = None  # record of the campaign now running
        self._replay_depth = 0
        self._undo: list = []
        self.pace: list = []  # seconds each pace probe took

    # --- pace sampling ------------------------------------------------------

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf()
        _pace_work()
        self.pace.append(perf() - t0)

    def start_pace(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PACE_INTERVAL, PACE_INTERVAL)

    def stop_pace(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    # --- collected state ----------------------------------------------------

    def _clear(self) -> None:
        """Drop what was recorded; wrappers keep their aggregate cells."""
        self.campaigns.clear()
        for cell in self.agg.values():
            cell[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.spans.clear()
        self._span_stack.clear()
        self._frames.clear()

    def _adopt_if_forked(self) -> None:
        if os.getpid() != self.owner:
            self.owner = os.getpid()
            self.worker = True
            self._clear()
            self.pace.clear()
            self.start_pace()  # interval timers do not survive fork

    def count(self, name: str, n=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def snapshot(self) -> dict:
        return {
            "campaigns": list(self.campaigns),
            "agg": {k: list(v) for k, v in self.agg.items()},
            "counts": dict(self.counts),
            "spans": list(self.spans),
        }

    def flush_worker(self) -> None:
        path = self.out_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            fh.write(json.dumps(self.snapshot()) + "\n")
        self._clear()

    # --- wrappers -------------------------------------------------------------

    def timed(self, name: str, fn, after=None, span: bool = False):
        """Wrap fn with an aggregate cell; `after(args, result)` reads values
        that cross the boundary; `span` keeps each call as a whole span."""
        cell = self.agg.setdefault(name, [0, 0.0, 0.0])
        depth = [0]
        frames = self._frames

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            frame = [0.0]
            frames.append(frame)
            depth[0] += 1
            if span:
                sid = next(self._span_ids)
                parent = self._span_stack[-1] if self._span_stack else 0
                self._span_stack.append(sid)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = perf()
                depth[0] -= 1
                frames.pop()
                dur = t1 - t0
                cell[0] += 1
                cell[2] += dur - frame[0]
                if depth[0] == 0:
                    cell[1] += dur
                if span:
                    self._span_stack.pop()
                    end = stamp()
                    self.spans.append([sid, parent, name, end - dur, end, os.getpid()])
                if returned and after is not None:
                    after(args, result)
                if frames:
                    frames[-1][0] += perf() - t0

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # --- probes (always on) -------------------------------------------------

    def _run_campaign_probe(self, fn):
        @functools.wraps(fn)
        def run_campaign(scenario, config):
            self._adopt_if_forked()
            record = {
                "scenario": scenario.name,
                "variant": config.variant,
                "seed": config.seed,
                "start": stamp(),
                "pace_start": len(self.pace),
                "replays": [],  # [seconds since start, verified profit, probes since start]
                "executions": 0,
            }
            self._campaign = record
            t0 = perf()
            try:
                result = fn(scenario, config)
            finally:
                self._campaign = None
            stats = result.stats
            record.update(
                campaign_s=perf() - t0,
                pace=self.pace[record["pace_start"]:],
                verify_s=0.0,
                iterations=stats.iterations,
                sgd_evals=stats.sgd_evals,
                corpus_candidates=stats.corpus_candidates,
                corpus_novel=stats.corpus_novel,
                candidate_counts=dict(stats.candidate_counts),
                proofs=[[p.iteration, p.profit] for p in result.proofs],
                best=result.best_profit,
            )
            self.campaigns.append(record)
            return result

        return run_campaign

    def _replay_probe(self, fn):
        @functools.wraps(fn)
        def replay_profit(*args, **kwargs):
            self._replay_depth += 1
            try:
                value = fn(*args, **kwargs)
            finally:
                self._replay_depth -= 1
            record = self._campaign
            if record is not None:
                record["replays"].append([stamp() - record["start"], value,
                                          len(self.pace) - record["pace_start"]])
            return value

        return replay_profit

    def _verify_probe(self, fn):
        @functools.wraps(fn)
        def verify_result(scenario, result):
            t0 = perf()
            fn(scenario, result)
            if self.campaigns and self.campaigns[-1]["scenario"] == scenario.name:
                self.campaigns[-1]["verify_s"] = perf() - t0
            if self.worker:
                self.flush_worker()

        return verify_result

    # --- tracing hooks reading values that cross a boundary -------------------

    def _after_execute(self, args, receipt) -> None:
        outcomes = receipt.outcomes
        # All repeats of one run share one outcome instance, and the repeats
        # after a reverted one are short-circuited, not run.
        reverted_runs = reverted = 0
        for _, group in itertools.groupby(outcomes, key=id):
            first = next(group)
            if not first.ok:
                reverted_runs += 1
                reverted += 1 + sum(1 for _ in group)
        run = len(outcomes) - reverted + reverted_runs
        self.count("world.repeats_run", run)
        self.count("world.repeats_short_circuited", reverted - reverted_runs)
        self.count("world.events", len(receipt.events))
        if self._campaign is not None and self._replay_depth == 0:
            self._campaign["executions"] += 1

    def _after_classify(self, args, candidates) -> None:
        for cand in candidates:
            self.count(f"oracle.candidates.{cand.criterion}")

    def _after_serialize(self, args, text) -> None:
        self.count("reports.report_bytes", len(text.encode()))

    def _maximize(self, fn):
        timed = self.timed("maximizer.maximize_sequence", fn, span=True)

        @functools.wraps(fn)
        def maximize_sequence(seq, universe, evaluate_seq, *rest, **kwargs):
            first = []

            def evaluate(s):
                value = evaluate_seq(s)
                if not first:
                    first.append(value)
                return value

            result = timed(seq, universe, evaluate, *rest, **kwargs)
            self.count("maximizer.runs")
            self.count("maximizer.evals", result.evals)
            base = first[0] if first and first[0] is not None else 0
            if result.profit > base:
                self.count("maximizer.lifted")
            return result

        return maximize_sequence

    # --- installation ---------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Point every popfuzz binding of `original` at `replacement`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "popfuzz" or mod_name.startswith("popfuzz.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _replace_method(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    @contextmanager
    def installed(self):
        """Probes (and, when tracing, the tracer) for the duration of a block."""
        from popfuzz import cli, engine, reports, scenarios, suite, world

        run_campaign, replay_profit = engine.run_campaign, engine.replay_profit
        verify_result = engine.verify_result
        if self.trace:
            for name, mod_name, attr in TIMED:
                fn = getattr(sys.modules[mod_name], attr)
                self._replace(fn, self.timed(name, fn))
            fn = world.execute_sequence
            self._replace(fn, self.timed("world.execute_sequence", fn, self._after_execute))
            fn = engine.classify
            self._replace(fn, self.timed("oracle.classify", fn, self._after_classify))
            fn = engine.maximize_sequence
            self._replace(fn, self._maximize(fn))
            fn = reports.serialize_report
            self._replace(fn, self.timed("reports.serialize_report", fn, self._after_serialize))
            for name, fn in (("cli.run", cli.cmd_run), ("cli.replay", cli.cmd_replay),
                             ("suite.run_suite", suite.run_suite)):
                self._replace(fn, self.timed(name, fn, span=True))
            state_cls, scenario_cls = world.WorldState, scenarios.Scenario
            self._replace_method(state_cls, "copy",
                                 self.timed("world.state_copy", state_cls.copy))
            self._replace_method(state_cls, "rollback",
                                 self.counted("world.rollback.calls", state_cls.rollback))
            self._replace_method(scenario_cls, "build_state",
                                 self.timed("scenarios.build_state", scenario_cls.build_state))
            run_campaign = self.timed("engine.run_campaign", run_campaign, span=True)
            replay_profit = self.timed("engine.replay_profit", replay_profit, span=True)
            verify_result = self.timed("engine.verify_result", verify_result, span=True)
        self._replace(engine.run_campaign, self._run_campaign_probe(run_campaign))
        self._replace(engine.replay_profit, self._replay_probe(replay_profit))
        self._replace(engine.verify_result, self._verify_probe(verify_result))
        try:
            yield self
        finally:
            while self._undo:
                target, attr, original = self._undo.pop()
                setattr(target, attr, original)


def empty_part() -> dict:
    return {"campaigns": [], "agg": {}, "counts": {}, "spans": []}


def take_worker_parts(out_dir: Path) -> dict:
    """Merge, then delete, what forked workers wrote to out_dir."""
    merged = empty_part()
    for path in sorted(Path(out_dir).glob("worker-*.jsonl")):
        for line in path.read_text().splitlines():
            merge_into(merged, json.loads(line))
        path.unlink()
    return merged


def merge_into(total: dict, part: dict) -> None:
    total["campaigns"].extend(part["campaigns"])
    total["spans"].extend(part["spans"])
    for name, (calls, incl, self_s) in part["agg"].items():
        cell = total["agg"].setdefault(name, [0, 0.0, 0.0])
        cell[0] += calls
        cell[1] += incl
        cell[2] += self_s
    for name, n in part["counts"].items():
        total["counts"][name] = total["counts"].get(name, 0) + n
