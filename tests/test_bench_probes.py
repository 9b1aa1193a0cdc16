"""The benchmark's probes (perfbench/probes.py) still find what they wrap.

The probes replace functions by module and name, and `--trace 1` fails on a
name that is gone or no longer called through a wrapped binding. One small
campaign under the tracer catches such a rename here, without running the
benchmark.
"""

import sys
from pathlib import Path

from popfuzz import cli, engine, reports, scenarios, suite, world
from popfuzz.engine import CampaignConfig
from popfuzz.scenarios import builtin_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import probes  # noqa: E402

# every binding the campaign path and the CLI call through, by module
WRAPPED = [(sys.modules[module], attr) for _, module, attr in probes.TIMED] + [
    (world, "execute_sequence"),
    (engine, "execute_sequence"),
    (engine, "classify"),
    (engine, "maximize_sequence"),
    (engine, "run_campaign"),
    (engine, "replay_profit"),
    (engine, "verify_result"),
    (suite, "run_campaign"),
    (suite, "verify_result"),
    (suite, "run_suite"),
    (cli, "replay_profit"),
    (cli, "run_suite"),
    (cli, "cmd_run"),
    (cli, "cmd_replay"),
    (reports, "serialize_report"),
    (world.WorldState, "copy"),
    (world.WorldState, "rollback"),
    (scenarios.Scenario, "build_state"),
]


def test_probes_wrap_every_name_and_see_every_execution(tmp_path):
    scenario = builtin_scenario("public_mint")
    config = CampaignConfig(seed=1, iterations=400, sgd_budget=60, sgd_total_budget=200)
    recorder = probes.Recorder(tmp_path, trace=True)
    with recorder.installed():
        unwrapped = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr in WRAPPED
            if not hasattr(getattr(owner, attr), "__wrapped__")
        ]
        result = engine.run_campaign(scenario, config)
        engine.verify_result(scenario, result)
    assert unwrapped == []
    (record,) = recorder.campaigns
    assert result.stats.sgd_evals > 0
    assert record["executions"] == result.stats.iterations + result.stats.sgd_evals


def test_fanned_out_workers_flush_what_they_probed(tmp_path):
    """A worker's probes write out after `verify_result`, so the fan-out must
    verify each campaign in the worker that ran it."""
    scenario = builtin_scenario("public_mint")
    tasks = [(scenario, CampaignConfig(seed=seed, iterations=100, sgd_budget=40,
                                       sgd_total_budget=80)) for seed in (1, 2)]
    with probes.Recorder(tmp_path, trace=False).installed():
        results = suite.run_campaigns(tasks, 2)
    assert [r.config.seed for r in results] == [1, 2]
    workers = probes.take_worker_parts(tmp_path)
    assert sorted(c["seed"] for c in workers["campaigns"]) == [1, 2]
