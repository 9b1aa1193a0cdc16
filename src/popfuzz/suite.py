"""The built-in corpus suite: every scenario x seed x engine variant, with
per-scenario campaign budgets sized so the whole matrix runs at desk scale.

Campaigns are independent pure functions of (scenario, config), so the suite
fans out across processes and merges deterministically by task order.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .engine import VARIANTS, CampaignConfig, CampaignResult, run_campaign, verify_result
from .scenarios import builtin_names, builtin_scenario

SUITE_SCENARIOS = (
    "public_mint",
    "zero_cost_buy",
    "fee_transfer",
    "public_burn",
    "rounding_vault",
)

SUITE_SEEDS = (1, 2, 3, 4, 5)

# Iteration budgets per scenario: the burn chain needs four structural pieces
# (buy, burn, implicit sync, sell) and assembles late; the others are 1-3 txs.
_SUITE_ITERATIONS = {
    "public_mint": 2500,
    "zero_cost_buy": 2500,
    "fee_transfer": 2500,
    "public_burn": 15000,
    "rounding_vault": 3000,
}
_DEFAULT_ITERATIONS = 4000


def suite_config(scenario_name: str, seed: int, variant: str = "full") -> CampaignConfig:
    return CampaignConfig(
        seed=seed,
        iterations=_SUITE_ITERATIONS.get(scenario_name, _DEFAULT_ITERATIONS),
        sgd_budget=600,
        sgd_total_budget=6000,
        variant=variant,
    )


@dataclass
class SuiteCell:
    scenario: str
    seed: int
    variant: str
    result: CampaignResult

    @property
    def profit(self) -> int:
        return self.result.best_profit


@dataclass
class SuiteReport:
    cells: list = field(default_factory=list)

    def cell(self, scenario: str, seed: int, variant: str) -> SuiteCell:
        for c in self.cells:
            if (c.scenario, c.seed, c.variant) == (scenario, seed, variant):
                return c
        raise KeyError((scenario, seed, variant))

    def total_profit(self, variant: str, scenario: str | None = None) -> int:
        return sum(
            c.profit
            for c in self.cells
            if c.variant == variant and (scenario is None or c.scenario == scenario)
        )

    def positive_scenarios(self, variant: str) -> set:
        return {c.scenario for c in self.cells if c.variant == variant and c.profit > 0}

    def matrix(self) -> list:
        """Rows per scenario: best profit per variant plus percent of full."""
        rows = []
        scenarios = sorted({c.scenario for c in self.cells})
        variants = [v for v in VARIANTS if any(c.variant == v for c in self.cells)]
        for name in scenarios:
            full = self.total_profit("full", name)
            row = {"scenario": name}
            for v in variants:
                p = self.total_profit(v, name)
                row[v] = str(p)
                row[f"{v}_pct"] = round(100 * p / full, 1) if full else 0.0
            rows.append(row)
        return rows


def _run_cell(task) -> tuple:
    name, seed, variant = task
    scenario = builtin_scenario(name)
    result = run_campaign(scenario, suite_config(name, seed, variant))
    verify_result(scenario, result)
    return task, result


def run_suite(
    scenarios=SUITE_SCENARIOS,
    seeds=SUITE_SEEDS,
    variants=VARIANTS,
    workers: int | None = None,
) -> SuiteReport:
    known = set(builtin_names())
    for name in scenarios:
        if name not in known:
            raise ValueError(f"unknown built-in scenario {name!r}")
    tasks = [(n, s, v) for n in scenarios for s in seeds for v in variants]
    report = SuiteReport()
    if workers is None:
        workers = min(len(tasks), os.cpu_count() or 1)
    if workers <= 1 or len(tasks) == 1:
        outcomes = map(_run_cell, tasks)
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            outcomes = list(pool.map(_run_cell, tasks))
        finally:
            pool.shutdown()
    for (name, seed, variant), result in outcomes:
        report.cells.append(SuiteCell(name, seed, variant, result))
    return report
