"""Acceptance gate: eight end-to-end criteria over the corpus-suite matrix,
the optimizer, the property suites, and report determinism.

Each criterion prints exactly one PASS/FAIL line on the terminal (bypassing
capture) so a full run reads as a checklist.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from popfuzz.actions import (
    A1_TRANSFER_PCT,
    A2_ROUTER_SWAP,
    A4_PAIR_SWAP,
    ActionSpec,
    random_raw_call,
    random_transaction,
)
from popfuzz.amm import ROUTER_ADDRESS, swap_exact_in
from popfuzz.engine import CampaignConfig, run_campaign, verify_result
from popfuzz.maximizer import sgd_maximize
from popfuzz.oracle import (
    IMBALANCED_PAIR,
    POSITIVE_PROFIT,
    UNCONDITIONAL_BURN,
    UNCONDITIONAL_GAIN,
)
from popfuzz.reports import result_to_dict, serialize_report
from popfuzz.scenarios import builtin_scenario, ground_truth_optimum
from popfuzz.suite import SUITE_SCENARIOS, SUITE_SEEDS, VARIANTS
from popfuzz.world import (
    UINT_MAX,
    CallContext,
    RawCall,
    Revert,
    Transaction,
    execute_sequence,
)
from reference_maximizer import schedule_law_holds

CASES = 10_000  # minimum case count for each property suite


@contextmanager
def criterion(capsys, num, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nFAIL criterion {num}: {label}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {num}: {label}")


# --- criterion 1: optimum recovery on every benchmark scenario and seed --------


def _sell_percentages(proof, scenario):
    """Percentages at which a proof sells the fee token into its pool."""
    fee = scenario.token_address("FEE")
    state = scenario.build_state()
    pcts = []
    for tx in proof.txs:
        kind = tx.kind
        if not isinstance(kind, ActionSpec):
            continue
        if kind.kind == A2_ROUTER_SWAP and kind.token == fee:
            pcts.append(kind.percentage)
        elif kind.kind == A1_TRANSFER_PCT and kind.token == fee and kind.target in state.pairs:
            pcts.append(kind.percentage)
        elif kind.kind == A4_PAIR_SWAP and kind.direction == "swap":
            pair = state.pairs.get(kind.target)
            if pair is not None:
                token_in = pair.token0 if kind.side == 0 else pair.token1
                if token_in == fee:
                    pcts.append(kind.percentage)
    return pcts


def test_criterion_1_optimum_recovery(corpus_suite, capsys):
    with criterion(capsys, 1, "every scenario's optimum recovered on seeds 1-5 "
                              "within the iteration and time budget"):
        fee_scenario = builtin_scenario("fee_transfer")
        fee_bound = 100 * 1000 // 1100  # max sellable pct of a 10% fee-on-top token
        assert fee_bound == 90
        for name in SUITE_SCENARIOS:
            for seed in SUITE_SEEDS:
                cell = corpus_suite.cell(name, seed, "full")
                assert cell.result.config.iterations <= 50_000
                elapsed = cell.result.stats.elapsed
                assert elapsed <= 60.0, (
                    f"{name} seed {seed}: full-engine campaign took {elapsed:.1f} s, "
                    f"over the 60 s bound"
                )
                profit = cell.profit
                if name == "public_mint":
                    assert profit * 100 >= 99 * ground_truth_optimum(name)
                elif name == "zero_cost_buy":
                    assert profit * 100 >= 99 * ground_truth_optimum(name)
                elif name == "rounding_vault":
                    assert profit == ground_truth_optimum(name)  # victim deposit, exactly
                elif name == "public_burn":
                    assert profit > 0
                    assert profit * 100 >= 95 * ground_truth_optimum(name)
                elif name == "fee_transfer":
                    proof = cell.result.best_proof()
                    assert proof is not None and proof.profit > 0
                    pcts = _sell_percentages(proof, fee_scenario)
                    assert any(1 <= p <= fee_bound for p in pcts), (
                        f"seed {seed}: winning proof sells at {pcts}, none within "
                        f"the fee-adjusted bound {fee_bound}"
                    )
                    # without the action alphabet, raw 256-bit arguments never
                    # hit a workable sell amount: the exploit goes unfound
                    noact = corpus_suite.cell(name, seed, "noact")
                    assert noact.profit <= 0
                    assert not noact.result.best


# --- criterion 2: optimizer convergence on closed-form objectives ---------------


def test_criterion_2_sgd_convergence(capsys):
    with criterion(capsys, 2, "integer gradient ascent finds quadratic peaks exactly "
                              "and walks monotone slopes to the revert boundary"):
        for c in (10**3, 10**6, 10**12):
            res = sgd_maximize(
                [0], lambda v: -(v[0] - c) ** 2, [0], [UINT_MAX],
                random.Random(0), budget=200,
            )
            assert res.x[0] == c and res.value == 0 and res.evals <= 200
        for boundary in (777, 123_456, 10**9):
            def f(v, b=boundary):
                return None if v[0] > b else v[0]

            res = sgd_maximize([0], f, [0], [UINT_MAX], random.Random(0), budget=300)
            assert res.x[0] == boundary and res.evals <= 300


# --- criterion 3: the step-size schedule law holds on every recorded entry ------


def test_criterion_3_schedule_law(capsys):
    with criterion(capsys, 3, "step-size schedule law holds on 100% of recorded "
                              "entries, synthetic and in-campaign"):
        entries = []
        for seed, c in ((0, 12_345), (1, 10**9), (2, 41)):
            schedule = []
            sgd_maximize(
                [0], lambda v: -(v[0] - c) ** 2, [0], [UINT_MAX],
                random.Random(seed), budget=400, schedule=schedule,
            )
            entries.extend(schedule)
        campaign = run_campaign(
            builtin_scenario("fee_transfer"),
            CampaignConfig(seed=7, iterations=1200, sgd_budget=300,
                           sgd_total_budget=2000, record_schedule=True),
        )
        for sched in campaign.schedules:
            entries.extend(sched)
        assert len(entries) > 500
        assert all(schedule_law_holds(e) for e in entries)


# --- criterion 4: zero false positives across the whole matrix ------------------


def test_criterion_4_no_false_positives(corpus_suite, capsys):
    with criterion(capsys, 4, "every proof in the scenario x seed x variant matrix "
                              "reproduces under exact replay"):
        total_proofs = 0
        for cell in corpus_suite.cells:
            scenario = builtin_scenario(cell.scenario)
            verify_result(scenario, cell.result)
            total_proofs += len(cell.result.proofs)
        assert total_proofs > 0


# --- criterion 5: the full engine dominates every ablation ------------------------


def positive_scenarios(suite, variant: str) -> set:
    return {c.scenario for c in suite.cells if c.variant == variant and c.profit > 0}


def test_criterion_5_ablation_dominance(corpus_suite, capsys):
    with criterion(capsys, 5, "full engine's summed profit dominates every ablation; "
                              "raw-call-only mode solves strictly fewer scenarios"):
        full_total = corpus_suite.total_profit("full")
        assert full_total > 0
        for variant in VARIANTS:
            if variant != "full":
                assert full_total >= corpus_suite.total_profit(variant), variant
        full_positive = positive_scenarios(corpus_suite, "full")
        noact_positive = positive_scenarios(corpus_suite, "noact")
        assert noact_positive < full_positive  # strict subset


# --- criterion 6: each detection criterion fires where it should ------------------


def test_criterion_6_criteria_mapping(corpus_suite, capsys):
    with criterion(capsys, 6, "gain/burn/imbalance criteria flag their scenarios "
                              "and every winner carries positive profit"):
        for seed in SUITE_SEEDS:
            for name in ("public_mint", "zero_cost_buy"):
                proofs = corpus_suite.cell(name, seed, "full").result.proofs
                assert any(UNCONDITIONAL_GAIN in p.criteria for p in proofs), (name, seed)
            burn_proofs = corpus_suite.cell("public_burn", seed, "full").result.proofs
            assert any(UNCONDITIONAL_BURN in p.criteria for p in burn_proofs), seed
            assert any(IMBALANCED_PAIR in p.criteria for p in burn_proofs), seed
        for cell in corpus_suite.cells:
            for proof in cell.result.proofs:
                assert proof.profit > 0
                assert POSITIVE_PROFIT in proof.criteria


# --- criterion 7: executor property suites, ten thousand cases each ----------------


def test_criterion_7_property_suites(capsys):
    with criterion(capsys, 7, f"five executor property suites hold over "
                              f"{CASES} random cases each"):
        _property_revert_atomicity()
        _property_ledger_conservation()
        _property_k_monotonicity()
        _property_round_trip_loss()
        _property_snapshot_round_trip()


def _property_revert_atomicity():
    """A reverted transaction leaves the world exactly as it found it."""
    sc = builtin_scenario("public_burn")
    base = sc.build_state()
    universe = sc.universe()
    rng = random.Random(101)
    reverted = 0
    for _ in range(CASES):
        tx = replace(random_raw_call(rng, universe), repeat=1)
        receipt = execute_sequence(base, [tx])
        if not receipt.outcomes[0].ok:
            reverted += 1
            assert receipt.state == base
    assert reverted > CASES // 10  # the suite actually exercised the revert path


def _property_ledger_conservation():
    """Without mint/burn hooks, holdings always sum to the recorded supply and
    non-LP supplies never change."""
    sc = builtin_scenario("fair_pool")
    state = sc.build_state()
    universe = sc.universe()
    initial_supplies = {
        t: state.supplies.get(t, 0) for t, d in state.tokens.items() if not d.is_lp
    }
    rng = random.Random(103)
    for _ in range(CASES):
        tx = replace(random_transaction(rng, universe, False), repeat=1)
        state = execute_sequence(state, [tx]).state
        held = {}
        for (token, _holder), amount in state.balances.items():
            held[token] = held.get(token, 0) + amount
        for token in state.tokens:
            assert held.get(token, 0) == state.supplies.get(token, 0)
        for token, supply in initial_supplies.items():
            assert state.supplies.get(token, 0) == supply


def _property_k_monotonicity():
    """Router swaps never decrease a pool's constant product."""
    sc = builtin_scenario("fair_pool")
    state = sc.build_state()
    usd, tkn = sc.token_address("USD"), sc.token_address("TKN")
    pair = next(iter(state.pairs.values()))
    rng = random.Random(107)
    executed = 0
    for _ in range(CASES):
        token_in, token_out = (usd, tkn) if rng.random() < 0.5 else (tkn, usd)
        if state.balance_of(token_in, sc.attacker) == 0:
            # round-trip losses drain the trader; top the ledger up so the
            # suite keeps exercising real swaps instead of underflow reverts
            state.set_balance(token_in, sc.attacker, 10_000)
        amount = rng.randint(1, state.balance_of(token_in, sc.attacker))
        before = pair.reserve0 * pair.reserve1
        state.set_allowance(token_in, sc.attacker, ROUTER_ADDRESS, amount)
        try:
            swap_exact_in(CallContext(state, sc.attacker, 0, 0, []),
                          token_in, token_out, amount)
        except Revert:
            continue
        executed += 1
        assert pair.reserve0 * pair.reserve1 >= before
    assert executed > CASES // 2


def _property_round_trip_loss():
    """Swapping out and straight back never returns more than went in."""
    sc = builtin_scenario("fair_pool")
    base = sc.build_state()
    usd, tkn = sc.token_address("USD"), sc.token_address("TKN")
    rng = random.Random(109)
    for _ in range(CASES):
        state = base.copy()
        amount = rng.randint(1, 10_000)
        ctx = CallContext(state, sc.attacker, 0, 0, [])
        state.set_allowance(usd, sc.attacker, ROUTER_ADDRESS, amount)
        try:
            got = swap_exact_in(ctx, usd, tkn, amount)
            state.set_allowance(tkn, sc.attacker, ROUTER_ADDRESS, got)
            back = swap_exact_in(ctx, tkn, usd, got)
        except Revert:
            continue
        assert back <= amount


def _property_snapshot_round_trip():
    """A snapshot equals its source and is unaffected by later mutation."""
    sc = builtin_scenario("public_burn")
    state = sc.build_state()
    universe = sc.universe()
    rng = random.Random(113)
    for _ in range(CASES):
        snap = state.copy()
        assert snap == state
        tx = replace(random_raw_call(rng, universe), repeat=1)
        mutated = execute_sequence(state, [tx]).state
        assert snap == state  # executing never touches the input state
        if rng.random() < 0.5:
            state = mutated  # keep wandering through state space


# --- criterion 8: byte-identical reports plus an executor microbenchmark ------------


def test_criterion_8_determinism_and_throughput(capsys):
    with criterion(capsys, 8, "reports are byte-identical across reruns "
                              "(timestamp aside) and the executor clears the "
                              "throughput benchmark"):
        scenario = builtin_scenario("fee_transfer")
        config = CampaignConfig(seed=3, iterations=800, sgd_budget=200,
                                sgd_total_budget=1500)
        texts = [
            serialize_report(result_to_dict("fee_transfer", run_campaign(scenario, config)))
            for _ in range(2)
        ]
        assert texts[0] == texts[1]

    # non-asserting microbenchmark: 10**4 minimal transactions through the executor
    sc = builtin_scenario("fair_pool")
    state = sc.build_state()
    usd = sc.token_address("USD")
    tx = Transaction(sc.attacker, RawCall(usd, "approve", (ROUTER_ADDRESS, 1)), repeat=1000)
    started = time.perf_counter()
    receipt = execute_sequence(state, [tx] * 10)
    elapsed = time.perf_counter() - started
    executed = len(receipt.outcomes)
    with capsys.disabled():
        print(f"      executor microbenchmark: {executed} txs in {elapsed:.3f}s "
              f"({executed / elapsed:,.0f} tx/s)")
