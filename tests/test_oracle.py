"""Candidate detection over fund-flow events and the liquidation-based
profit accounting."""

import pytest

from popfuzz.amm import ROUTER_ADDRESS
from popfuzz.oracle import (
    IMBALANCED_PAIR,
    UNCONDITIONAL_BURN,
    UNCONDITIONAL_GAIN,
    account,
    classify,
)
from popfuzz.scenarios import builtin_scenario
from popfuzz.world import RawCall, Transaction, execute_sequence


def run(sc, calls):
    state = sc.build_state()
    txs = [Transaction(sc.attacker, RawCall(*c)) for c in calls]
    return state, execute_sequence(state, txs)


# --- classification -------------------------------------------------------------


def test_public_mint_flags_unconditional_gain():
    sc = builtin_scenario("public_mint")
    mnt = sc.token_address("MNT")
    _, receipt = run(sc, [(mnt, "mint", (sc.attacker, 1_000))])
    found = {c.criterion: c for c in classify(receipt, sc.cluster)}
    assert UNCONDITIONAL_GAIN in found
    assert found[UNCONDITIONAL_GAIN].culprits == (0,)
    assert UNCONDITIONAL_BURN not in found


def test_public_burn_flags_burn_and_imbalance():
    sc = builtin_scenario("public_burn")
    brn = sc.token_address("BRN")
    pair = sc.pairs[0]["address"]  # the BRN/USD pool
    _, receipt = run(sc, [(brn, "burn", (pair, 10**17))])
    found = {c.criterion for c in classify(receipt, sc.cluster)}
    assert {UNCONDITIONAL_BURN, IMBALANCED_PAIR} <= found
    assert UNCONDITIONAL_GAIN not in found


def test_fair_swap_raises_no_flags():
    sc = builtin_scenario("fair_pool")
    usd, tkn = sc.token_address("USD"), sc.token_address("TKN")
    _, receipt = run(
        sc,
        [
            (usd, "approve", (ROUTER_ADDRESS, 5_000)),
            (ROUTER_ADDRESS, "swapExactIn", (usd, tkn, 5_000)),
        ],
    )
    assert receipt.outcomes[1].ok
    assert classify(receipt, sc.cluster) == []


def test_gain_requires_no_outflow_in_the_same_transaction():
    # buying from the sale contract moves USD out and SLT in: not unconditional
    sc = builtin_scenario("zero_cost_buy")
    sale = sc.addresses["sale"]
    state = sc.build_state()
    # a free purchase below the pricing unit: inflow with no outflow at all
    receipt = execute_sequence(
        state, [Transaction(sc.attacker, RawCall(sale, "buyTokens", (10**18 - 1,)))]
    )
    assert receipt.outcomes[0].ok
    found = {c.criterion for c in classify(receipt, sc.cluster)}
    assert UNCONDITIONAL_GAIN in found


# --- accounting -------------------------------------------------------------------


def test_raw_accounting_is_just_the_pricing_balance():
    sc = builtin_scenario("public_burn")
    usd = sc.token_address("USD")
    state = sc.build_state()
    assert account(state, usd, sc.cluster, full=False).value == 10**17
    assert account(state, usd, sc.cluster, full=True).value == 10**17


def test_full_accounting_sells_non_pricing_holdings():
    sc = builtin_scenario("fair_pool")
    usd, tkn = sc.token_address("USD"), sc.token_address("TKN")
    state, receipt = run(
        sc,
        [
            (usd, "approve", (ROUTER_ADDRESS, 10_000)),
            (ROUTER_ADDRESS, "swapExactIn", (usd, tkn, 10_000)),
        ],
    )
    report = account(receipt.state, usd, sc.cluster, full=True)
    assert any(step[0] == "sell" for step in report.trace)
    # the liquidation value reflects round-trip loss but not total loss
    assert 0 < report.value < 10_000
    # raw accounting sees only the emptied USD balance
    assert account(receipt.state, usd, sc.cluster, full=False).value == 0


def test_full_accounting_redeems_lp_positions():
    sc = builtin_scenario("fair_pool")
    usd, tkn = sc.token_address("USD"), sc.token_address("TKN")
    state, receipt = run(
        sc,
        [
            (usd, "approve", (ROUTER_ADDRESS, 10_000)),
            (ROUTER_ADDRESS, "swapExactIn", (usd, tkn, 4_000)),
            (tkn, "approve", (ROUTER_ADDRESS, 10_000)),
            (ROUTER_ADDRESS, "addLiquidity", (tkn, usd, 3_000, 3_000)),
        ],
    )
    assert all(o.ok for o in receipt.outcomes)
    report = account(receipt.state, usd, sc.cluster, full=True)
    assert any(step[0] == "redeem" for step in report.trace)
    # swap fees and rounding cost a little, but the position retains most value
    assert report.value > 9_000


def test_accounting_syncs_stale_pairs_before_selling():
    """After a third-party burn shrinks a pool's token side, the liquidator's
    sync step reprices the attacker's holdings at the new reserves."""
    sc = builtin_scenario("public_burn")
    usd, brn = sc.token_address("USD"), sc.token_address("BRN")
    pair = sc.pairs[0]["address"]
    state, receipt = run(
        sc,
        [
            (usd, "approve", (ROUTER_ADDRESS, 10**17)),
            (ROUTER_ADDRESS, "swapExactIn", (usd, brn, 10**17)),
            (brn, "burn", (pair, 8 * 10**17)),
        ],
    )
    assert all(o.ok for o in receipt.outcomes)
    report = account(receipt.state, usd, sc.cluster, full=True)
    assert any(step[0] == "sync" for step in report.trace)
    profit = report.value - account(state, usd, sc.cluster, full=True).value
    assert profit > 0  # two transactions plus the burn: the whole exploit

