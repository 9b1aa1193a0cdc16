"""The one-pass classifier and the journaled liquidation accounting: a
differential test against the previous versions kept in
`reference_oracle.py`, and hand-built receipts for each rule of the
unconditional-gain and unconditional-burn criteria."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from popfuzz.actions import random_transaction
from popfuzz.oracle import (
    IMBALANCED_PAIR,
    UNCONDITIONAL_BURN,
    UNCONDITIONAL_GAIN,
    account,
    classify,
)
from popfuzz.scenarios import builtin_names, builtin_scenario, merge_victim_txs
from popfuzz.world import (
    BURN_ADDRESS,
    REVERTED,
    RETURNED,
    UINT_MAX,
    ExecutionReceipt,
    NativeFlow,
    PairCheck,
    TransferEvent,
    TxOutcome,
    WorldState,
    execute_sequence,
    make_address,
)
from reference_oracle import account_reference, classify_reference

ALL_SCENARIOS = tuple(builtin_names()) + ("fair_pool", "staking_id")

_SCENARIOS = {name: builtin_scenario(name) for name in ALL_SCENARIOS}
_BASES = {name: sc.build_state() for name, sc in _SCENARIOS.items()}
_UNIVERSES = {name: sc.universe() for name, sc in _SCENARIOS.items()}


# --- differential test ----------------------------------------------------------


@settings(max_examples=1000, deadline=None)
@given(
    st.sampled_from(ALL_SCENARIOS),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=16),
    st.booleans(),
    st.integers(min_value=0, max_value=8),
)
def test_oracle_matches_reference(name, seed, length, noact, extra_member):
    scenario, base, universe = _SCENARIOS[name], _BASES[name], _UNIVERSES[name]
    rng = random.Random(seed)
    attacker_txs = [random_transaction(rng, universe, noact) for _ in range(length)]
    txs, logical, flags = merge_victim_txs(attacker_txs, scenario.victim_txs)
    receipt = execute_sequence(base, txs, 16, logical, flags)

    assert classify(receipt, scenario.cluster) == classify_reference(receipt, scenario.cluster)
    # a wider cluster (a pair, a contract, the burn address...) exercises the
    # transfers that start and end inside it
    parties = sorted({a for ev in receipt.events for a in (ev.src, ev.dst)})
    if parties and extra_member:
        cluster = scenario.cluster | {parties[extra_member % len(parties)]}
        assert classify(receipt, cluster) == classify_reference(receipt, cluster)

    for pricing in universe.pricing_tokens:
        for full in (True, False):
            got = account(receipt.state, pricing, scenario.cluster, full)
            assert got == account_reference(receipt.state, pricing, scenario.cluster, full)
    assert receipt.state.journal is None


# --- hand-built receipts ----------------------------------------------------------

ATTACKER = make_address(0xA11CE)
HELPER = make_address(0xA11CF)  # a second cluster member
OTHER = make_address(0xB0B)
TOKEN = make_address(0x1001)
CLUSTER = frozenset({ATTACKER, HELPER})


def _receipt(outcomes, events, native_flows=(), pair_checks=()):
    return ExecutionReceipt(
        list(outcomes), list(events), list(native_flows), list(pair_checks), WorldState()
    )


def _ok(logical):
    return TxOutcome(RETURNED, "", logical, False)


def _transfer(src, dst, tx_index, amount=5):
    return TransferEvent(TOKEN, src, dst, amount, tx_index)


def _both(receipt, cluster=CLUSTER):
    """The candidates, checked against the reference first."""
    got = classify(receipt, cluster)
    assert got == classify_reference(receipt, cluster)
    return {c.criterion: c.culprits for c in got}


def test_a_transaction_that_gains_and_pays_out_is_no_gain_culprit():
    receipt = _receipt(
        [_ok(0), _ok(1)],
        [
            _transfer(OTHER, ATTACKER, 0),
            _transfer(ATTACKER, OTHER, 0, amount=1),  # the payment comes after the gain
            _transfer(OTHER, HELPER, 1),
        ],
    )
    assert _both(receipt) == {UNCONDITIONAL_GAIN: (1,)}


def test_transfers_inside_the_cluster_are_neither_gain_nor_outflow():
    receipt = _receipt(
        [_ok(0), _ok(1)],
        [
            _transfer(ATTACKER, HELPER, 0),
            _transfer(ATTACKER, HELPER, 1),
            _transfer(OTHER, ATTACKER, 1),
        ],
    )
    assert _both(receipt) == {UNCONDITIONAL_GAIN: (1,)}


def test_a_native_outflow_cancels_the_gain_of_its_transaction():
    receipt = _receipt(
        [_ok(0), _ok(1)],
        [_transfer(OTHER, ATTACKER, 0), _transfer(OTHER, ATTACKER, 1)],
        native_flows=[NativeFlow(ATTACKER, OTHER, 1, 0), NativeFlow(OTHER, ATTACKER, 1, 1)],
    )
    assert _both(receipt) == {UNCONDITIONAL_GAIN: (1,)}


def test_a_third_party_burn_is_a_burn_culprit_but_the_attackers_own_is_not():
    receipt = _receipt(
        [_ok(0), _ok(1), _ok(2)],
        [
            _transfer(OTHER, BURN_ADDRESS, 0),
            _transfer(ATTACKER, BURN_ADDRESS, 1),
            _transfer(OTHER, BURN_ADDRESS, 2),
            _transfer(HELPER, OTHER, 2),  # an outflow in the same transaction
        ],
    )
    assert _both(receipt) == {UNCONDITIONAL_BURN: (0,)}


def test_a_burn_address_inside_the_cluster_counts_as_gain_and_burn():
    receipt = _receipt([_ok(0)], [_transfer(OTHER, BURN_ADDRESS, 0)])
    assert _both(receipt, CLUSTER | {BURN_ADDRESS}) == {
        UNCONDITIONAL_GAIN: (0,),
        UNCONDITIONAL_BURN: (0,),
    }


def test_victim_and_reverted_transactions_are_never_culprits():
    victim = TxOutcome(RETURNED, "", -1, True)
    reverted = TxOutcome(REVERTED, "boom", 1, False)
    receipt = _receipt(
        [victim, _ok(0), reverted, _ok(2)],
        [
            _transfer(OTHER, ATTACKER, 0),
            _transfer(OTHER, BURN_ADDRESS, 0),
            _transfer(OTHER, ATTACKER, 2),
            _transfer(OTHER, BURN_ADDRESS, 2),
            _transfer(OTHER, ATTACKER, 3),
        ],
        pair_checks=[PairCheck(OTHER, 1, 1, 2, 1, False, i) for i in (0, 2, 1)],
    )
    assert _both(receipt) == {IMBALANCED_PAIR: (0,), UNCONDITIONAL_GAIN: (2,)}


def test_repeats_of_one_transaction_name_it_once():
    receipt = _receipt(
        [_ok(0)] * 4 + [_ok(1)],
        [_transfer(OTHER, ATTACKER, i) for i in range(4)] + [_transfer(OTHER, BURN_ADDRESS, 4)],
    )
    assert _both(receipt) == {UNCONDITIONAL_GAIN: (0,), UNCONDITIONAL_BURN: (1,)}


# --- journaled accounting ---------------------------------------------------------


def test_a_redeem_or_sell_that_reverts_after_its_transfer_is_rolled_back():
    """Two whales, one sorting before the attacker and one after, each redeem
    LP and sell TKN; every such step moves tokens into the pair, then reverts
    when the USD payout overflows the whale's balance. Each rollback must undo
    its own step and nothing before it, so the attacker's redeem and sell see
    the pair, and keep their proceeds, as with a whole-state copy per step."""
    sc = builtin_scenario("fair_pool")
    usd, tkn = sc.token_address("USD"), sc.token_address("TKN")
    pair = sc.pairs[0]["address"]
    whales = (make_address(0xA0), make_address(0xB0000))
    assert whales[0] < sc.attacker < whales[1]
    state = sc.build_state()
    lp_token = state.pairs[pair].lp_token
    state.balances[(lp_token, BURN_ADDRESS)] -= 20_000
    state.balances[(lp_token, sc.attacker)] = 10_000
    state.balances[(tkn, sc.attacker)] = 1_000
    for whale in whales:
        state.balances[(lp_token, whale)] = 5_000
        state.balances[(usd, whale)] = UINT_MAX - 1
        state.balances[(tkn, whale)] = 1_000
    before = state.copy()
    cluster = sc.cluster | set(whales)

    report = account(state, usd, cluster, full=True)

    assert report == account_reference(state, usd, cluster, full=True)
    assert [step[:2] for step in report.trace] == [
        ("redeem", sc.attacker),
        ("sell", sc.attacker),
    ]
    assert report.trace[0][2:] == (pair, 10_000)
    (_, _, token, via, sold, out) = report.trace[1]
    assert (token, via, sold) == (tkn, pair, 1_000 + 10_000)  # own TKN plus the redeemed
    assert report.value == 2 * (UINT_MAX - 1) + 10_000 + 10_000 + out
    assert state == before
