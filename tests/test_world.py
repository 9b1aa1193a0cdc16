"""World model: checked arithmetic, the token ledger, per-transaction
atomicity, and repeat expansion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popfuzz.runtime import call_raw
from popfuzz.scenarios import scenario_from_dict
from popfuzz.world import (
    BURN_ADDRESS,
    UINT_MAX,
    ZERO_ADDRESS,
    CallContext,
    RawCall,
    Revert,
    Transaction,
    checked_add,
    checked_mul,
    checked_sub,
    execute_sequence,
    make_address,
    token_transfer,
)

RECIPIENT = make_address(0xBEEF)


def build_world():
    """A two-token world with one pair; FEE charges 10% extra into the burn
    address on transfers that touch the pair."""
    sc = scenario_from_dict(
        {
            "name": "world-fixture",
            "tokens": [
                {"symbol": "USD"},
                {"symbol": "FEE", "fee": {"rate": 100, "direction": "to_pair"}},
            ],
            "pairs": [{"tokens": ["FEE", "USD"], "reserves": [1_000_000, 1_000_000]}],
            "attacker": {"balances": {"USD": 1_000, "FEE": 100}, "native": 50},
            "pricing_tokens": ["USD"],
        }
    )
    return sc, sc.build_state()


def ctx_for(state, sender, recorder=None):
    return CallContext(state, sender, 0, 0, recorder if recorder is not None else [])


# --- checked arithmetic -------------------------------------------------------


def test_checked_ops_pass_in_range():
    assert checked_add(UINT_MAX - 1, 1) == UINT_MAX
    assert checked_sub(5, 5) == 0
    assert checked_mul(2**128 - 1, 2**128 - 1) < UINT_MAX


def test_checked_ops_revert_out_of_range():
    with pytest.raises(Revert):
        checked_add(UINT_MAX, 1)
    with pytest.raises(Revert):
        checked_sub(0, 1)
    with pytest.raises(Revert):
        checked_mul(2**128, 2**128)


def test_make_address_formatting():
    assert make_address(1) == "0x" + "0" * 39 + "1"
    assert make_address(0xA11CE).endswith("a11ce")
    assert len(make_address(2**160 - 1)) == 42
    with pytest.raises(ValueError):
        make_address(2**160)


# --- token ledger -------------------------------------------------------------


def test_zero_transfer_reverts():
    sc, state = build_world()
    usd = sc.token_address("USD")
    with pytest.raises(Revert, match="zero transfer"):
        token_transfer(ctx_for(state, sc.attacker), usd, sc.attacker, RECIPIENT, 0)


def test_fee_token_charges_on_top_into_burn_address():
    sc, state = build_world()
    fee = sc.token_address("FEE")
    pair = sc.pairs[0]["address"]
    recorder = []
    # transfer 90 with a balance of 100: fee = 90 * 100 // 1000 = 9 on top
    token_transfer(ctx_for(state, sc.attacker, recorder), fee, sc.attacker, pair, 90)
    assert state.balance_of(fee, sc.attacker) == 1
    assert state.balance_of(fee, pair) == 1_000_000 + 90
    assert state.balance_of(fee, BURN_ADDRESS) == 9
    assert [(e.dst, e.amount) for e in recorder] == [(pair, 90), (BURN_ADDRESS, 9)]


def test_fee_only_applies_toward_pairs():
    sc, state = build_world()
    fee = sc.token_address("FEE")
    token_transfer(ctx_for(state, sc.attacker), fee, sc.attacker, RECIPIENT, 90)
    assert state.balance_of(fee, sc.attacker) == 10
    assert state.balance_of(fee, BURN_ADDRESS) == 0


def test_transfer_beyond_balance_reverts_without_effect():
    sc, state = build_world()
    usd = sc.token_address("USD")
    before = dict(state.balances)
    with pytest.raises(Revert, match="underflow"):
        token_transfer(ctx_for(state, sc.attacker), usd, sc.attacker, RECIPIENT, 1_001)
    # set_balance of the recipient happens after the debit, so nothing moved
    assert state.balances == before


def test_mint_is_gated_and_tracked_in_supply():
    sc, state = build_world()
    usd = sc.token_address("USD")
    with pytest.raises(Revert, match="mint not allowed"):
        call_raw(ctx_for(state, sc.attacker), usd, "mint", (sc.attacker, 5))

    mintable = scenario_from_dict(
        {
            "name": "mint-fixture",
            "tokens": [{"symbol": "MNT", "public_mint": True}],
            "attacker": {},
            "pricing_tokens": ["MNT"],
        }
    )
    st2 = mintable.build_state()
    mnt = mintable.token_address("MNT")
    recorder = []
    call_raw(ctx_for(st2, mintable.attacker, recorder), mnt, "mint", (mintable.attacker, 7))
    assert st2.balance_of(mnt, mintable.attacker) == 7
    assert st2.supplies[mnt] == 7
    assert recorder[0].src == ZERO_ADDRESS


def test_public_burn_moves_third_party_holdings_to_burn_address():
    burnable = scenario_from_dict(
        {
            "name": "burn-fixture",
            "tokens": [{"symbol": "BRN", "public_burn": True, "holdings": {"burn": 0}}],
            "victims": [{"name": "holder", "balances": {"BRN": 500}}],
            "attacker": {},
            "pricing_tokens": ["BRN"],
        }
    )
    state = burnable.build_state()
    brn = burnable.token_address("BRN")
    holder = burnable.victims["holder"]
    call_raw(ctx_for(state, burnable.attacker), brn, "burn", (holder, 200))
    assert state.balance_of(brn, holder) == 300
    assert state.balance_of(brn, BURN_ADDRESS) == 200
    # modeled as a forced transfer: supply is conserved, holdings just move
    assert state.supplies[brn] == 500


def test_transfer_from_requires_and_consumes_allowance():
    sc, state = build_world()
    usd = sc.token_address("USD")
    spender = RECIPIENT
    with pytest.raises(Revert, match="insufficient allowance"):
        call_raw(ctx_for(state, spender), usd, "transferFrom", (sc.attacker, spender, 10))
    call_raw(ctx_for(state, sc.attacker), usd, "approve", (spender, 25))
    call_raw(ctx_for(state, spender), usd, "transferFrom", (sc.attacker, spender, 10))
    assert state.allowance(usd, sc.attacker, spender) == 15
    assert state.balance_of(usd, spender) == 10


# --- transaction execution ----------------------------------------------------


def test_reverted_transaction_is_atomic_and_sequence_continues():
    sc, state = build_world()
    usd = sc.token_address("USD")
    txs = [
        Transaction(sc.attacker, RawCall(usd, "transfer", (RECIPIENT, 10**9))),
        Transaction(sc.attacker, RawCall(usd, "transfer", (RECIPIENT, 40))),
    ]
    receipt = execute_sequence(state, txs)
    assert [o.ok for o in receipt.outcomes] == [False, True]
    assert receipt.outcomes[0].reason == "underflow"
    assert receipt.state.balance_of(usd, sc.attacker) == 960
    assert state.balance_of(usd, sc.attacker) == 1_000  # input state untouched


def test_repeat_expansion_keeps_successful_prefix():
    sc, state = build_world()
    usd = sc.token_address("USD")
    # balance 1000, four transfers of 400: two succeed, the third reverts,
    # the fourth short-circuits to the same revert
    tx = Transaction(sc.attacker, RawCall(usd, "transfer", (RECIPIENT, 400)), repeat=4)
    receipt = execute_sequence(state, [tx])
    assert [o.ok for o in receipt.outcomes] == [True, True, False, False]
    assert all(o.logical_index == 0 for o in receipt.outcomes)
    assert receipt.state.balance_of(usd, sc.attacker) == 200
    assert receipt.state.balance_of(usd, RECIPIENT) == 800
    assert len(receipt.events) == 2


def test_repeat_bounds_are_enforced():
    with pytest.raises(ValueError):
        Transaction("0x" + "00" * 20, RawCall("t", "f", ()), repeat=0)
    with pytest.raises(ValueError):
        Transaction("0x" + "00" * 20, RawCall("t", "f", ()), repeat=1001)


def test_sequence_length_cap():
    sc, state = build_world()
    usd = sc.token_address("USD")
    tx = Transaction(sc.attacker, RawCall(usd, "approve", (RECIPIENT, 1)))
    with pytest.raises(ValueError, match="exceeds max"):
        execute_sequence(state, [tx] * 17)
    execute_sequence(state, [tx] * 16)  # at the cap is fine


def test_native_value_moves_with_the_transaction():
    sc, state = build_world()
    usd = sc.token_address("USD")
    tx = Transaction(sc.attacker, RawCall(usd, "approve", (RECIPIENT, 1)), value=20)
    receipt = execute_sequence(state, [tx])
    assert receipt.outcomes[0].ok
    assert receipt.state.native_of(sc.attacker) == 30
    assert receipt.state.native_of(usd) == 20
    assert [(f.src, f.dst, f.amount) for f in receipt.native_flows] == [
        (sc.attacker, usd, 20)
    ]


def test_overpaying_native_value_reverts():
    sc, state = build_world()
    usd = sc.token_address("USD")
    tx = Transaction(sc.attacker, RawCall(usd, "approve", (RECIPIENT, 1)), value=51)
    receipt = execute_sequence(state, [tx])
    assert not receipt.outcomes[0].ok
    assert receipt.outcomes[0].reason == "insufficient native balance"
    assert receipt.state.native_of(sc.attacker) == 50


def test_snapshot_is_independent_of_the_original():
    sc, state = build_world()
    usd = sc.token_address("USD")
    snap = state.copy()
    token_transfer(ctx_for(state, sc.attacker), usd, sc.attacker, RECIPIENT, 10)
    assert snap.balance_of(usd, sc.attacker) == 1_000
    assert state.balance_of(usd, sc.attacker) == 990


# --- property tests -----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**64), st.integers(min_value=0, max_value=2**64))
def test_checked_add_matches_plain_addition_in_range(a, b):
    assert checked_add(a, b) == a + b


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2_000), min_size=1, max_size=8))
def test_transfer_conservation_under_random_amounts(amounts):
    sc, state = build_world()
    usd = sc.token_address("USD")
    supply = state.supplies[usd]
    rng = random.Random(42)
    holders = [sc.attacker, RECIPIENT, sc.pairs[0]["address"]]
    for amount in amounts:
        src, dst = rng.sample(holders, 2)
        try:
            token_transfer(ctx_for(state, src), usd, src, dst, amount)
        except Revert:
            pass
        held = sum(v for (t, _h), v in state.balances.items() if t == usd)
        assert held == supply == state.supplies[usd]
