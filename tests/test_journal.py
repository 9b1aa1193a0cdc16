"""The journaled executor: a differential test against the whole-state-copy
reference executor, unit tests that a repeat which writes and then reverts
leaves the world exactly as the successful prefix left it, and the early exit
at the first dead attacker transaction against the full run."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from popfuzz.actions import A4_PAIR_SWAP, ActionSpec, TxSequence, random_transaction
from popfuzz.scenarios import builtin_names, builtin_scenario, merge_victim_txs, scenario_from_dict
from popfuzz.world import RawCall, Transaction, execute_sequence, make_address
from reference_executor import execute_sequence_reference

ALL_SCENARIOS = tuple(builtin_names()) + ("fair_pool", "staking_id")
RECIPIENT = make_address(0xBEEF)

_SCENARIOS = {name: builtin_scenario(name) for name in ALL_SCENARIOS}
_BASES = {name: sc.build_state() for name, sc in _SCENARIOS.items()}
_UNIVERSES = {name: sc.universe() for name, sc in _SCENARIOS.items()}


def _outcome_rows(receipt):
    return [(o.ok, o.reason, o.logical_index) for o in receipt.outcomes]


def _fully_reverted(seq, receipt):
    """True if some attacker transaction never succeeded in any repeat."""
    succeeded = {o.logical_index for o in receipt.outcomes if o.ok and o.logical_index >= 0}
    return any(i not in succeeded for i in range(len(seq.txs)))


def assert_same_receipt(got, want):
    assert _outcome_rows(got) == _outcome_rows(want)
    assert got.events == want.events
    assert got.native_flows == want.native_flows
    assert got.pair_checks == want.pair_checks
    assert got.state == want.state
    assert got.state.journal is None


# --- differential test ----------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(ALL_SCENARIOS),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=16),
    st.booleans(),
)
def test_journaled_executor_matches_reference(name, seed, length, noact):
    scenario, base, universe = _SCENARIOS[name], _BASES[name], _UNIVERSES[name]
    rng = random.Random(seed)
    attacker_txs = [random_transaction(rng, universe, noact) for _ in range(length)]
    txs, logical = merge_victim_txs(attacker_txs, scenario.victim_txs)
    want = execute_sequence_reference(base, txs, 16, logical)
    got = execute_sequence(base, txs, 16, logical)
    assert_same_receipt(got, want)
    assert base == _SCENARIOS[name].build_state()  # the input state is untouched


# --- reverted repeats leave the successful prefix ---------------------------------


def _check_revert_leaves_prefix(base, prefix, reverting, reason):
    """`prefix` + `reverting` ends in the prefix's state and events, and every
    repeat of the reverting transaction reports `reason`."""
    receipt = execute_sequence(base, prefix + [reverting])
    after_prefix = execute_sequence(base, prefix)
    tail = receipt.outcomes[len(after_prefix.outcomes):]
    assert [o.reason for o in tail] == [reason] * reverting.repeat
    assert receipt.state == after_prefix.state
    assert receipt.events == after_prefix.events
    assert receipt.pair_checks == after_prefix.pair_checks
    assert_same_receipt(receipt, execute_sequence_reference(base, prefix + [reverting]))
    return receipt


def test_vault_buy_without_allowance_restores_shares():
    sc = builtin_scenario("rounding_vault")
    base = sc.build_state()
    usd = sc.token_address("USD")
    vault, vrouter = (c["address"] for c in sc.contracts)
    approve = Transaction(sc.attacker, RawCall(usd, "approve", (vrouter, 10)))
    # two buys of 5 use up the allowance; the third writes total_shares and
    # the share balance in _vault_buy, then reverts on the allowance check
    buy = Transaction(sc.attacker, RawCall(vrouter, "buyLongToken", (5,)), repeat=3)
    receipt = execute_sequence(base, [approve, buy])
    assert [o.ok for o in receipt.outcomes] == [True, True, True, False]
    assert receipt.outcomes[-1].reason == "insufficient allowance"
    storage = receipt.state.contracts[vault].storage
    assert storage["total_shares"] == 10
    assert storage[("share", sc.attacker)] == 10
    prefix = execute_sequence(base, [approve, Transaction(sc.attacker, buy.kind, repeat=2)])
    assert receipt.state == prefix.state
    assert receipt.events == prefix.events
    assert_same_receipt(receipt, execute_sequence_reference(base, [approve, buy]))


def test_flashloan_failing_k_check_restores_body_transfers():
    sc = builtin_scenario("fair_pool")
    base = sc.build_state()
    usd = sc.token_address("USD")
    pair = next(iter(base.pairs.values()))
    assert pair.token0 == usd
    borrow = pair.reserve0 // 100
    # the body pays a third party, then repays exactly the loan: no fee, so
    # the fee-adjusted k check fails after the body's transfers ran
    body = (
        Transaction(sc.attacker, RawCall(usd, "transfer", (RECIPIENT, 7))),
        Transaction(sc.attacker, RawCall(usd, "transfer", (pair.address, borrow))),
    )
    flashloan = ActionSpec(A4_PAIR_SWAP, target=pair.address, percentage=1,
                           direction="flashloan", side=0, body=body)
    prefix = [Transaction(sc.attacker, RawCall(usd, "transfer", (RECIPIENT, 100)))]
    receipt = _check_revert_leaves_prefix(
        base, prefix, Transaction(sc.attacker, flashloan, repeat=2), "K"
    )
    assert receipt.state.balance_of(usd, RECIPIENT) == 100
    assert receipt.state.pairs[pair.address] == base.pairs[pair.address]


def test_pair_burn_revert_restores_lp_supply():
    # FEE charges 10% on top in both directions, so paying out 99% of the
    # pool's FEE side overdraws the pair: burn reverts after it zeroed the
    # pair's LP balance, cut lp_supply and the LP token's supply, and paid
    # out the USD side
    sc = scenario_from_dict(
        {
            "name": "burn-revert-fixture",
            "tokens": [
                {"symbol": "USD"},
                {"symbol": "FEE", "fee": {"rate": 100, "direction": "both"}},
            ],
            "pairs": [{"tokens": ["FEE", "USD"], "reserves": [1_000, 1_000]}],
            "attacker": {"balances": {"USD": 1_000_000, "FEE": 1_000_000}},
            "pricing_tokens": ["USD"],
        }
    )
    base = sc.build_state()
    usd, fee = sc.token_address("USD"), sc.token_address("FEE")
    pair = next(iter(base.pairs.values()))
    assert (pair.token0, pair.token1) == (usd, fee)

    def call(target, fn, *args):
        return Transaction(sc.attacker, RawCall(target, fn, args))

    prefix = [
        call(fee, "transfer", pair.address, 100_000),
        call(usd, "transfer", pair.address, 100_000),
        call(pair.address, "mint", sc.attacker),
        call(pair.lp_token, "transfer", pair.address, 100_000),
    ]
    after_prefix = execute_sequence(base, prefix)
    assert all(o.ok for o in after_prefix.outcomes)
    receipt = _check_revert_leaves_prefix(
        base, prefix, call(pair.address, "burn", sc.attacker), "underflow"
    )
    restored = receipt.state.pairs[pair.address]
    assert restored.lp_supply == 101_000
    assert receipt.state.supplies[pair.lp_token] == 101_000
    assert receipt.state.balance_of(pair.lp_token, pair.address) == 100_000


def test_unstake_revert_restores_deleted_stake():
    # the pool holds only the stake itself, so paying out 101% of it
    # overdraws the pool after unstake deleted the stake record
    sc = scenario_from_dict(
        {
            "name": "unstake-revert-fixture",
            "tokens": [{"symbol": "USD"}],
            "contracts": [{"name": "pool", "kind": "staking", "params": {"token": "USD"}}],
            "attacker": {"balances": {"USD": 10_000}},
            "pricing_tokens": ["USD"],
        }
    )
    base = sc.build_state()
    usd = sc.token_address("USD")
    pool = sc.contracts[0]["address"]
    stake_id = 97531  # the id of the pool's first stake
    prefix = [
        Transaction(sc.attacker, RawCall(usd, "approve", (pool, 10_000))),
        Transaction(sc.attacker, RawCall(pool, "stake", (10_000,))),
    ]
    receipt = _check_revert_leaves_prefix(
        base, prefix, Transaction(sc.attacker, RawCall(pool, "unstake", (stake_id,))), "underflow"
    )
    assert receipt.state.contracts[pool].storage[("stake", stake_id)] == (sc.attacker, 10_000)


# --- early exit at the first dead attacker transaction -----------------------------


def _assert_prefix_receipt(early, full):
    for name in ("events", "native_flows", "pair_checks"):
        got, want = getattr(early, name), getattr(full, name)
        assert got == want[: len(got)], name
    assert _outcome_rows(early) == _outcome_rows(full)[: len(early.outcomes)]


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(ALL_SCENARIOS),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=16),
    st.booleans(),
)
def test_early_exit_matches_full_run(name, seed, length, noact):
    scenario, base, universe = _SCENARIOS[name], _BASES[name], _UNIVERSES[name]
    rng = random.Random(seed)
    attacker_txs = [random_transaction(rng, universe, noact) for _ in range(length)]
    seq = TxSequence(attacker_txs, universe.pricing_tokens[0])
    txs, logical = merge_victim_txs(attacker_txs, scenario.victim_txs)
    full = execute_sequence(base, txs, 16, logical)
    early = execute_sequence(base, txs, 16, logical, stop_at_dead=True)
    victim_repeats = sum(v.tx.repeat for v in scenario.victim_txs)
    assert len(full.outcomes) == victim_repeats + sum(tx.repeat for tx in attacker_txs)
    assert early.state.journal is None
    dead = _fully_reverted(seq, full)
    assert _fully_reverted(seq, early) == dead
    assert full.dead == early.dead == dead
    if not dead:
        assert_same_receipt(early, full)
        return
    _assert_prefix_receipt(early, full)
    # the run stopped right after the first attacker transaction whose first
    # repeat reverted, in the state that the transactions before it left
    last = early.outcomes[-1]
    assert not last.ok and last.logical_index >= 0
    stop = logical.index(last.logical_index)
    assert len(early.outcomes) == sum(tx.repeat for tx in txs[: stop + 1])
    upto = execute_sequence(base, txs[: stop + 1], 16, logical[: stop + 1])
    assert_same_receipt(early, upto)


def test_early_exit_passes_victim_reverts_and_later_repeat_reverts():
    sc = builtin_scenario("fair_pool")
    base = sc.build_state()
    usd = sc.token_address("USD")
    have = base.balance_of(usd, sc.attacker)
    dead = Transaction(sc.attacker, RawCall(usd, "transfer", (RECIPIENT, have + 1)))
    # the first repeat moves most of the balance, the second overdraws
    drain = Transaction(sc.attacker, RawCall(usd, "transfer", (RECIPIENT, have - 2)), repeat=2)
    ok = Transaction(sc.attacker, RawCall(usd, "transfer", (RECIPIENT, 1)))
    txs = [dead, drain, ok, dead, ok]
    logical = [-1, 0, 1, 2, 3]
    full = execute_sequence(base, txs, 16, logical)
    early = execute_sequence(base, txs, 16, logical, stop_at_dead=True)
    assert [o.ok for o in full.outcomes] == [False, True, False, True, False, True]
    # neither the victim's revert nor drain's second repeat stops the run
    assert [o.ok for o in early.outcomes] == [False, True, False, True, False]
    assert early.outcomes[-1].logical_index == 2
    _assert_prefix_receipt(early, full)
    assert early.state.balance_of(usd, RECIPIENT) == have - 1
    assert early.state.journal is None
