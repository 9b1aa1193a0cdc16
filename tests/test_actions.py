"""Action lowering, random generation, and the sequence mutator's invariants."""

import random

import pytest

from popfuzz.actions import (
    ACTION_KINDS,
    A1_TRANSFER_PCT,
    A2_ROUTER_SWAP,
    MACRO,
    MAX_SEQUENCE_LEN,
    ActionSpec,
    TxSequence,
    log_uniform_uint,
    lower_action,
    mutate,
    random_action,
    random_amount,
    random_transaction,
    seed_sequence,
    splice,
)
from popfuzz.amm import ROUTER_ADDRESS
from popfuzz.scenarios import builtin_scenario
from popfuzz.world import RawCall, Transaction


@pytest.fixture(scope="module")
def burn_world():
    sc = builtin_scenario("public_burn")
    return sc, sc.build_state(), sc.universe()


@pytest.fixture(scope="module")
def vault_world():
    sc = builtin_scenario("rounding_vault")
    return sc, sc.build_state(), sc.universe()


# --- lowering -----------------------------------------------------------------


def test_action_percentage_is_validated():
    with pytest.raises(ValueError):
        ActionSpec(A1_TRANSFER_PCT, percentage=101)
    with pytest.raises(ValueError):
        ActionSpec(A1_TRANSFER_PCT, percentage=-1)


def test_transfer_pct_lowers_against_live_balance(burn_world):
    sc, state, _ = burn_world
    usd = sc.token_address("USD")
    spec = ActionSpec(A1_TRANSFER_PCT, token=usd, target=usd, percentage=50)
    calls = lower_action(spec, state, sc.attacker)
    # attacker starts with 10**17 USD
    assert calls == [RawCall(usd, "transfer", (usd, 5 * 10**16))]


def test_router_swap_lowers_to_approve_then_swap(burn_world):
    sc, state, _ = burn_world
    usd, brn = sc.token_address("USD"), sc.token_address("BRN")
    spec = ActionSpec(A2_ROUTER_SWAP, token=usd, token2=brn, percentage=100)
    approve_call, swap_call = lower_action(spec, state, sc.attacker)
    assert approve_call == RawCall(usd, "approve", (ROUTER_ADDRESS, 10**17))
    assert swap_call == RawCall(ROUTER_ADDRESS, "swapExactIn", (usd, brn, 10**17))


def test_zero_balance_lowers_to_zero_amount(burn_world):
    sc, state, _ = burn_world
    brn = sc.token_address("BRN")
    spec = ActionSpec(A1_TRANSFER_PCT, token=brn, target=brn, percentage=100)
    (call,) = lower_action(spec, state, sc.attacker)
    assert call.args[1] == 0  # executes as a zero transfer, which reverts


def test_macro_lowering_substitutes_parameters(vault_world):
    sc, state, _ = vault_world
    usd = sc.token_address("USD")
    spec = ActionSpec(MACRO, macro="vault_seed", args=(7, 9))
    calls = lower_action(spec, state, sc.attacker)
    vrouter = sc.addresses["vrouter"]
    vault = sc.addresses["vault"]
    assert calls == [
        RawCall(usd, "approve", (vrouter, 7)),
        RawCall(vrouter, "buyLongToken", (7,)),
        RawCall(usd, "transfer", (vault, 9)),
    ]


# --- random generation ----------------------------------------------------------


def test_log_uniform_stays_in_range():
    rng = random.Random(3)
    draws = [log_uniform_uint(rng) for _ in range(5_000)]
    assert all(0 <= d < 2**256 for d in draws)
    # the magnitude bias must actually produce small numbers, not just huge ones
    assert sum(1 for d in draws if d < 2**64) > 1_000


def test_random_amount_uses_scenario_anchors(burn_world):
    _, _, universe = burn_world
    rng = random.Random(5)
    top = max(universe.amount_anchors)
    anchored = sum(
        1 for _ in range(5_000) if 0 < random_amount(rng, universe) <= top
    )
    # ~30% anchored draws plus whatever log-uniform lands there by chance
    assert anchored > 1_000


def test_action_kind_coverage(burn_world):
    _, _, universe = burn_world
    rng = random.Random(7)
    seen = {random_action(rng, universe).kind for _ in range(2_000)}
    assert seen.issuperset(ACTION_KINDS)


def test_macro_actions_are_drawn_where_defined(vault_world):
    _, _, universe = vault_world
    rng = random.Random(9)
    seen = {random_action(rng, universe).kind for _ in range(500)}
    assert MACRO in seen


def test_seed_sequence_shape(burn_world):
    _, _, universe = burn_world
    rng = random.Random(11)
    seq = seed_sequence(rng, universe)
    assert len(seq) == 1
    assert seq.pricing_token == universe.pricing_tokens[0]


# --- mutation closure -----------------------------------------------------------


def _check_tx(tx, universe, noact):
    assert isinstance(tx, Transaction)
    assert 1 <= tx.repeat <= 1000
    assert tx.sender == universe.attacker
    if noact:
        assert isinstance(tx.kind, RawCall)


def test_mutation_closure_over_many_steps(burn_world):
    """10**5 mutation steps never leave the sequence invariants."""
    _, _, universe = burn_world
    rng = random.Random(13)
    seq = seed_sequence(rng, universe)
    for _ in range(100_000):
        seq = mutate(seq, rng, universe)
        assert 1 <= len(seq) <= MAX_SEQUENCE_LEN
        assert seq.pricing_token in universe.pricing_tokens
    for tx in seq.txs:
        _check_tx(tx, universe, noact=False)


def test_mutation_closure_in_raw_call_mode(burn_world):
    _, _, universe = burn_world
    rng = random.Random(17)
    seq = seed_sequence(rng, universe, noact=True)
    for _ in range(10_000):
        seq = mutate(seq, rng, universe, noact=True)
        assert 1 <= len(seq) <= MAX_SEQUENCE_LEN
        for tx in seq.txs:
            _check_tx(tx, universe, noact=True)


def test_mutation_reaches_every_operator(burn_world):
    _, _, universe = burn_world
    rng = random.Random(19)
    seq = seed_sequence(rng, universe)
    lengths = set()
    pricing = set()
    for _ in range(2_000):
        seq = mutate(seq, rng, universe)
        lengths.add(len(seq))
        pricing.add(seq.pricing_token)
    assert len(lengths) > 3  # inserts and deletes both fired
    assert pricing == set(universe.pricing_tokens)  # pricing mutation fired


def test_random_transactions_mix_raw_and_actions(burn_world):
    _, _, universe = burn_world
    rng = random.Random(23)
    kinds = [type(random_transaction(rng, universe, False).kind) for _ in range(2_000)]
    assert kinds.count(RawCall) > 200
    assert kinds.count(RawCall) < 800  # raw calls are the minority mix


# --- splice ---------------------------------------------------------------------


def test_splice_combines_prefix_and_suffix(burn_world):
    _, _, universe = burn_world
    rng = random.Random(29)
    a = seed_sequence(rng, universe)
    b = seed_sequence(rng, universe)
    for _ in range(50):
        a = mutate(a, rng, universe)
        b = mutate(b, rng, universe)
    pool = {id(t) for t in a.txs} | {id(t) for t in b.txs}
    for _ in range(500):
        child = splice(a, b, rng)
        assert 1 <= len(child) <= MAX_SEQUENCE_LEN
        assert child.pricing_token == a.pricing_token
        assert all(id(t) in pool for t in child.txs)
