"""The call table against the dispatch it replaced (`reference_dispatch.py`).

A call whose arity and argument types match a table entry must return or
revert exactly as before, with the same events and the same final state. Any
other call must revert in both, leaving the state unchanged. The mutator's
surface, derived from the table, must equal the hand-built list it replaced.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_dispatch
from popfuzz.actions import (
    LoweredPairSwap,
    lower_action,
    random_action,
    random_raw_call,
    random_transaction,
)
from popfuzz.amm import ROUTER_ADDRESS
from popfuzz.runtime import ADDRESS, CALL_TABLE, UINT, call_raw, is_contract_kind
from popfuzz.scenarios import builtin_names, builtin_scenario, scenario_from_dict
from popfuzz.world import UINT_MAX, CallContext, Revert, execute_sequence, make_address

UNKNOWN = make_address(0xD00D)

# mint/burn tokens (one with both hooks), two pairs and every contract kind
EVERY_KIND = {
    "name": "every_kind",
    "tokens": [
        {"symbol": "USD"},
        {"symbol": "MNT", "public_mint": True},
        {"symbol": "BRN", "public_burn": True},
        {"symbol": "HKS", "public_mint": True, "public_burn": True},
    ],
    "pairs": [
        {"tokens": ["MNT", "USD"], "reserves": [10**6, 10**6]},
        {"tokens": ["USD", "BRN"], "reserves": [10**6, 10**6]},
    ],
    "contracts": [
        {"name": "sale", "kind": "token_sale", "params": {"token": "MNT", "price": 10},
         "holdings": {"MNT": 10**6}},
        {"name": "vault", "kind": "vault", "params": {"token": "USD"}},
        {"name": "vrouter", "kind": "vault_router", "params": {"vault": "vault"}},
        {"name": "pool", "kind": "staking", "params": {"token": "USD"}, "holdings": {"USD": 10**6}},
    ],
    "attacker": {"balances": {"USD": 10**5, "BRN": 10**5}, "native": 10**6},
    "pricing_tokens": ["USD"],
}

_SCENARIOS = {
    name: builtin_scenario(name) for name in builtin_names() + ["fair_pool", "staking_id"]
}
_SCENARIOS["every_kind"] = scenario_from_dict(EVERY_KIND)
ALL_SCENARIOS = tuple(_SCENARIOS)
_BASES = {name: sc.build_state() for name, sc in _SCENARIOS.items()}
_UNIVERSES = {name: sc.universe() for name, sc in _SCENARIOS.items()}
FUNCTIONS = sorted({fn for table in CALL_TABLE.values() for fn in table})


def _targets(name: str) -> list:
    base = _BASES[name]
    return sorted(base.tokens) + [ROUTER_ADDRESS] + sorted(base.pairs) + sorted(
        base.contracts
    ) + [UNKNOWN]


def _entry(state, target, fn):
    """The table entry a call resolves to, found without `call_raw`."""
    if target in state.tokens:
        kind = "token"
    elif target == ROUTER_ADDRESS:
        kind = "router"
    elif target in state.pairs:
        kind = "pair"
    elif target in state.contracts:
        kind = state.contracts[target].kind
    else:
        return None
    return CALL_TABLE[kind].get(fn)


def _well_typed(state, target, fn, args) -> bool:
    entry = _entry(state, target, fn)
    if entry is None or len(args) != len(entry.arg_types):
        return False
    if entry.flag is not None and not getattr(state.tokens[target], entry.flag):
        return False
    return all(
        isinstance(a, str) if t == ADDRESS else type(a) is int and 0 <= a <= UINT_MAX
        for a, t in zip(args, entry.arg_types)
    )


def _run(dispatch, state, sender, value, target, fn, args):
    """One call on a journaled copy of `state`, rolled back if it reverts."""
    work = state.copy()
    work.journal = []
    events = []
    try:
        ctx = CallContext(work, sender, value, 0, events)
        outcome = ("returned", dispatch(ctx, target, fn, args))
    except Revert as exc:
        work.rollback()
        outcome = ("reverted", exc.reason)
    work.journal = None
    return outcome, events, work


def _check_call(state, sender, value, target, fn, args):
    """Run a call both ways and compare; returns the outcome and the state after."""
    got = _run(call_raw, state, sender, value, target, fn, args)
    want = _run(reference_dispatch.call_raw, state, sender, value, target, fn, args)
    if _well_typed(state, target, fn, args):
        assert got == want
    else:
        assert got[0][0] == want[0][0] == "reverted", (got[0], want[0])
        assert got[2] == want[2] == state
    return got[0], got[2]


def _state_after_prefix(name: str, seed: int, length: int):
    """A state reached by a few random mutator transactions, so that calls
    meet balances, allowances, LP positions and vault shares."""
    rng = random.Random(seed)
    txs = [random_transaction(rng, _UNIVERSES[name], False) for _ in range(length)]
    return execute_sequence(_BASES[name], txs).state


def _argument(name):
    return st.one_of(
        st.integers(min_value=-(2**257), max_value=2**257),
        st.integers(min_value=0, max_value=10**6),
        st.booleans(),
        st.text(max_size=8),
        st.sampled_from(_UNIVERSES[name].addresses),
    )


def _typed_argument(name, arg_type):
    if arg_type == ADDRESS:
        return st.sampled_from(_UNIVERSES[name].addresses)
    return st.one_of(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(_UNIVERSES[name].amount_anchors or (1,)),
        st.integers(min_value=0, max_value=UINT_MAX),
        st.sampled_from((0, 1, UINT_MAX)),
    )


@st.composite
def _case(draw):
    name = draw(st.sampled_from(ALL_SCENARIOS))
    state = _state_after_prefix(name, draw(st.integers(0, 2**32)), draw(st.integers(0, 3)))
    target = draw(st.sampled_from(_targets(name)))
    fn = draw(st.sampled_from(FUNCTIONS))
    entry = _entry(state, target, fn)
    if entry is not None and draw(st.booleans()):
        args = tuple(draw(_typed_argument(name, t)) for t in entry.arg_types)
    else:
        args = tuple(draw(st.lists(_argument(name), min_size=0, max_size=4)))
    sender = draw(st.sampled_from((_SCENARIOS[name].attacker,) + _UNIVERSES[name].addresses))
    value = draw(st.sampled_from((0, 0, 1, 10**30)))
    return state, sender, value, target, fn, args


@settings(max_examples=1500, deadline=None)
@given(_case())
def test_table_dispatch_matches_reference(case):
    _check_call(*case)


def test_mutator_calls_match_reference():
    """The mutator's raw calls, and the calls its actions lower to, run in
    chains so that an approve can enable the swap after it, half of them from
    states where the attacker has approved every spender. Enough of them
    succeed to exercise every handler's body."""
    returned = set()
    for name in ALL_SCENARIOS:
        rng = random.Random(name)
        universe = _UNIVERSES[name]
        attacker = _SCENARIOS[name].attacker
        for i in range(150):
            state = _state_after_prefix(name, i, i % 4)
            if i % 2:  # let router and contract pulls succeed
                for token in state.tokens:
                    for spender in [ROUTER_ADDRESS, *state.contracts]:
                        state.set_allowance(token, attacker, spender, UINT_MAX)
            for _ in range(8):
                if rng.random() < 0.5:
                    tx = random_raw_call(rng, universe, uniform_args=rng.random() < 0.2)
                    calls, value = [tx.kind], tx.value
                    assert _well_typed(state, tx.kind.target, tx.kind.fn, tx.kind.args)
                else:
                    calls, value = lower_action(random_action(rng, universe), state, attacker), 0
                for call in calls:
                    if isinstance(call, LoweredPairSwap):
                        continue
                    outcome, state = _check_call(
                        state, attacker, value, call.target, call.fn, call.args
                    )
                    if outcome[0] == "returned":
                        returned.add(call.fn)
    assert returned >= {
        "transfer", "approve", "mint", "burn", "swapExactIn", "addLiquidity", "removeLiquidity",
        "swap", "sync", "skim", "buyTokens", "buyLongToken", "sellAllLongToken", "stake",
    }


_BAD_ARGUMENTS = {ADDRESS: (7, True, None), UINT: (-1, UINT_MAX + 1, True, "1", None)}


def test_each_mistyped_argument_reverts_with_its_reason():
    """Every entry, on every target of its kind: a call whose one mistyped
    argument is the only fault reverts as `bad address` or `bad amount`."""
    for name in ALL_SCENARIOS:
        base, attacker = _BASES[name], _SCENARIOS[name].attacker
        good = {ADDRESS: attacker, UINT: 1}
        for target in _targets(name):
            for fn in FUNCTIONS:
                entry = _entry(base, target, fn)
                if entry is None or not _well_typed(
                    base, target, fn, tuple(good[t] for t in entry.arg_types)
                ):
                    continue
                for i, arg_type in enumerate(entry.arg_types):
                    for bad in _BAD_ARGUMENTS[arg_type]:
                        args = tuple(
                            bad if j == i else good[t] for j, t in enumerate(entry.arg_types)
                        )
                        outcome, _ = _check_call(base, attacker, 0, target, fn, args)
                        reason = "bad address" if arg_type == ADDRESS else "bad amount"
                        assert outcome == ("reverted", reason), (name, fn, args)


def test_surface_matches_the_hand_built_list():
    """The surface, and the amount anchors: these come from every declared
    uint parameter above 0, which on these scenarios is the set the fixed
    `price` and `unit` keys give, so a seeded campaign draws the same amounts."""
    kinds = {cd["kind"] for cd in _SCENARIOS["every_kind"].contracts}
    assert kinds == {k for k in CALL_TABLE if is_contract_kind(k)}
    for name, sc in _SCENARIOS.items():
        assert list(_UNIVERSES[name].surface) == reference_dispatch.reference_surface(sc), name
        assert _UNIVERSES[name].amount_anchors == reference_dispatch.reference_anchors(sc), name


def test_contract_kinds_are_validated_against_the_table():
    assert all(is_contract_kind(k) for k in ("token_sale", "vault", "vault_router", "staking"))
    for kind in ("token", "router", "pair", "nope", ["vault"], None, 3):
        assert not is_contract_kind(kind)
