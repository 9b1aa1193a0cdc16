"""The executor's exception boundary: a call of any arity and argument types,
to any target, and a macro action with any name and argument count, either
completes or reverts. No other exception may escape `execute_sequence`."""

from hypothesis import given, settings
from hypothesis import strategies as st

from popfuzz.actions import MACRO, ActionSpec
from popfuzz.amm import ROUTER_ADDRESS
from popfuzz.runtime import CALL_TABLE
from popfuzz.scenarios import builtin_names, builtin_scenario
from popfuzz.world import RawCall, Transaction, execute_sequence, make_address

ALL_SCENARIOS = tuple(builtin_names()) + ("fair_pool", "staking_id")
UNKNOWN = make_address(0xD00D)

_SCENARIOS = {name: builtin_scenario(name) for name in ALL_SCENARIOS}
_BASES = {name: sc.build_state() for name, sc in _SCENARIOS.items()}
_UNIVERSES = {name: sc.universe() for name, sc in _SCENARIOS.items()}

FUNCTIONS = sorted({fn for table in CALL_TABLE.values() for fn in table} | {"nope"})
MACRO_NAMES = sorted(
    {m.name for u in _UNIVERSES.values() for m in u.macros} | {"", "no_such_macro"}
)


def _targets(name: str) -> list:
    base = _BASES[name]
    return sorted(base.tokens) + [ROUTER_ADDRESS] + sorted(base.pairs) + sorted(
        base.contracts
    ) + [UNKNOWN]


def _argument(name):
    return st.one_of(
        st.integers(min_value=-(2**257), max_value=2**257),
        st.integers(min_value=0, max_value=10**6),
        st.booleans(),
        st.text(max_size=8),
        st.sampled_from(_UNIVERSES[name].addresses),
    )


@st.composite
def _call(draw):
    name = draw(st.sampled_from(ALL_SCENARIOS))
    args = tuple(draw(st.lists(_argument(name), min_size=0, max_size=4)))
    if draw(st.booleans()):
        kind = RawCall(draw(st.sampled_from(_targets(name))), draw(st.sampled_from(FUNCTIONS)), args)
    else:
        kind = ActionSpec(MACRO, macro=draw(st.sampled_from(MACRO_NAMES)), args=args)
    value = draw(st.sampled_from((0, 0, 1, 10**30)))
    return name, Transaction(_SCENARIOS[name].attacker, kind, value=value)


@settings(max_examples=1500, deadline=None)
@given(_call())
def test_any_call_completes_or_reverts(case):
    name, tx = case
    receipt = execute_sequence(_BASES[name], [tx])
    (outcome,) = receipt.outcomes
    if not outcome.ok:
        assert receipt.state == _BASES[name]


def test_malformed_calls_revert_with_their_reason():
    sc = _SCENARIOS["rounding_vault"]
    base = _BASES["rounding_vault"]
    usd = sc.token_address("USD")
    calls = [
        (RawCall(usd, "transfer", (sc.attacker, 1, 2)), "bad args"),
        (RawCall(usd, "approve", (sc.attacker,)), "bad args"),
        (RawCall(usd, "transfer", (7, 1)), "bad address"),
        (RawCall(usd, "balanceOf", (True,)), "bad address"),
        (RawCall(usd, "balanceOf", ()), "bad args"),
        (RawCall(usd, "totalSupply", (sc.attacker,)), "bad args"),
        (ActionSpec(MACRO, macro="no_such_macro"), "unknown macro"),
        (ActionSpec(MACRO, macro="vault_seed", args=(5,)), "bad args"),
        (ActionSpec(MACRO, macro="vault_exit", args=(5,)), "bad args"),
    ]
    for kind, reason in calls:
        (outcome,) = execute_sequence(base, [Transaction(sc.attacker, kind)]).outcomes
        assert (outcome.ok, outcome.reason) == (False, reason), kind

