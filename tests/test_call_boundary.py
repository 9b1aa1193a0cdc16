"""The executor's exception boundary: a call of any arity and argument types,
to any target, and a macro action with any name and argument count, either
completes or reverts. No other exception may escape `execute_sequence`. A
scenario whose contract parameters are dropped, mistyped, renamed or left
unresolved is either rejected at load or runs a campaign that raises nothing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from popfuzz.actions import MACRO, ActionSpec
from popfuzz.amm import ROUTER_ADDRESS
from popfuzz.engine import CampaignConfig, run_campaign, verify_result
from popfuzz.runtime import CALL_TABLE, CONTRACT_KINDS, SYMBOL, UINT
from popfuzz.scenarios import ScenarioError, builtin_names, builtin_scenario, scenario_from_dict
from popfuzz.world import UINT_MAX, RawCall, Transaction, execute_sequence, make_address

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


def test_parameters_that_break_a_handler_revert_its_calls():
    """Well-typed parameters a handler cannot use: a sale whose unit is 0, and
    a vault router whose vault is a staking pool."""
    sc = scenario_from_dict({
        "name": "odd_params",
        "tokens": [{"symbol": "USD"}],
        "contracts": [
            {"name": "sale", "kind": "token_sale", "params": {"token": "USD", "price": 1,
                                                              "unit": 0}},
            {"name": "pool", "kind": "staking", "params": {"token": "USD"}},
            {"name": "vrouter", "kind": "vault_router", "params": {"vault": "pool"}},
        ],
        "attacker": {"balances": {"USD": 100}},
        "pricing_tokens": ["USD"],
    })
    base = sc.build_state()
    calls = [
        (RawCall(sc.addresses["sale"], "buyTokens", (5,)), "division by zero"),
        (RawCall(sc.addresses["vrouter"], "buyLongToken", (5,)), "no vault"),
        (RawCall(sc.addresses["vrouter"], "sellAllLongToken", ()), "no vault"),
    ]
    for kind, reason in calls:
        (outcome,) = execute_sequence(base, [Transaction(sc.attacker, kind)]).outcomes
        assert (outcome.ok, outcome.reason) == (False, reason), kind


# --- whole scenarios ------------------------------------------------------------

_GOOD_UINT = st.sampled_from((0, 1, 10, 10**9, 10**18, UINT_MAX))
_BAD_UINT = st.sampled_from((-1, UINT_MAX + 1, True, "10", "USD", 1.5, None, [1]))
_NOT_A_NAME = st.sampled_from((7, True, None, 1.5, [1]))


@st.composite
def _scenario_doc(draw):
    """A scenario with contracts of the declared kinds, each parameter set
    well, dropped, mistyped, renamed or left unresolved. Returns the document
    and whether it holds a fault that must fail the load."""
    kinds = draw(st.lists(st.sampled_from(sorted(CONTRACT_KINDS)), min_size=1, max_size=3))
    names = [f"c{i}" for i in range(len(kinds))]
    any_name = st.sampled_from(names + ["USD", "TKN", "attacker", "burn", "router", "pool"])
    # half the documents hold only good or defaulted parameters, so they load and run
    clean = draw(st.booleans())
    ways = ("good", "dropped", "mistyped", "renamed", "unresolved")
    faulty = False
    contracts = []
    for cname, kind in zip(names, kinds):
        params = {}
        for key, param in CONTRACT_KINDS[kind].params.items():
            how = draw(st.sampled_from(ways))
            if clean:
                how = "dropped" if how == "dropped" and param.default is not None else "good"
            if how == "dropped":
                faulty |= param.default is None
                continue
            if param.type == UINT:  # a uint is never a name, so unresolved is mistyped
                value = draw(_BAD_UINT if how in ("mistyped", "unresolved") else _GOOD_UINT)
            elif how in ("good", "renamed"):
                value = draw(st.sampled_from(("USD", "TKN")) if param.type == SYMBOL else any_name)
            elif how == "mistyped":
                value = draw(_NOT_A_NAME)
            else:  # unresolved: a name of no token, or of nothing
                unknown = ("SLTX", "attacker", "c0") if param.type == SYMBOL else ("nowhere",)
                value = draw(st.sampled_from(unknown))
            faulty |= how != "good"
            params[key + "_x" if how == "renamed" else key] = value
        symbols = ("USD", "TKN") if clean else ("USD", "TKN", "GONE")
        holdings = draw(st.dictionaries(st.sampled_from(symbols), st.integers(0, 10**6),
                                        max_size=2))
        faulty |= "GONE" in holdings
        contracts.append({"name": cname, "kind": kind, "params": params, "holdings": holdings})
    doc = {
        "name": "declared_kinds",
        "tokens": [{"symbol": "USD"}, {"symbol": "TKN", "public_mint": draw(st.booleans())}],
        "pairs": [{"name": "pool", "tokens": ["TKN", "USD"], "reserves": [10**6, 10**6]}],
        "contracts": contracts,
        "attacker": {"balances": {"USD": 10**5, "TKN": 10**5}, "native": 10**6},
        "pricing_tokens": ["USD"],
    }
    return doc, faulty


@settings(max_examples=60, deadline=None)
@given(_scenario_doc(), st.integers(min_value=1, max_value=2**16))
def test_any_declared_scenario_is_rejected_or_runs(case, seed):
    doc, faulty = case
    try:
        scenario = scenario_from_dict(doc)
    except ScenarioError:
        assert faulty, doc
        return
    assert not faulty, doc
    config = CampaignConfig(seed=seed, iterations=40, sgd_budget=40, sgd_total_budget=80)
    verify_result(scenario, run_campaign(scenario, config))
