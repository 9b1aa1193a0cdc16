"""Scenario corpus: building, validation diagnostics, file loading, victim
interleaving, and the independent ground-truth optima."""

import textwrap

import pytest

from popfuzz.scenarios import (
    builtin_names,
    builtin_scenario,
    ground_truth_optimum,
    load_scenario,
    merge_victim_txs,
    scenario_from_dict,
    ScenarioError,
)
from popfuzz.world import BURN_ADDRESS, RawCall, Transaction


def test_builtin_corpus_loads():
    names = builtin_names()
    assert names == [
        "public_mint",
        "zero_cost_buy",
        "fee_transfer",
        "public_burn",
        "rounding_vault",
    ]
    assert [builtin_scenario(name).name for name in names] == names
    # demo scenarios outside the benchmark corpus still resolve by name
    assert builtin_scenario("fair_pool").name == "fair_pool"
    assert builtin_scenario("staking_id").name == "staking_id"
    with pytest.raises(ScenarioError, match="unknown built-in"):
        builtin_scenario("nope")


def test_ground_truth_optima_are_stable():
    # frozen outputs of the brute-force oracles; a change here means the
    # benchmark itself moved, not the fuzzer
    assert ground_truth_optimum("public_mint") == 999_999
    assert ground_truth_optimum("zero_cost_buy") == 998_997_995_991_983_967
    assert ground_truth_optimum("rounding_vault") == 100
    assert ground_truth_optimum("public_burn") == 899_452_381_104_725_828
    with pytest.raises(ScenarioError):
        ground_truth_optimum("fee_transfer")  # structural criterion, no number


@pytest.mark.parametrize("name", builtin_names() + ["fair_pool", "staking_id"])
def test_build_state_conserves_every_token(name):
    sc = builtin_scenario(name)
    state = sc.build_state()
    for token in state.tokens:
        held = sum(v for (t, _h), v in state.balances.items() if t == token)
        assert held == state.supplies.get(token, 0)
    for pair in state.pairs.values():
        assert pair.reserve0 == state.balance_of(pair.token0, pair.address)
        assert pair.reserve1 == state.balance_of(pair.token1, pair.address)
        assert state.balance_of(pair.lp_token, BURN_ADDRESS) == pair.lp_supply


def test_universe_exposes_the_closed_world():
    sc = builtin_scenario("public_mint")
    uni = sc.universe()
    mnt = sc.token_address("MNT")
    usd = sc.token_address("USD")
    assert sc.attacker in uni.addresses
    assert {usd, mnt} <= set(uni.tokens)
    fns = {(s.target, s.fn) for s in uni.surface}
    assert (mnt, "mint") in fns
    assert (usd, "mint") not in fns  # mint is only public where declared
    assert 1_000_000 in uni.amount_anchors  # pair reserves anchor amount draws


# --- validation diagnostics ----------------------------------------------------


def _minimal(**overrides):
    doc = {
        "name": "t",
        "tokens": [{"symbol": "USD"}],
        "attacker": {},
        "pricing_tokens": ["USD"],
    }
    doc.update(overrides)
    return doc


def _sale(params, holdings=None):
    contract = {"name": "sale", "kind": "token_sale", "params": params, "holdings": holdings}
    return _minimal(tokens=[{"symbol": "USD"}, {"symbol": "SLT"}], contracts=[contract])


@pytest.mark.parametrize(
    "doc,message",
    [
        ({}, "missing scenario name"),
        (_minimal(pricing_tokens=[]), "pricing_tokens must be non-empty"),
        (_minimal(pricing_tokens=["GONE"]), "not declared"),
        (_minimal(pairs=[{"tokens": ["USD", "GONE"], "reserves": [1, 1]}]), "undeclared token"),
        (_minimal(pairs=[{"tokens": ["USD", "USD"], "reserves": [1, 0]}]), "positive reserves"),
        (_minimal(contracts=[{"name": "c", "kind": "warp_drive"}]), "unknown kind"),
        (_minimal(attacker={"balances": {"GONE": 1}}), "undeclared token"),
        (_minimal(tokens=[{"symbol": "USD"}, {"symbol": "USD"}]), "duplicate name"),
        (_sale({"token": "SLT"}), "missing parameter 'price'"),
        (_sale({"token": "SLTX", "price": 10}), "no known symbol: 'SLTX'"),
        (_sale({"token": "SLT", "price": 10, "cost": 1}), "unknown parameter 'cost'"),
        (_sale({"token": "SLT", "price": "10"}), "'price' must be a uint"),
        (_sale({"token": "SLT", "price": -1}), "'price' must be a uint"),
        (_sale({"token": "SLT", "price": True}), "'price' must be a uint"),
        (_sale({"token": 7, "price": 10}), "'token' is no known symbol: 7"),
        (_sale({"token": "sale", "price": 10}), "no known symbol: 'sale'"),
        (_sale([1]), "params must be a mapping"),
        (_sale({"token": "SLT", "price": 10}, {"GONE": 1}), "holds undeclared token 'GONE'"),
        (_minimal(contracts=[{"name": "r", "kind": "vault_router", "params": {"vault": "v"}}]),
         "no known address: 'v'"),
    ],
)
def test_scenario_diagnostics(doc, message):
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(doc)


# --- file loading ----------------------------------------------------------------


SCENARIO_YAML = textwrap.dedent(
    """
    name: file_pool
    tokens:
      - symbol: USD
      - symbol: TKN
    pairs:
      - tokens: [TKN, USD]
        reserves: [1000000, 1000000]
    attacker:
      balances:
        USD: 5000
    pricing_tokens: [USD]
    """
)


def test_load_scenario_from_yaml(tmp_path):
    path = tmp_path / "pool.yaml"
    path.write_text(SCENARIO_YAML)
    scenario, state = load_scenario(path)
    assert scenario.name == "file_pool"
    assert state.balance_of(scenario.token_address("USD"), scenario.attacker) == 5_000
    assert len(state.pairs) == 1


def test_load_scenario_reports_parse_and_io_errors(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: [unclosed")
    with pytest.raises(ScenarioError, match="parse error"):
        load_scenario(bad)
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.yaml")


# --- victim interleaving -----------------------------------------------------------


def test_merge_victim_txs_positions_and_flags():
    sc = builtin_scenario("rounding_vault")
    attacker_txs = [
        Transaction(sc.attacker, RawCall("a", "f", ())),
        Transaction(sc.attacker, RawCall("b", "f", ())),
        Transaction(sc.attacker, RawCall("c", "f", ())),
    ]
    txs, logical, flags = merge_victim_txs(attacker_txs, sc.victim_txs)
    # both victim transactions are declared at position 1
    assert flags == [False, True, True, False, False]
    assert logical == [0, -1, -1, 1, 2]
    assert txs[1].sender == sc.victims["victim"]
    assert [t.kind.fn for t in txs if not isinstance(t.kind, Transaction)][1:3] == [
        "approve",
        "buyLongToken",
    ]


def test_merge_victim_txs_appends_trailing_victims():
    sc = builtin_scenario("rounding_vault")
    one = [Transaction(sc.attacker, RawCall("a", "f", ()))]
    txs, logical, flags = merge_victim_txs(one, sc.victim_txs)
    assert flags == [False, True, True]
    assert logical == [0, -1, -1]
    assert len(txs) == 3
