"""Report serialization: exact integer round-trips, malformed-payload
diagnostics, and timestamp handling."""

import pytest

from popfuzz.actions import A2_ROUTER_SWAP, A4_PAIR_SWAP, ActionSpec
from popfuzz.engine import CampaignConfig, CampaignResult, CampaignStats, Proof
from popfuzz.reports import (
    ReportError,
    TIMESTAMP_FIELD,
    config_from_dict,
    config_to_dict,
    parse_report,
    proof_from_dict,
    proof_to_dict,
    result_to_dict,
    serialize_report,
    strip_timestamp,
    tx_from_dict,
    tx_to_dict,
)
from popfuzz.world import RawCall, Transaction

ADDR = "0x" + "11" * 20
ADDR2 = "0x" + "22" * 20


def test_raw_call_round_trip_preserves_256_bit_integers():
    amount = 2**256 - 1
    tx = Transaction(ADDR, RawCall(ADDR2, "transfer", (ADDR, amount)), value=7, repeat=42)
    back = tx_from_dict(tx_to_dict(tx))
    assert back == tx
    assert back.kind.args[1] == amount  # exact, not a float approximation


def test_action_round_trip_with_nested_flashloan_body():
    body = (
        Transaction(ADDR, ActionSpec(A2_ROUTER_SWAP, token=ADDR, token2=ADDR2,
                                     target=ADDR2, percentage=31)),
    )
    tx = Transaction(
        ADDR,
        ActionSpec(A4_PAIR_SWAP, target=ADDR2, percentage=65, direction="flashloan",
                   side=1, body=body),
    )
    assert tx_from_dict(tx_to_dict(tx)) == tx


def test_proof_round_trip():
    proof = Proof(
        pricing_token=ADDR,
        txs=[Transaction(ADDR, RawCall(ADDR2, "mint", (ADDR, 10**30)))],
        profit=999_999,
        criteria=("positive_profit", "unconditional_gain"),
        iteration=17,
        optimized=True,
    )
    back = proof_from_dict(proof_to_dict(proof))
    assert back == proof


def test_timeline_and_convergence_list_every_proof_in_order():
    proofs = [
        Proof(token, [], profit, ("positive_profit",), it, False)
        for it, profit, token in ((3, 5, ADDR), (9, 40, ADDR), (12, 7, ADDR2))
    ]
    result = CampaignResult(CampaignConfig(), {ADDR: proofs[1], ADDR2: proofs[2]}, proofs,
                            CampaignStats())
    d = result_to_dict("s", result, emit_schedule=True)
    assert d["stats"]["profit_timeline"] == [[3, "5"], [9, "40"], [12, "7"]]
    assert d["convergence"] == [
        {"evaluation": 3, "profit": "5"},
        {"evaluation": 9, "profit": "40"},
        {"evaluation": 12, "profit": "7"},
    ]


def test_config_round_trip_covers_every_variant():
    for variant in ("full", "noact", "nocdt", "noacc", "nogrd"):
        cfg = CampaignConfig(seed=3, iterations=10, variant=variant)
        back = config_from_dict(config_to_dict(cfg))
        assert back.variant == variant
        assert (back.seed, back.iterations) == (3, 10)


@pytest.mark.parametrize("variant", ["no-acc", "FULL", "", None, ["noacc"]])
def test_config_rejects_unknown_variants(variant):
    d = config_to_dict(CampaignConfig())
    d["variant"] = variant
    with pytest.raises(ReportError, match="unknown engine variant"):
        config_from_dict(d)


@pytest.mark.parametrize(
    "payload",
    [
        {"sender": ADDR, "value": "0", "repeat": 1},  # neither call nor action
        {"call": {"target": ADDR, "fn": "f", "args": [3]}, "sender": ADDR,
         "value": "0", "repeat": 1},  # non-string argument
        {"call": {"target": ADDR, "fn": "f", "args": ["xyz"]}, "sender": ADDR,
         "value": "0", "repeat": 1},  # unparseable integer literal
        "not an object",
    ],
)
def test_malformed_transactions_raise_report_errors(payload):
    with pytest.raises(ReportError):
        tx_from_dict(payload)


def test_boolean_arguments_are_rejected_on_write():
    tx = Transaction(ADDR, RawCall(ADDR2, "f", (True,)))
    with pytest.raises(ReportError, match="boolean"):
        tx_to_dict(tx)


def test_parse_report_diagnostics():
    with pytest.raises(ReportError, match="not valid JSON"):
        parse_report("{nope")
    with pytest.raises(ReportError, match="root must be an object"):
        parse_report("[1, 2]")


def test_serialize_is_stable_and_timestamp_strippable():
    report = {"b": 1, "a": 2, TIMESTAMP_FIELD: "2026-01-01T00:00:00"}
    text = serialize_report(report)
    assert text == serialize_report(dict(reversed(list(report.items()))))  # key-sorted
    assert text.endswith("\n")
    assert strip_timestamp(parse_report(text)) == {"a": 2, "b": 1}
