"""Campaign engine: determinism, structural keys, replay verification, and
the ablation switches."""

import pytest

from popfuzz.actions import A1_TRANSFER_PCT, ActionSpec, TxSequence
from popfuzz.engine import (
    CampaignConfig,
    ReplayMismatch,
    outcome_signature,
    replay_profit,
    run_campaign,
    sequence_structure,
    verify_result,
)
from popfuzz.oracle import account
from popfuzz.reports import result_to_dict, serialize_report
from popfuzz.scenarios import builtin_scenario
from popfuzz.world import RawCall, Transaction, execute_sequence


@pytest.fixture(scope="module")
def mint_scenario():
    return builtin_scenario("public_mint")


# --- structural keys -----------------------------------------------------------


def test_sequence_structure_erases_numbers_but_not_shape(mint_scenario):
    sc = mint_scenario
    usd = sc.token_address("USD")
    mnt = sc.token_address("MNT")

    def seq(amount, token=mnt):
        return TxSequence(
            [Transaction(sc.attacker, RawCall(token, "mint", (sc.attacker, amount)))], usd
        )

    assert sequence_structure(seq(1)) == sequence_structure(seq(10**30))
    assert sequence_structure(seq(1, token=usd)) != sequence_structure(seq(1))
    action = TxSequence(
        [Transaction(sc.attacker, ActionSpec(A1_TRANSFER_PCT, token=usd, target=usd, percentage=5))],
        usd,
    )
    same_shape = TxSequence(
        [Transaction(sc.attacker, ActionSpec(A1_TRANSFER_PCT, token=usd, target=usd, percentage=95))],
        usd,
    )
    assert sequence_structure(action) == sequence_structure(same_shape)


def test_outcome_signature_distinguishes_success_from_revert(mint_scenario):
    sc = mint_scenario
    usd = sc.token_address("USD")
    mnt = sc.token_address("MNT")
    ok_seq = TxSequence(
        [Transaction(sc.attacker, RawCall(mnt, "mint", (sc.attacker, 5)))], usd
    )
    bad_seq = TxSequence(
        [Transaction(sc.attacker, RawCall(mnt, "mint", (sc.attacker, 0)))], usd
    )
    state = sc.build_state()
    sig_ok = outcome_signature(ok_seq, execute_sequence(state, ok_seq.txs))
    sig_bad = outcome_signature(bad_seq, execute_sequence(state, bad_seq.txs))
    assert sig_ok != sig_bad


# --- campaigns -------------------------------------------------------------------


def small_config(**kw):
    defaults = dict(seed=7, iterations=600, sgd_budget=200, sgd_total_budget=1000)
    defaults.update(kw)
    return CampaignConfig(**defaults)


def test_campaigns_are_deterministic(mint_scenario):
    a = run_campaign(mint_scenario, small_config())
    b = run_campaign(mint_scenario, small_config())
    assert a.best_profit == b.best_profit
    assert serialize_report(result_to_dict("public_mint", a)) == serialize_report(
        result_to_dict("public_mint", b)
    )
    c = run_campaign(mint_scenario, small_config(seed=8))
    assert serialize_report(result_to_dict("public_mint", a)) != serialize_report(
        result_to_dict("public_mint", c)
    )


def test_small_campaign_finds_the_mint_exploit(mint_scenario):
    result = run_campaign(mint_scenario, small_config())
    assert result.best_profit > 0
    proof = result.best_proof()
    assert proof.profit == result.best_profit
    assert "positive_profit" in proof.criteria
    verify_result(mint_scenario, result)  # every emitted proof replays exactly


def test_tampered_proof_fails_verification(mint_scenario):
    result = run_campaign(mint_scenario, small_config())
    result.proofs[0].profit += 1
    with pytest.raises(ReplayMismatch):
        verify_result(mint_scenario, result)


def test_replay_profit_of_a_neutral_sequence_is_zero(mint_scenario):
    sc = mint_scenario
    usd = sc.token_address("USD")
    seq = TxSequence(
        [Transaction(sc.attacker, RawCall(usd, "approve", (sc.attacker, 5)))], usd
    )
    assert replay_profit(sc, seq) == 0


def test_replay_profit_matches_accounting_delta(mint_scenario):
    sc = mint_scenario
    usd, mnt = sc.token_address("USD"), sc.token_address("MNT")
    mint = Transaction(sc.attacker, RawCall(mnt, "mint", (sc.attacker, 1_000_000)))
    seq = TxSequence([mint], usd)
    state = sc.build_state()
    receipt = execute_sequence(state, seq.txs)
    for full in (True, False):
        initial = account(state, usd, sc.cluster, full).value
        final = account(receipt.state, usd, sc.cluster, full).value
        assert replay_profit(sc, seq, full_accounting=full) == final - initial
    assert replay_profit(sc, seq) > 0


def test_profit_timeline_is_strictly_improving(mint_scenario):
    result = run_campaign(mint_scenario, small_config())
    profits = [p for _, p in result.stats.profit_timeline]
    assert profits == sorted(profits)
    assert len(set(profits)) == len(profits)


# --- ablation switches --------------------------------------------------------------


def test_no_grd_disables_the_optimizer(mint_scenario):
    result = run_campaign(mint_scenario, small_config(variant="nogrd"))
    assert result.stats.sgd_runs == 0
    assert result.stats.sgd_evals == 0


def test_no_cdt_keeps_only_the_profit_criterion(mint_scenario):
    result = run_campaign(mint_scenario, small_config(variant="nocdt"))
    assert set(result.stats.candidate_counts) <= {"positive_profit"}


def test_variant_labels():
    assert CampaignConfig().variant == "full"
    for variant in ("noact", "nocdt", "noacc", "nogrd"):
        assert CampaignConfig(variant=variant).variant == variant
    for bad in ("none", "no_acc", "", None):
        with pytest.raises(ValueError, match="unknown engine variant"):
            CampaignConfig(variant=bad)


def test_record_schedule_collects_lawful_entries():
    from reference_maximizer import schedule_law_holds

    # fee_transfer candidates execute end to end, so the optimizer gets past
    # its repair phase and emits real step-schedule entries
    scenario = builtin_scenario("fee_transfer")
    result = run_campaign(
        scenario,
        CampaignConfig(seed=7, iterations=1200, sgd_budget=300, sgd_total_budget=2000,
                       record_schedule=True),
    )
    entries = [e for sched in result.schedules for e in sched]
    assert len(entries) > 100
    assert all(schedule_law_holds(e) for e in entries)


@pytest.mark.parametrize("name", ["rounding_vault", "fee_transfer"])
def test_early_exit_leaves_the_campaign_unchanged(name, monkeypatch):
    """The optimizer's evaluations stop at their first dead transaction; a
    campaign that runs every evaluation to the end reports the same bytes,
    `executed_txs` included. rounding_vault merges victim transactions."""
    sc = builtin_scenario(name)
    config = CampaignConfig(seed=3, iterations=400, sgd_budget=300, sgd_total_budget=1200)
    early = run_campaign(sc, config)
    lengths, replaying = [], []

    def run_to_the_end(*args, stop_at_dead=False, **kwargs):
        receipt = execute_sequence(*args, **kwargs)
        if not replaying:
            lengths.append(len(receipt.outcomes))
        return receipt

    def replay(*args, **kwargs):
        replaying.append(True)
        try:
            return replay_profit(*args, **kwargs)
        finally:
            replaying.pop()

    monkeypatch.setattr("popfuzz.engine.execute_sequence", run_to_the_end)
    monkeypatch.setattr("popfuzz.engine.replay_profit", replay)
    full = run_campaign(sc, config)
    assert early.stats.sgd_evals > 0
    assert full.stats.executed_txs == sum(lengths)
    assert serialize_report(result_to_dict(name, early)) == serialize_report(
        result_to_dict(name, full)
    )
