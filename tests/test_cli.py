"""Command-line interface: exit codes, report emission, proof replay, and
deterministic output."""

import json

import pytest

from popfuzz.cli import main
from popfuzz.reports import parse_report, serialize_report, strip_timestamp


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def mint_report(tmp_path_factory):
    """One small successful campaign, reused across the CLI tests."""
    path = tmp_path_factory.mktemp("cli") / "mint.json"
    code = run_cli(
        "run", "--scenario", "public_mint", "--seed", "1",
        "--iterations", "600", "--sgd-budget", "200", "--out", str(path),
    )
    assert code == 0
    return path


def test_run_emits_a_parseable_report(mint_report):
    report = parse_report(mint_report.read_text())
    assert report["scenario"] == "public_mint"
    assert "generated_at" in report
    (run_entry,) = report["runs"]
    assert run_entry["proofs"]
    assert int(run_entry["best"][next(iter(run_entry["best"]))]["profit"]) > 0


def test_run_exit_codes():
    assert run_cli("run", "--scenario", "no_such_scenario", "--iterations", "10") == 1
    # fair_pool has nothing to find: clean run, no proof
    assert run_cli("run", "--scenario", "fair_pool", "--iterations", "150") == 2


def test_run_rejects_a_repeat_below_one(capsys):
    assert run_cli("run", "--scenario", "fair_pool", "--iterations", "10", "--repeat", "0") == 1
    assert capsys.readouterr().err.startswith("error: --repeat must be at least 1")


def test_run_accepts_scenario_files(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(
        "name: filecase\n"
        "tokens:\n  - symbol: USD\n"
        "attacker:\n  balances:\n    USD: 100\n"
        "pricing_tokens: [USD]\n"
    )
    assert run_cli("run", "--scenario", str(path), "--iterations", "50") == 2


_SCENARIO_HEAD = "name: malformed\npricing_tokens: [USD]\n"
_SALE_BODY = (
    "tokens:\n  - symbol: USD\n  - symbol: SLT\n"
    "pairs:\n  - tokens: [SLT, USD]\n    reserves: [1000000, 1000000]\n"
    "contracts:\n  - name: sale\n    kind: token_sale\n    params: {}\n"
    "    holdings: {{SLT: 1000000}}\n"
    "attacker: {{native: 1000}}\n"
)


@pytest.mark.parametrize("body", [
    "tokens: [1]\n",
    "tokens:\n  - symbol: USD\ncontracts:\n  - name: c\n    kind: [a]\n",
    "tokens:\n  - symbol: USD\nmacros:\n  - name: m\n    calls: [[USD]]\n",
    "tokens:\n  - symbol: USD\npairs:\n  - tokens: 5\n    reserves: [1, 1]\n",
    "tokens:\n  - symbol: USD\nmacros:\n  - name: m\n    calls: [[USD, [a]]]\n",
    "tokens:\n  - symbol: USD\nvictim_txs:\n  - {sender: attacker, target: USD, fn: [a]}\n",
    _SALE_BODY.format("{token: SLT}"),
    _SALE_BODY.format("{token: SLTX, price: 10}"),
    "tokens:\n  - symbol: USD\nvictim_tx:\n  - {sender: attacker, target: USD, fn: approve}\n",
    "tokens:\n  - {symbol: USD, public_mint: 'no'}\n",
], ids=["token_not_a_mapping", "unhashable_contract_kind", "macro_call_without_fn",
        "pair_tokens_not_a_list", "macro_fn_not_a_string", "victim_fn_not_a_string",
        "sale_without_price", "sale_of_an_unknown_token", "misspelt_section",
        "mint_flag_not_a_boolean"])
def test_run_rejects_malformed_scenario_files(body, tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(_SCENARIO_HEAD + body)
    assert run_cli("run", "--scenario", str(path), "--iterations", "10") == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_replay_reproduces_recorded_proofs(mint_report, capsys):
    assert run_cli("replay", "--proof", str(mint_report), "--scenario", "public_mint") == 0
    out = capsys.readouterr().out
    assert "ok: profit" in out


def test_replay_detects_tampering(mint_report, tmp_path):
    report = parse_report(mint_report.read_text())
    report["runs"][0]["proofs"][0]["profit"] = str(
        int(report["runs"][0]["proofs"][0]["profit"]) + 1
    )
    forged = tmp_path / "forged.json"
    forged.write_text(serialize_report(report))
    assert run_cli("replay", "--proof", str(forged), "--scenario", "public_mint") == 3


def test_replay_rejects_wrong_scenario_and_bad_input(mint_report, tmp_path):
    assert run_cli("replay", "--proof", str(mint_report), "--scenario", "fair_pool") == 1
    assert run_cli("replay", "--proof", str(tmp_path / "missing.json"),
                   "--scenario", "public_mint") == 1
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert run_cli("replay", "--proof", str(garbage), "--scenario", "public_mint") == 1


@pytest.mark.parametrize("ablation", ["none", "noact", "nocdt", "noacc", "nogrd"])
def test_replay_reproduces_every_variant(ablation, tmp_path, capsys):
    """Replay reads each run's recorded config: a noacc proof's profit is a raw
    pricing-token delta, which full accounting would value differently."""
    path = tmp_path / f"{ablation}.json"
    code = run_cli(
        "run", "--scenario", "public_mint", "--seed", "2", "--iterations", "300",
        "--sgd-budget", "200", "--ablation", ablation, "--out", str(path),
    )
    assert code == 0
    (run_entry,) = parse_report(path.read_text())["runs"]
    assert run_entry["config"]["variant"] == ("full" if ablation == "none" else ablation)
    capsys.readouterr()
    assert run_cli("replay", "--proof", str(path), "--scenario", "public_mint") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("ok: profit") for line in lines)


def test_replay_rejects_malformed_run_configs(mint_report, tmp_path):
    report = parse_report(mint_report.read_text())
    config = report["runs"][0]["config"]
    # a mistyped variant is an input error, not a full-engine replay
    for broken in (None, [], {"seed": "1"}, {**config, "max_len": "0"},
                   {**config, "variant": "no-acc"}):
        if broken is None:
            report["runs"][0].pop("config")
        else:
            report["runs"][0]["config"] = broken
        path = tmp_path / "broken.json"
        path.write_text(serialize_report(report))
        assert run_cli("replay", "--proof", str(path), "--scenario", "public_mint") == 1


def test_replay_rejects_calls_with_unhashable_names(mint_report, tmp_path):
    report = parse_report(mint_report.read_text())
    tx = report["runs"][0]["proofs"][0]["txs"][0]
    tx.pop("action", None)
    tx["call"] = {"target": report["runs"][0]["proofs"][0]["pricing_token"],
                  "fn": ["transfer"], "args": []}
    path = tmp_path / "names.json"
    path.write_text(serialize_report(report))
    assert run_cli("replay", "--proof", str(path), "--scenario", "public_mint") == 1


def test_repeat_runs_consecutive_seeds(tmp_path):
    out = tmp_path / "multi.json"
    code = run_cli(
        "run", "--scenario", "public_mint", "--seed", "1", "--repeat", "2",
        "--iterations", "400", "--sgd-budget", "150", "--out", str(out),
    )
    assert code == 0
    report = parse_report(out.read_text())
    assert [r["config"]["seed"] for r in report["runs"]] == [1, 2]


def test_reports_are_deterministic_up_to_the_timestamp(tmp_path):
    texts = []
    for i in range(2):
        out = tmp_path / f"run{i}.json"
        assert run_cli(
            "run", "--scenario", "public_mint", "--seed", "5",
            "--iterations", "400", "--sgd-budget", "150", "--out", str(out),
        ) == 0
        texts.append(serialize_report(strip_timestamp(parse_report(out.read_text()))))
    assert texts[0] == texts[1]


def test_corpus_suite_json_output(tmp_path, capsys):
    out = tmp_path / "suite.json"
    code = run_cli(
        "corpus-suite", "--scenario", "public_mint", "--seeds", "1",
        "--no-ablations", "--workers", "1", "--json", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    (row,) = payload["matrix"]
    assert row["scenario"] == "public_mint"
    assert int(row["full"]) > 0
    assert row["full_pct"] == 100.0


def test_corpus_suite_table_output(capsys):
    code = run_cli(
        "corpus-suite", "--scenario", "public_mint", "--seeds", "1",
        "--no-ablations", "--workers", "1",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "scenario" in out and "public_mint" in out
