"""Report serialization: campaign results as JSON with every 256-bit amount
rendered as a decimal string, round-tripping exactly.

Address strings are "0x"-prefixed (or the native-currency sentinel), so
integers and addresses can share argument slots unambiguously.
"""

from __future__ import annotations

import json
from typing import Any

from .actions import ActionSpec
from .engine import CampaignConfig, CampaignResult, Proof
from .world import NATIVE, RawCall, Transaction


class ReportError(ValueError):
    """Malformed report or proof payload."""


def _enc_scalar(v):
    if isinstance(v, bool):
        raise ReportError("boolean argument is not serializable")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    raise ReportError(f"unsupported argument type {type(v).__name__}")


def _dec_scalar(v):
    if not isinstance(v, str):
        raise ReportError("arguments must be strings")
    if v.startswith("0x") or v == NATIVE:
        return v
    try:
        return int(v, 10)
    except ValueError as e:
        raise ReportError(f"bad integer literal {v!r}") from e


def _name(v) -> str:
    # addresses, function names and action fields key the world's dicts
    if not isinstance(v, str):
        raise ReportError(f"expected a name, got {v!r}")
    return v


def tx_to_dict(tx: Transaction) -> dict:
    kind = tx.kind
    if isinstance(kind, RawCall):
        body: dict[str, Any] = {
            "call": {
                "target": kind.target,
                "fn": kind.fn,
                "args": [_enc_scalar(a) for a in kind.args],
            }
        }
    elif isinstance(kind, ActionSpec):
        body = {
            "action": {
                "kind": kind.kind,
                "token": kind.token,
                "token2": kind.token2,
                "target": kind.target,
                "percentage": kind.percentage,
                "direction": kind.direction,
                "side": kind.side,
                "body": [tx_to_dict(t) for t in kind.body],
                "macro": kind.macro,
                "args": [_enc_scalar(a) for a in kind.args],
            }
        }
    else:
        raise ReportError(f"unsupported transaction kind {type(kind).__name__}")
    body["sender"] = tx.sender
    body["value"] = str(tx.value)
    body["repeat"] = tx.repeat
    return body


def tx_from_dict(d: dict) -> Transaction:
    if not isinstance(d, dict):
        raise ReportError("transaction entry must be an object")
    try:
        if "call" in d:
            c = d["call"]
            kind: object = RawCall(
                _name(c["target"]), _name(c["fn"]), tuple(_dec_scalar(a) for a in c["args"])
            )
        elif "action" in d:
            a = d["action"]
            kind = ActionSpec(
                kind=_name(a["kind"]),
                token=_name(a["token"]),
                token2=_name(a["token2"]),
                target=_name(a["target"]),
                percentage=int(a["percentage"]),
                direction=_name(a["direction"]),
                side=int(a["side"]),
                body=tuple(tx_from_dict(t) for t in a["body"]),
                macro=_name(a["macro"]),
                args=tuple(_dec_scalar(x) for x in a["args"]),
            )
        else:
            raise ReportError("transaction entry needs 'call' or 'action'")
        return Transaction(
            sender=_name(d["sender"]),
            kind=kind,
            value=int(d["value"]),
            repeat=int(d["repeat"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ReportError(f"malformed transaction entry: {e}") from e


def proof_to_dict(proof: Proof) -> dict:
    return {
        "pricing_token": proof.pricing_token,
        "txs": [tx_to_dict(t) for t in proof.txs],
        "profit": str(proof.profit),
        "criteria": list(proof.criteria),
        "iteration": proof.iteration,
        "optimized": proof.optimized,
    }


def proof_from_dict(d: dict) -> Proof:
    try:
        return Proof(
            pricing_token=d["pricing_token"],
            txs=[tx_from_dict(t) for t in d["txs"]],
            profit=int(d["profit"]),
            criteria=tuple(d["criteria"]),
            iteration=int(d["iteration"]),
            optimized=bool(d["optimized"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ReportError(f"malformed proof entry: {e}") from e


def config_to_dict(config: CampaignConfig) -> dict:
    return {
        "seed": config.seed,
        "iterations": config.iterations,
        "max_len": config.max_len,
        "sgd_budget": config.sgd_budget,
        "sgd_total_budget": config.sgd_total_budget,
        "sgd_restarts": config.sgd_restarts,
        "variant": config.variant,
    }


def config_from_dict(d: dict) -> CampaignConfig:
    try:
        return CampaignConfig(
            seed=int(d["seed"]),
            iterations=int(d["iterations"]),
            max_len=int(d["max_len"]),
            sgd_budget=int(d["sgd_budget"]),
            sgd_total_budget=int(d["sgd_total_budget"]),
            sgd_restarts=int(d["sgd_restarts"]),
            variant=d.get("variant", "full"),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ReportError(f"malformed config entry: {e}") from e


def stats_to_dict(result: CampaignResult) -> dict:
    # wall-clock figures (elapsed, tx/s) are deliberately not serialized:
    # reports must be byte-identical across reruns of the same (scenario, config)
    stats = result.stats
    return {
        "iterations": stats.iterations,
        "executed_txs": stats.executed_txs,
        "sgd_evals": stats.sgd_evals,
        "sgd_runs": stats.sgd_runs,
        "corpus_candidates": stats.corpus_candidates,
        "corpus_novel": stats.corpus_novel,
        "candidate_counts": dict(sorted(stats.candidate_counts.items())),
        # each proof was a new best for its pricing token when it was recorded
        "profit_timeline": [[p.iteration, str(p.profit)] for p in result.proofs],
    }


def result_to_dict(scenario_name: str, result: CampaignResult, emit_schedule: bool = False) -> dict:
    d = {
        "scenario": scenario_name,
        "config": config_to_dict(result.config),
        "best": {
            pricing: proof_to_dict(proof) for pricing, proof in sorted(result.best.items())
        },
        "proofs": [proof_to_dict(p) for p in result.proofs],
        "stats": stats_to_dict(result),
    }
    if emit_schedule:
        # plot-ready convergence table: best verified profit by iteration
        d["convergence"] = [
            {"evaluation": p.iteration, "profit": str(p.profit)} for p in result.proofs
        ]
        d["sgd_schedules"] = [
            [
                {"var": e.var, "before": str(e.before), "after": str(e.after), "kind": e.kind}
                for e in sched
            ]
            for sched in result.schedules
        ]
    return d


# --- whole-report round-trip -------------------------------------------------

# Excluded from determinism comparison; everything else must be byte-identical.
TIMESTAMP_FIELD = "generated_at"


def serialize_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def parse_report(text: str) -> dict:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as e:
        raise ReportError(f"report is not valid JSON: {e}") from e
    if not isinstance(report, dict):
        raise ReportError("report root must be an object")
    return report


def strip_timestamp(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != TIMESTAMP_FIELD}
