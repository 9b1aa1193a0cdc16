"""Checks on popfuzz's outputs, computed apart from the program.

The optima below are derived here from constant-product arithmetic on the
scenario's parameters; `scenarios.ground_truth_optimum` is used only to check
that the two derivations agree. Run this file to print both side by side:

    python3 perfbench/checks.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

UINT_MAX = 2**256 - 1
MAX_REPEAT = 1000  # a transaction repeats at most this many times
FEE_NUM, FEE_DEN = 997, 1000  # Uniswap-V2 0.3% input fee

# Share of the optimum a full-engine campaign's best verified profit must
# reach (the acceptance gate's thresholds); rounding_vault must equal it.
THRESHOLD_PCT = {"public_burn": 95, "zero_cost_buy": 99, "public_mint": 99, "rounding_vault": 100}


def cp_out(amount_in: int, reserve_in: int, reserve_out: int):
    """Output of a fee-charging constant-product swap; None where 256-bit
    checked arithmetic would revert."""
    if amount_in == 0 or reserve_in == 0 or reserve_out == 0:
        return 0
    num = amount_in * FEE_NUM * reserve_out
    den = reserve_in * FEE_DEN + amount_in * FEE_NUM
    if num > UINT_MAX or den > UINT_MAX or reserve_in * FEE_DEN > UINT_MAX:
        return None
    return num // den


def _reserves(scenario, sym_in: str, sym_out: str) -> tuple[int, int]:
    for pd in scenario.pairs:
        (s0, s1), (r0, r1) = pd["symbols"], pd["reserves"]
        if (s0, s1) == (sym_in, sym_out):
            return r0, r1
        if (s1, s0) == (sym_in, sym_out):
            return r1, r0
    raise ValueError(f"{scenario.name}: no {sym_in}/{sym_out} pool")


def public_mint_optimum(scenario) -> int:
    """Mint M for free and sell it: out(M) rises with M towards the pool's
    whole USD reserve R but never reaches it, so the optimum is R - 1, reached
    at the least M with 997*M*R >= (R-1)*(1000*r_in + 997*M)."""
    r_in, r_out = _reserves(scenario, "MNT", "USD")
    target = r_out - 1
    need = target * FEE_DEN * r_in
    step = FEE_NUM * (r_out - target)
    m = -(-need // step)
    if cp_out(m, r_in, r_out) != target:
        raise AssertionError("public_mint: closed form does not reach R - 1")
    return target


def zero_cost_buy_optimum(scenario) -> int:
    """buyTokens(n) costs (n // unit) * price, so any n below one unit is free.
    One transaction repeated MAX_REPEAT times buys MAX_REPEAT * (unit - 1),
    capped by the sale's stock; selling it all is the single-loop optimum."""
    (sale,) = [c for c in scenario.contracts if c["kind"] == "token_sale"]
    unit, stock = sale["params"]["unit"], sale["holdings"]["SLT"]
    bought = min(MAX_REPEAT * (unit - 1), stock)
    r_in, r_out = _reserves(scenario, "SLT", "USD")
    return cp_out(bought, r_in, r_out)


def victim_deposit(scenario) -> int:
    (deposit,) = [v.tx.kind.args[0] for v in scenario.victim_txs
                  if v.tx.kind.fn == "buyLongToken"]
    return deposit


def rounding_vault_optimum(scenario) -> int:
    """The victim's deposit v is the only outside money in the vault, so no
    attack nets more than v. Depositing 1 and donating v before the victim
    floors the victim's shares to 0, and redeeming then takes all of it."""
    v = victim_deposit(scenario)
    deposit, donation = 1, v
    vault_balance = deposit + donation
    victim_shares = v * deposit // vault_balance
    redeemed = deposit * (vault_balance + v) // (deposit + victim_shares)
    return redeemed - deposit - donation


def public_burn_profit(scenario, buy_pct: int, burn_pct: int) -> int:
    """Spend buy_pct% of the USD on BRN, burn burn_pct% of the pool's BRN
    (public burn, then sync), sell the BRN back."""
    usd = scenario.attacker_balances["USD"]
    r_usd, r_brn = _reserves(scenario, "USD", "BRN")
    spend = usd * buy_pct // 100
    got = cp_out(spend, r_usd, r_brn) or 0
    if got == 0:
        return 0
    pool_brn = r_brn - got
    pool_brn -= pool_brn * burn_pct // 100
    return (cp_out(got, pool_brn, r_usd + spend) or 0) - spend


def public_burn_optimum(scenario) -> int:
    """Best profit over every whole buy and burn percentage."""
    return max(public_burn_profit(scenario, b, q) for b in range(101) for q in range(101))


OPTIMA = {
    "public_mint": public_mint_optimum,
    "zero_cost_buy": zero_cost_buy_optimum,
    "rounding_vault": rounding_vault_optimum,
    "public_burn": public_burn_optimum,
}


def optimum(name: str) -> int:
    from popfuzz.scenarios import builtin_scenario

    return OPTIMA[name](builtin_scenario(name))


def oracle_disagreements(names) -> list[str]:
    from popfuzz.scenarios import ground_truth_optimum

    out = []
    for name in names:
        ours, theirs = optimum(name), ground_truth_optimum(name)
        if ours != theirs:
            out.append(f"{name}: independent optimum {ours} != program's {theirs}")
    return out


def meets_threshold(name: str, profit: int, opt: int) -> bool:
    if name == "rounding_vault":
        return profit == opt
    return profit * 100 >= THRESHOLD_PCT[name] * opt


# --- fee_transfer: the structural bound --------------------------------------


def fee_sell_bound(scenario) -> int:
    """Largest whole percentage of its balance a holder of a fee-on-top token
    can send to the pool: amount + fee must not exceed the balance."""
    rate = scenario.tokens["FEE"].fee_rate
    return 100 * FEE_DEN // (FEE_DEN + rate)


def fee_sell_percentages(proof, scenario, state) -> list[int]:
    """Percentages at which a proof's actions move the fee token into its pool."""
    from popfuzz.actions import A1_TRANSFER_PCT, A2_ROUTER_SWAP, A4_PAIR_SWAP, ActionSpec

    fee = scenario.token_address("FEE")
    pcts = []
    for tx in proof.txs:
        kind = tx.kind
        if not isinstance(kind, ActionSpec):
            continue
        if kind.kind == A2_ROUTER_SWAP and kind.token == fee:
            pcts.append(kind.percentage)
        elif kind.kind == A1_TRANSFER_PCT and kind.token == fee and kind.target in state.pairs:
            pcts.append(kind.percentage)
        elif kind.kind == A4_PAIR_SWAP and kind.direction == "swap":
            pair = state.pairs.get(kind.target)
            if pair is not None and (pair.token0 if kind.side == 0 else pair.token1) == fee:
                pcts.append(kind.percentage)
    return pcts


def check_best(name: str, scenario, best_proof, best_profit: int) -> list[str]:
    """The acceptance checks on one full-engine campaign's best proof."""
    if name == "fee_transfer":
        if best_proof is None or best_profit <= 0:
            return [f"{name}: no positive proof"]
        pcts = fee_sell_percentages(best_proof, scenario, scenario.build_state())
        bound = fee_sell_bound(scenario)
        if not any(1 <= p <= bound for p in pcts):
            return [f"{name}: best proof sells at {pcts}, none within 1..{bound}"]
        return []
    opt = OPTIMA[name](scenario)
    if not meets_threshold(name, best_profit, opt):
        return [f"{name}: best profit {best_profit} misses the threshold of optimum {opt}"]
    return []


# --- properties of every proof, replayed on a fresh state --------------------


def check_proofs(scenario, proofs, max_len: int) -> list[str]:
    """Replay each proof's sequence on a freshly built state and check the
    final state's ledgers, and bound each claim by the pricing-token amount
    held outside the attacker cluster at the start."""
    from popfuzz.actions import TxSequence
    from popfuzz.engine import execute_with_victims

    base = scenario.build_state()
    cluster = scenario.cluster
    problems = []
    for k, proof in enumerate(proofs):
        pricing = proof.pricing_token
        outside = sum(v for (t, h), v in base.balances.items() if t == pricing and h not in cluster)
        if proof.profit > outside:
            problems.append(f"{scenario.name} proof {k}: claims {proof.profit} > {outside} held outside")
        seq = TxSequence(list(proof.txs), pricing)
        final = execute_with_victims(scenario, scenario.build_state(), seq, max_len).state
        held: dict = {}
        for (token, _holder), amount in final.balances.items():
            held[token] = held.get(token, 0) + amount
        for token, tdef in final.tokens.items():
            if tdef.public_mint or tdef.public_burn:
                continue
            supply = final.supplies.get(token, 0)
            if held.get(token, 0) != supply:
                problems.append(f"{scenario.name} proof {k}: {tdef.symbol} holdings "
                                f"{held.get(token, 0)} != supply {supply}")
        if final.supplies.get(pricing) != base.supplies.get(pricing):
            problems.append(f"{scenario.name} proof {k}: pricing-token supply changed")
    return problems


def check_swap_probes(rng: random.Random, count: int) -> list[str]:
    """popfuzz.amm.get_amount_out against cp_out on seeded random inputs,
    from dust to amounts that overflow 256 bits."""
    from popfuzz.amm import get_amount_out
    from popfuzz.world import Revert

    problems = []
    for _ in range(count):
        a, r_in, r_out = (rng.randrange(1 << rng.randrange(1, 250)) for _ in range(3))
        try:
            got = get_amount_out(a, r_in, r_out)
        except Revert:
            got = None
        if got != cp_out(a, r_in, r_out):
            problems.append(f"get_amount_out({a}, {r_in}, {r_out}) = {got}, "
                            f"expected {cp_out(a, r_in, r_out)}")
    return problems


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from popfuzz.scenarios import ground_truth_optimum

    bad = 0
    for name in OPTIMA:
        ours, theirs = optimum(name), ground_truth_optimum(name)
        bad += ours != theirs
        print(f"{name:15} independent {ours:>22}  program {theirs:>22}  "
              f"{'agree' if ours == theirs else 'DIFFER'}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
