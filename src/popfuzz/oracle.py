"""Profit accounting and proof-of-profit candidate detection.

The accounting routine values the attacker cluster in a chosen pricing token
by simulating a liquidation on a scratch copy of the state: redeem LP
positions, then market-sell every other token through its best
single-hop pair. Candidate detection walks the fund-flow events of one
executed sequence and flags transactions matching one of four criteria.
"""

from __future__ import annotations

from dataclasses import dataclass

from .amm import get_amount_out, pair_burn, pair_swap, pair_sync
from .world import (
    Address,
    BURN_ADDRESS,
    CallContext,
    ExecutionReceipt,
    Revert,
    WorldState,
    token_transfer,
)

POSITIVE_PROFIT = "positive_profit"
IMBALANCED_PAIR = "imbalanced_pair"
UNCONDITIONAL_GAIN = "unconditional_gain"
UNCONDITIONAL_BURN = "unconditional_burn"


@dataclass(frozen=True)
class Candidate:
    """A transaction sequence flagged as worth optimizing, with the criterion
    that fired and the logical indices of the transactions that triggered it."""

    criterion: str
    culprits: tuple  # sorted logical indices into the attacker sequence


def classify(receipt: ExecutionReceipt, cluster: frozenset) -> list[Candidate]:
    """Detect structural candidates on one execution. PositiveProfit is not
    detected here; it needs the accounting value and is added by the engine."""
    outcomes = receipt.outcomes  # one outcome per tx_index, in order

    def culprits(tx_indices) -> tuple:
        """Sorted logical indices of the successful attacker transactions."""
        found = set()
        for idx in tx_indices:
            o = outcomes[idx]
            if o.ok and not o.is_victim and o.logical_index >= 0:
                found.add(o.logical_index)
        return tuple(sorted(found))

    # One pass over the events: a transaction with an attacker outflow (native
    # or token) is never a culprit; otherwise a third-party transfer into the
    # cluster is a gain and a third-party transfer to the burn address a burn.
    outflow = {f.tx_index for f in receipt.native_flows if f.src in cluster}
    gain, burn = set(), set()
    for _token, src, dst, _amount, idx in receipt.events:
        if src in cluster:
            if dst not in cluster:
                outflow.add(idx)
            continue
        if dst in cluster:
            gain.add(idx)
        if dst == BURN_ADDRESS:
            burn.add(idx)

    candidates: list[Candidate] = []
    for criterion, tx_indices in (
        (IMBALANCED_PAIR, [c.tx_index for c in receipt.pair_checks]),
        (UNCONDITIONAL_GAIN, gain - outflow),  # inflow without outflow
        (UNCONDITIONAL_BURN, burn - outflow),  # third-party holdings burned at no cost
    ):
        found = culprits(tx_indices)
        if found:
            candidates.append(Candidate(criterion, found))
    return candidates


# --- accounting -------------------------------------------------------------


@dataclass
class AccountingReport:
    value: int
    trace: list  # liquidation steps, for reports and replay audits


def account(
    state: WorldState,
    pricing: Address,
    cluster: frozenset,
    full: bool = True,
) -> AccountingReport:
    """Value the cluster in `pricing` units on a scratch copy of `state`.

    With full=False (the reduced mode) the value is just the cluster's raw
    pricing-token balance, with no liquidation.
    """
    members = sorted(cluster)
    if not full:
        return AccountingReport(sum(state.balance_of(pricing, m) for m in members), [])

    # One scratch copy, journaled: a redeem or sell that reverts is rolled
    # back in place, so the liquidation makes no per-step copies.
    scratch = state.copy()
    journal = scratch.journal = []
    trace: list[tuple] = []
    sink: list = []

    # 0. Sync stale pairs: sync is permissionless, so a rational liquidator
    # refreshes any reserve/balance divergence before quoting sells.
    for pair_addr in sorted(scratch.pairs):
        pair = scratch.pairs[pair_addr]
        b0 = scratch.balance_of(pair.token0, pair_addr)
        b1 = scratch.balance_of(pair.token1, pair_addr)
        if (b0, b1) != (pair.reserve0, pair.reserve1):
            ctx = CallContext(scratch, BURN_ADDRESS, 0, -1, sink)
            try:
                pair_sync(ctx, pair_addr)
            except Revert:
                continue
            trace.append(("sync", pair_addr, b0, b1))

    # 1. Redeem LP positions.
    for pair_addr in sorted(scratch.pairs):
        for member in members:
            pair = scratch.pairs[pair_addr]
            lp = scratch.balance_of(pair.lp_token, member)
            if lp == 0 or pair.lp_supply == 0:
                continue
            journal.clear()
            ctx = CallContext(scratch, member, 0, -1, sink)
            try:
                token_transfer(ctx, pair.lp_token, member, pair_addr, lp)
                pair_burn(ctx, pair_addr, member)
            except Revert:
                scratch.rollback()
                continue
            trace.append(("redeem", member, pair_addr, lp))

    # 2. Sell every non-pricing token through its best single-hop pair.
    sellable = sorted(
        t for t, d in scratch.tokens.items() if t != pricing and not d.is_lp
    )
    for token in sellable:
        for member in members:
            balance = scratch.balance_of(token, member)
            if balance == 0:
                continue
            best_pair, best_quote = None, 0
            for pair_addr in sorted(scratch.pairs):
                pair = scratch.pairs[pair_addr]
                if {pair.token0, pair.token1} != {token, pricing}:
                    continue
                r_in, r_out = (
                    (pair.reserve0, pair.reserve1)
                    if pair.token0 == token
                    else (pair.reserve1, pair.reserve0)
                )
                try:
                    quote = get_amount_out(balance, r_in, r_out)
                except Revert:
                    continue
                if quote > best_quote:
                    best_pair, best_quote = pair_addr, quote
            if best_pair is None:
                continue
            journal.clear()
            ctx = CallContext(scratch, member, 0, -1, sink)
            pair = scratch.pairs[best_pair]
            reserve_in = pair.reserve0 if pair.token0 == token else pair.reserve1
            reserve_out = pair.reserve1 if pair.token0 == token else pair.reserve0
            try:
                token_transfer(ctx, token, member, best_pair, balance)
                received = scratch.balance_of(token, best_pair) - reserve_in
                out = get_amount_out(received, reserve_in, reserve_out)
                if out <= 0:
                    raise Revert("zero quote")
                out0, out1 = (0, out) if pair.token0 == token else (out, 0)
                pair_swap(ctx, best_pair, out0, out1)
            except Revert:
                scratch.rollback()
                continue
            trace.append(("sell", member, token, best_pair, balance, out))

    value = sum(scratch.balance_of(pricing, m) for m in members)
    return AccountingReport(value, trace)

