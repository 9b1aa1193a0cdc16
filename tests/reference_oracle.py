"""Reference fund-flow classifier and liquidation accounting for the
differential tests.

These are the `popfuzz.oracle.classify` and `popfuzz.oracle.account` that
the current ones replaced, kept as they were: `classify_reference` groups
the events into per-transaction lists and scans each list three times, and
`account_reference` copies the whole scratch state before every redeem and
every sell and restores the copy when the step reverts. Both are slow but
simple, so the current versions are checked against them.
"""

from __future__ import annotations

from popfuzz.amm import get_amount_out, pair_burn, pair_swap, pair_sync
from popfuzz.oracle import (
    IMBALANCED_PAIR,
    UNCONDITIONAL_BURN,
    UNCONDITIONAL_GAIN,
    AccountingReport,
    Candidate,
)
from popfuzz.world import (
    Address,
    BURN_ADDRESS,
    CallContext,
    ExecutionReceipt,
    Revert,
    WorldState,
    token_transfer,
)


def classify_reference(receipt: ExecutionReceipt, cluster: frozenset) -> list[Candidate]:
    """Detect structural candidates on one execution. PositiveProfit is not
    detected here; it needs the accounting value and is added by the engine."""
    candidates: list[Candidate] = []
    outcomes = receipt.outcomes  # one outcome per tx_index, in order

    def attacker_logical(tx_index: int):
        """Logical index of a successful attacker transaction, else None."""
        o = outcomes[tx_index]
        if o.ok and o.logical_index >= 0:
            return o.logical_index
        return None

    imbalance_culprits = sorted(
        {attacker_logical(c.tx_index) for c in receipt.pair_checks}
        - {None}
    )
    if imbalance_culprits:
        candidates.append(
            Candidate(IMBALANCED_PAIR, tuple(imbalance_culprits))
        )

    by_tx: dict[int, list] = {}
    for ev in receipt.events:
        by_tx.setdefault(ev.tx_index, []).append(ev)
    native_out = {f.tx_index for f in receipt.native_flows if f.src in cluster}

    gain_culprits, burn_culprits = set(), set()
    for idx, events in by_tx.items():
        logical = attacker_logical(idx)
        if logical is None:
            continue
        outflow = idx in native_out or any(
            ev.src in cluster and ev.dst not in cluster for ev in events
        )
        if outflow:
            continue
        if any(ev.dst in cluster and ev.src not in cluster for ev in events):
            gain_culprits.add(logical)
        if any(ev.dst == BURN_ADDRESS and ev.src not in cluster for ev in events):
            burn_culprits.add(logical)

    if gain_culprits:
        candidates.append(
            Candidate(UNCONDITIONAL_GAIN, tuple(sorted(gain_culprits)))
        )
    if burn_culprits:
        candidates.append(
            Candidate(UNCONDITIONAL_BURN, tuple(sorted(burn_culprits)))
        )
    return candidates


def account_reference(
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

    scratch = state.copy()
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
            snap = scratch.copy()
            ctx = CallContext(scratch, member, 0, -1, sink)
            try:
                token_transfer(ctx, pair.lp_token, member, pair_addr, lp)
                pair_burn(ctx, pair_addr, member)
            except Revert:
                scratch = snap
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
            snap = scratch.copy()
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
                scratch = snap
                continue
            trace.append(("sell", member, token, best_pair, balance, out))

    value = sum(scratch.balance_of(pricing, m) for m in members)
    return AccountingReport(value, trace)
