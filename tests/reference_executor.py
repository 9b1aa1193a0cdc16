"""Reference executor for the differential tests.

This is the executor that `popfuzz.world.execute_sequence` replaced, kept
as it was: one whole-state copy per transaction, restored when a repeat
reverts, followed by a re-run of the repeats that had succeeded. It is slow
but simple, so the journaled executor is checked against it.
"""

from __future__ import annotations

from typing import Optional

from popfuzz.runtime import dispatch
from popfuzz.world import (
    CallContext,
    ExecutionReceipt,
    NativeFlow,
    PairCheck,
    RawCall,
    Revert,
    Transaction,
    TransferEvent,
    TxOutcome,
    WorldState,
)


def _tx_target(tx: Transaction):
    if isinstance(tx.kind, RawCall):
        return tx.kind.target
    return tx.sender


def run_transaction(state: WorldState, tx: Transaction, tx_index: int, recorder: list):
    """Execute one (already repeat-expanded) transaction in place. Raises Revert."""
    ctx = CallContext(state, tx.sender, tx.value, tx_index, recorder)
    if tx.value > 0:
        have = state.native_of(tx.sender)
        if have < tx.value:
            raise Revert("insufficient native balance")
        state.set_native(tx.sender, have - tx.value)
        target = _tx_target(tx)
        state.set_native(target, state.native_of(target) + tx.value)
    return dispatch(ctx, tx.kind)


def execute_sequence_reference(
    state: WorldState,
    txs: list[Transaction],
    max_len: int = 16,
    logical_indices: Optional[list[int]] = None,
) -> ExecutionReceipt:
    if logical_indices is None:
        logical_indices = list(range(len(txs)))
    n_logical = sum(1 for i in logical_indices if i >= 0)
    if n_logical > max_len:
        raise ValueError(f"sequence length {n_logical} exceeds max {max_len}")

    work = state.copy()
    outcomes: list[TxOutcome] = []
    events: list[TransferEvent] = []
    native_flows: list[NativeFlow] = []
    pair_checks: list[PairCheck] = []
    dead = False

    tx_index = 0
    for pos, tx in enumerate(txs):
        logical = logical_indices[pos]

        # One snapshot covers all repeats of this transaction. If repeat r
        # reverts, the pre-transaction state is restored and the r successful
        # repeats are re-run without re-recording; every later repeat reverts
        # identically and is short-circuited.
        block_snap = work.copy()
        returned = TxOutcome(True, "", logical)
        for rep in range(tx.repeat):
            pairs = work.pairs
            pre_k = {a: p.reserve0 * p.reserve1 for a, p in pairs.items()} if pairs else None
            recorder: list[TransferEvent] = []
            try:
                run_transaction(work, tx, tx_index, recorder)
            except Revert as exc:
                work = block_snap
                discard: list[TransferEvent] = []
                for _ in range(rep):
                    run_transaction(work, tx, tx_index, discard)
                    discard.clear()
                left = tx.repeat - rep
                outcomes.extend([TxOutcome(False, exc.reason, logical)] * left)
                dead = dead or (rep == 0 and logical >= 0)
                tx_index += left
                break
            else:
                outcomes.append(returned)
                events.extend(recorder)
                if tx.value > 0:
                    native_flows.append(
                        NativeFlow(tx.sender, _tx_target(tx), tx.value, tx_index)
                    )
                balances = work.balances
                for addr, p in pairs.items():
                    b0 = balances.get((p.token0, addr), 0)
                    b1 = balances.get((p.token1, addr), 0)
                    k_decreased = p.reserve0 * p.reserve1 < pre_k[addr]
                    if p.reserve0 != b0 or p.reserve1 != b1 or k_decreased:
                        pair_checks.append(
                            PairCheck(addr, p.reserve0, p.reserve1, b0, b1,
                                      k_decreased, tx_index)
                        )
                tx_index += 1

    return ExecutionReceipt(outcomes, events, native_flows, pair_checks, work, dead)
