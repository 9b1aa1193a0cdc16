"""Deterministic DeFi world model: token ledgers, contract dispatch, tx execution.

Amounts are arbitrary-precision unsigned integers capped at 2**256 - 1; all
arithmetic is checked and failures revert. While a sequence executes, every
write to the world is recorded in an undo journal; a reverted transaction rolls
the journal back, restoring the pre-transaction state, but does not abort the
rest of the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

UINT_MAX = 2**256 - 1

# Address is a 20-byte identifier rendered as 0x-prefixed lowercase hex.
# Lexicographic order on the canonical string equals byte order.
Address = str

ZERO_ADDRESS: Address = "0x" + "00" * 20
BURN_ADDRESS: Address = "0x" + "00" * 18 + "dead"
NATIVE: Address = "native"  # sentinel for the chain's native currency


def make_address(n: int) -> Address:
    """Deterministic synthetic address from a small integer."""
    if not 0 <= n < 2**160:
        raise ValueError("address index out of range")
    return "0x" + format(n, "040x")


class Revert(Exception):
    """Raised by contract code to abort and roll back the current transaction."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def checked_add(a: int, b: int) -> int:
    c = a + b
    if c > UINT_MAX:
        raise Revert("overflow")
    return c


def checked_sub(a: int, b: int) -> int:
    if b > a:
        raise Revert("underflow")
    return a - b


def checked_mul(a: int, b: int) -> int:
    c = a * b
    if c > UINT_MAX:
        raise Revert("overflow")
    return c


@dataclass(frozen=True)
class TokenDef:
    """Static token configuration. Mutable token state lives in WorldState."""

    address: Address
    symbol: str
    # Per-mille fee charged on top of the transferred amount when the transfer
    # touches a pair address (the "pre-computed fee" pattern). 0 disables.
    fee_rate: int = 0
    # "to_pair": fee only on transfers into a pair; "both": either direction.
    fee_direction: str = "to_pair"
    public_mint: bool = False
    public_burn: bool = False
    is_lp: bool = False


@dataclass
class PairState:
    """Constant-product pair. token0 < token1 under address order."""

    address: Address
    token0: Address
    token1: Address
    reserve0: int
    reserve1: int
    lp_token: Address
    lp_supply: int = 0

    def copy(self) -> "PairState":
        return PairState(
            self.address,
            self.token0,
            self.token1,
            self.reserve0,
            self.reserve1,
            self.lp_token,
            self.lp_supply,
        )


@dataclass
class ContractState:
    """A scenario contract: behavior selected by kind, state in a flat dict."""

    address: Address
    kind: str
    storage: dict

    def copy(self) -> "ContractState":
        return ContractState(self.address, self.kind, dict(self.storage))


@dataclass
class WorldState:
    tokens: dict[Address, TokenDef] = field(default_factory=dict)
    balances: dict[tuple[Address, Address], int] = field(default_factory=dict)
    allowances: dict[tuple[Address, Address, Address], int] = field(default_factory=dict)
    native_balances: dict[Address, int] = field(default_factory=dict)
    supplies: dict[Address, int] = field(default_factory=dict)
    pairs: dict[Address, PairState] = field(default_factory=dict)
    contracts: dict[Address, ContractState] = field(default_factory=dict)
    macros: dict = field(default_factory=dict)  # name -> actions.MacroDef, shared
    # Undo journal, active while not None: every write appends
    # (container, key, old value), where the container is a dict (old value
    # _ABSENT if the key was missing) or a PairState (key is the field name).
    # Bookkeeping only, so it takes no part in state equality.
    journal: Optional[list] = field(default=None, compare=False, repr=False)

    def copy(self) -> "WorldState":
        return WorldState(
            tokens=self.tokens,  # immutable defs, shared
            balances=dict(self.balances),
            allowances=dict(self.allowances),
            native_balances=dict(self.native_balances),
            supplies=dict(self.supplies),
            pairs={a: p.copy() for a, p in self.pairs.items()},
            contracts={a: c.copy() for a, c in self.contracts.items()},
            macros=self.macros,
        )

    # --- ledger access -----------------------------------------------------

    def balance_of(self, token: Address, holder: Address) -> int:
        return self.balances.get((token, holder), 0)

    def set_balance(self, token: Address, holder: Address, amount: int) -> None:
        # the hottest writer in the executor, so _write is inlined here
        key = (token, holder)
        balances = self.balances
        if self.journal is not None:
            self.journal.append((balances, key, balances.get(key, _ABSENT)))
        if amount == 0:
            balances.pop(key, None)
        else:
            if amount > UINT_MAX:
                raise Revert("overflow")
            balances[key] = amount

    def native_of(self, holder: Address) -> int:
        return self.native_balances.get(holder, 0)

    def set_native(self, holder: Address, amount: int) -> None:
        self._write(self.native_balances, holder, amount)

    def allowance(self, token: Address, owner: Address, spender: Address) -> int:
        return self.allowances.get((token, owner, spender), 0)

    def set_allowance(self, token: Address, owner: Address, spender: Address, amount: int) -> None:
        self._write(self.allowances, (token, owner, spender), amount)

    def set_supply(self, token: Address, amount: int) -> None:
        self._assign(self.supplies, token, amount)

    def _write(self, ledger: dict, key, amount: int) -> None:
        """Store an amount in a ledger that keeps no zero entries."""
        if self.journal is not None:
            self.journal.append((ledger, key, ledger.get(key, _ABSENT)))
        if amount == 0:
            ledger.pop(key, None)
        else:
            ledger[key] = amount

    def _assign(self, container: dict, key, value) -> None:
        if self.journal is not None:
            self.journal.append((container, key, container.get(key, _ABSENT)))
        container[key] = value

    # --- pair and contract fields -------------------------------------------

    def set_reserves(self, pair: PairState, reserve0: int, reserve1: int) -> None:
        if self.journal is not None:
            self.journal.append((pair, "reserve0", pair.reserve0))
            self.journal.append((pair, "reserve1", pair.reserve1))
        pair.reserve0 = reserve0
        pair.reserve1 = reserve1

    def set_lp_supply(self, pair: PairState, amount: int) -> None:
        if self.journal is not None:
            self.journal.append((pair, "lp_supply", pair.lp_supply))
        pair.lp_supply = amount
        self.set_supply(pair.lp_token, amount)

    def set_storage(self, contract: ContractState, key, value) -> None:
        self._assign(contract.storage, key, value)

    def delete_storage(self, contract: ContractState, key) -> None:
        storage = contract.storage
        if self.journal is not None:
            self.journal.append((storage, key, storage[key]))
        del storage[key]

    # --- undo journal ------------------------------------------------------

    def rollback(self) -> None:
        """Undo every write in the journal, newest first, leaving it empty."""
        journal = self.journal
        while journal:
            container, key, old = journal.pop()
            if type(container) is not dict:
                setattr(container, key, old)
            elif old is _ABSENT:
                container.pop(key, None)
            else:
                container[key] = old


# Journal marker for a dict key that did not exist before the write.
_ABSENT = object()


# Event records are built millions of times per campaign, so they are
# named tuples: immutable, and far cheaper to construct than frozen dataclasses.


class TransferEvent(NamedTuple):
    token: Address
    src: Address
    dst: Address
    amount: int
    tx_index: int


class NativeFlow(NamedTuple):
    src: Address
    dst: Address
    amount: int
    tx_index: int


class PairCheck(NamedTuple):
    """Per-transaction pair health sample used by the imbalance criterion."""

    pair: Address
    reserve0: int
    reserve1: int
    balance0: int
    balance1: int
    k_decreased: bool
    tx_index: int


class TxOutcome(NamedTuple):
    ok: bool
    reason: str = ""
    logical_index: int = -1  # index into the attacker sequence, -1 for victim txs


@dataclass
class ExecutionReceipt:
    outcomes: list[TxOutcome]
    events: list[TransferEvent]
    native_flows: list[NativeFlow]
    pair_checks: list[PairCheck]
    state: WorldState
    dead: bool  # some attacker transaction reverted on its first repeat


class CallContext:
    """Execution context for one transaction (and its internal calls)."""

    __slots__ = ("state", "sender", "msg_value", "tx_index", "recorder", "depth")

    def __init__(self, state: WorldState, sender: Address, msg_value: int, tx_index: int, recorder):
        self.state = state
        self.sender = sender
        self.msg_value = msg_value
        self.tx_index = tx_index
        self.recorder = recorder
        self.depth = 0

    def emit_transfer(self, token: Address, src: Address, dst: Address, amount: int) -> None:
        if amount > 0:
            self.recorder.append(TransferEvent(token, src, dst, amount, self.tx_index))


# --- ERC20 substrate -------------------------------------------------------


def _transfer_fee(state: WorldState, token: TokenDef, src: Address, dst: Address) -> int:
    if token.fee_rate == 0:
        return 0
    to_pair = dst in state.pairs
    from_pair = src in state.pairs
    if token.fee_direction == "to_pair":
        return token.fee_rate if to_pair else 0
    return token.fee_rate if (to_pair or from_pair) else 0


def token_transfer(ctx: CallContext, token: Address, src: Address, dst: Address, amount: int) -> None:
    """Move tokens, applying the fee hook if configured. Zero transfers revert."""
    state = ctx.state
    tdef = state.tokens.get(token)
    if tdef is None:
        raise Revert("unknown token")
    if amount == 0:
        raise Revert("zero transfer")
    rate = _transfer_fee(state, tdef, src, dst)
    fee = amount * rate // 1000
    debit = checked_add(amount, fee)
    state.set_balance(token, src, checked_sub(state.balance_of(token, src), debit))
    state.set_balance(token, dst, checked_add(state.balance_of(token, dst), amount))
    ctx.recorder.append(TransferEvent(token, src, dst, amount, ctx.tx_index))
    if fee > 0:
        state.set_balance(token, BURN_ADDRESS, checked_add(state.balance_of(token, BURN_ADDRESS), fee))
        ctx.recorder.append(TransferEvent(token, src, BURN_ADDRESS, fee, ctx.tx_index))


# --- transactions ----------------------------------------------------------


@dataclass(frozen=True)
class RawCall:
    target: Address
    fn: str
    args: tuple


@dataclass(frozen=True)
class Transaction:
    sender: Address
    kind: object  # RawCall or actions.ActionSpec
    value: int = 0
    repeat: int = 1

    def __post_init__(self):
        if not 1 <= self.repeat <= 1000:
            raise ValueError("repeat out of [1, 1000]")


# Dispatcher is injected to avoid a circular import with amm/scenarios/actions.
# Signature: dispatch(ctx, tx_kind) -> result
_DISPATCH: Optional[Callable] = None


def set_dispatcher(fn: Callable) -> None:
    global _DISPATCH
    _DISPATCH = fn


def _pay_value(state: WorldState, tx: Transaction) -> None:
    """Move a transaction's native value from its sender to its target."""
    have = state.native_of(tx.sender)
    if have < tx.value:
        raise Revert("insufficient native balance")
    state.set_native(tx.sender, have - tx.value)
    target = _tx_target(tx)
    state.set_native(target, state.native_of(target) + tx.value)


def _tx_target(tx: Transaction) -> Address:
    kind = tx.kind
    if isinstance(kind, RawCall):
        return kind.target
    return tx.sender  # actions run "inside" the attacker contract


def execute_sequence(
    state: WorldState,
    txs: list[Transaction],
    max_len: int = 16,
    logical_indices: Optional[list[int]] = None,
    *,
    stop_at_dead: bool = False,
) -> ExecutionReceipt:
    """Run a transaction list over a copy of `state`.

    `logical_indices[pos]` is transaction pos's index in the attacker
    sequence, or -1 for a victim transaction; by default every transaction
    is the attacker's. Each repeat of a transaction is an independent
    transaction: a failing repetition reverts only itself. An attacker
    transaction whose first repeat reverts can never succeed, which marks the
    receipt `dead`. Execution continues past reverts, unless `stop_at_dead`
    is set: then it stops at the first such transaction. The receipt then ends
    with that transaction's outcomes, every list in it is a prefix of the full
    run's, and its state is the state at the stop.
    """
    if logical_indices is None:
        logical_indices = range(len(txs))
    n_logical = sum(1 for i in logical_indices if i >= 0)
    if n_logical > max_len:
        raise ValueError(f"sequence length {n_logical} exceeds max {max_len}")

    work = state.copy()
    journal = work.journal = []
    outcomes: list[TxOutcome] = []
    events: list[TransferEvent] = []
    native_flows: list[NativeFlow] = []
    pair_checks: list[PairCheck] = []
    dead = False
    balances = work.balances
    # Rollback restores pair fields in place, so the pair objects stay the
    # same for the whole run. ks[i] is pair i's reserve product at the start
    # of the current repeat; only a successful repeat moves it.
    pairs = list(work.pairs.items())
    ks = [p.reserve0 * p.reserve1 for _, p in pairs]

    tx_index = 0
    for tx, logical in zip(txs, logical_indices):
        # Each repeat starts with an empty journal, which marks the state it
        # started from, and records its transfers straight into `events`. If
        # repeat r reverts, rolling the journal back and truncating `events`
        # leaves exactly the state and events of the r successful repeats. The restored state is the one repeat r
        # started from, so every later repeat of the same transaction would
        # revert identically: they are short-circuited.
        # All repeats of one transaction share the same outcome values, so a
        # single immutable instance is reused for every repetition.
        returned = TxOutcome(True, "", logical)
        kind, value = tx.kind, tx.value
        ctx = CallContext(work, tx.sender, value, tx_index, events)
        for rep in range(tx.repeat):
            ctx.tx_index = tx_index
            n_events = len(events)
            try:
                if value > 0:
                    _pay_value(work, tx)
                _DISPATCH(ctx, kind)
            except Revert as exc:
                work.rollback()
                del events[n_events:]
                left = tx.repeat - rep
                outcomes.extend([TxOutcome(False, exc.reason, logical)] * left)
                tx_index += left
                break
            journal.clear()
            outcomes.append(returned)
            if value > 0:
                native_flows.append(NativeFlow(tx.sender, _tx_target(tx), value, tx_index))
            for i, (addr, p) in enumerate(pairs):
                r0, r1 = p.reserve0, p.reserve1
                k = r0 * r1
                k_decreased = k < ks[i]
                ks[i] = k
                b0 = balances.get((p.token0, addr), 0)
                b1 = balances.get((p.token1, addr), 0)
                if r0 != b0 or r1 != b1 or k_decreased:
                    pair_checks.append(PairCheck(addr, r0, r1, b0, b1, k_decreased, tx_index))
            tx_index += 1
        else:
            continue
        # repeat `rep` reverted; if it was the first, the rest were short-circuited
        if rep == 0 and logical >= 0:
            dead = True
            if stop_at_dead:
                break

    work.journal = None
    return ExecutionReceipt(outcomes, events, native_flows, pair_checks, work, dead)
