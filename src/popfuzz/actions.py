"""DeFi action library and the action-based sequence mutator.

An action is a high-level DeFi operation lowered at execution time into
dependency-correct primitive calls (approve before swap, amounts computed from
live balances). The mutator works at action granularity and keeps every
sequence inside the ActionSpec invariants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .amm import ROUTER_ADDRESS, get_amount_out
from .world import Address, RawCall, Revert, Transaction, WorldState

MAX_SEQUENCE_LEN = 16

A1_TRANSFER_PCT = "transfer_pct"
A2_ROUTER_SWAP = "router_swap"
A3_LIQUIDITY = "liquidity"
A4_PAIR_SWAP = "pair_swap"
A5_PAIR_LIQUIDITY = "pair_liquidity"
MACRO = "macro"

ACTION_KINDS = (A1_TRANSFER_PCT, A2_ROUTER_SWAP, A3_LIQUIDITY, A4_PAIR_SWAP, A5_PAIR_LIQUIDITY)


@dataclass(frozen=True)
class ActionSpec:
    kind: str
    token: Address = ""  # A1/A2: source token
    token2: Address = ""  # A2: destination token
    target: Address = ""  # A1: recipient; A3-A5: pair address
    percentage: int = 0
    direction: str = ""  # A3: add|remove; A4: swap|flashloan; A5: mint|burn
    side: int = 0  # A4: token side sold or borrowed (0 or 1)
    body: tuple = ()  # A4 flashloan: nested Transaction tuple
    macro: str = ""
    args: tuple = ()

    def __post_init__(self):
        if not 0 <= self.percentage <= 100:
            raise ValueError("percentage out of [0, 100]")


@dataclass(frozen=True)
class FnSig:
    """One externally callable function of the scenario's closed world."""

    target: Address
    fn: str
    arg_types: tuple  # of "address" | "uint"
    payable: bool = False


@dataclass(frozen=True)
class MacroDef:
    """A scenario-defined call macro: a named, parameterized call template.

    Template args are either literals or placeholders:
    ("param", i) substitutes the i-th macro argument, ("sender",) the caller.
    """

    name: str
    param_types: tuple  # of "uint" | "address"
    calls: tuple  # of (target, fn, template_args)


@dataclass(frozen=True)
class Universe:
    """The scenario's closed address/function world the mutator draws from."""

    addresses: tuple
    tokens: tuple
    pairs: tuple
    pricing_tokens: tuple
    surface: tuple  # of FnSig
    macros: tuple  # of MacroDef
    attacker: Address
    # initial balance/reserve magnitudes, used to anchor a share of integer
    # argument draws at the scale where live amounts actually sit
    amount_anchors: tuple = ()

    def macro_by_name(self, name: str) -> MacroDef:
        for m in self.macros:
            if m.name == name:
                return m
        raise KeyError(name)


@dataclass
class TxSequence:
    txs: list
    pricing_token: Address

    def copy(self) -> "TxSequence":
        return TxSequence(list(self.txs), self.pricing_token)

    def __len__(self) -> int:
        return len(self.txs)


# --- lowering ---------------------------------------------------------------


@dataclass(frozen=True)
class LoweredPairSwap:
    """A low-level pair swap/flashloan primitive with an optional callback body."""

    pair: Address
    out0: int
    out1: int
    body: tuple  # nested Transactions run inside the pair callback


def lower_action(spec: ActionSpec, state: WorldState, sender: Address):
    """Lower an action to primitive calls against the live state.

    Lowering reverts only on a macro it cannot expand (unknown name, wrong
    argument count); the emitted calls may still revert at execution.
    """
    if spec.kind == A1_TRANSFER_PCT:
        amount = state.balance_of(spec.token, sender) * spec.percentage // 100
        return [RawCall(spec.token, "transfer", (spec.target, amount))]

    if spec.kind == A2_ROUTER_SWAP:
        amount = state.balance_of(spec.token, sender) * spec.percentage // 100
        return [
            RawCall(spec.token, "approve", (ROUTER_ADDRESS, amount)),
            RawCall(ROUTER_ADDRESS, "swapExactIn", (spec.token, spec.token2, amount)),
        ]

    pair = state.pairs.get(spec.target)

    if spec.kind == A3_LIQUIDITY:
        if pair is None:
            return [RawCall(spec.target, "addLiquidity", ())]  # reverts: unknown target
        if spec.direction == "add":
            a0 = state.balance_of(pair.token0, sender) * spec.percentage // 100
            a1 = state.balance_of(pair.token1, sender) * spec.percentage // 100
            return [
                RawCall(pair.token0, "approve", (ROUTER_ADDRESS, a0)),
                RawCall(pair.token1, "approve", (ROUTER_ADDRESS, a1)),
                RawCall(ROUTER_ADDRESS, "addLiquidity", (pair.token0, pair.token1, a0, a1)),
            ]
        lp = state.balance_of(pair.lp_token, sender) * spec.percentage // 100
        return [
            RawCall(pair.lp_token, "approve", (ROUTER_ADDRESS, lp)),
            RawCall(ROUTER_ADDRESS, "removeLiquidity", (pair.address, lp)),
        ]

    if spec.kind == A4_PAIR_SWAP:
        if pair is None:
            return [RawCall(spec.target, "swap", (0, 0))]
        if spec.direction == "swap":
            token_in = pair.token0 if spec.side == 0 else pair.token1
            r_in = pair.reserve0 if spec.side == 0 else pair.reserve1
            r_out = pair.reserve1 if spec.side == 0 else pair.reserve0
            amount_in = state.balance_of(token_in, sender) * spec.percentage // 100
            out = get_amount_out(amount_in, r_in, r_out)
            out0, out1 = (0, out) if spec.side == 0 else (out, 0)
            return [
                RawCall(token_in, "transfer", (pair.address, amount_in)),
                RawCall(pair.address, "swap", (out0, out1)),
            ]
        borrow = (pair.reserve0 if spec.side == 0 else pair.reserve1) * spec.percentage // 100
        out0, out1 = (borrow, 0) if spec.side == 0 else (0, borrow)
        return [LoweredPairSwap(pair.address, out0, out1, spec.body)]

    if spec.kind == A5_PAIR_LIQUIDITY:
        if pair is None:
            return [RawCall(spec.target, "mint", (sender,))]
        if spec.direction == "mint":
            a0 = state.balance_of(pair.token0, sender) * spec.percentage // 100
            a1 = state.balance_of(pair.token1, sender) * spec.percentage // 100
            calls = []
            if a0:
                calls.append(RawCall(pair.token0, "transfer", (pair.address, a0)))
            if a1:
                calls.append(RawCall(pair.token1, "transfer", (pair.address, a1)))
            calls.append(RawCall(pair.address, "mint", (sender,)))
            return calls
        lp = state.balance_of(pair.lp_token, sender) * spec.percentage // 100
        return [
            RawCall(pair.lp_token, "transfer", (pair.address, lp)),
            RawCall(pair.address, "burn", (sender,)),
        ]

    if spec.kind == MACRO:
        macro = state.macros.get(spec.macro)
        if macro is None:
            raise Revert("unknown macro")
        if len(spec.args) != len(macro.param_types):
            raise Revert("bad args")
        calls = []
        for target, fn, template in macro.calls:
            args = []
            for item in template:
                if isinstance(item, tuple) and item and item[0] == "param":
                    args.append(spec.args[item[1]])
                elif isinstance(item, tuple) and item and item[0] == "sender":
                    args.append(sender)
                else:
                    args.append(item)
            calls.append(RawCall(target, fn, tuple(args)))
        return calls

    raise ValueError(f"unknown action kind {spec.kind!r}")


# --- random generation ------------------------------------------------------


def log_uniform_uint(rng: random.Random) -> int:
    """Draw over [0, 2**256) with mass spread across magnitudes, not values.

    A quarter of the draws are confined to small magnitudes (<= 64 bits),
    where almost all live balances and reserves sit.
    """
    bits = rng.randint(0, 64) if rng.random() < 0.25 else rng.randint(0, 256)
    if bits == 0:
        return 0
    return rng.getrandbits(bits)


def random_amount(rng: random.Random, universe: Universe) -> int:
    """Integer argument draw: mostly log-uniform over [0, 2**256), but a
    share of draws is a percentage of a scenario balance or reserve, since
    amounts near live magnitudes are the ones that both execute and matter."""
    if universe.amount_anchors and rng.random() < 0.3:
        anchor = rng.choice(universe.amount_anchors)
        return anchor * rng.randint(1, 100) // 100
    return log_uniform_uint(rng)


def random_address(rng: random.Random, universe: Universe) -> Address:
    """Address argument draw, biased toward the attacker (most exploit calls
    name the attacker as recipient or beneficiary)."""
    if rng.random() < 0.3:
        return universe.attacker
    return rng.choice(universe.addresses)


def random_action(rng: random.Random, universe: Universe) -> ActionSpec:
    kinds = list(ACTION_KINDS) if universe.pairs else [A1_TRANSFER_PCT]
    kinds += [MACRO] * len(universe.macros)
    kind = rng.choice(kinds)
    pct = rng.randint(0, 100)
    if kind == A1_TRANSFER_PCT:
        return ActionSpec(
            kind,
            token=rng.choice(universe.tokens),
            target=random_address(rng, universe),
            percentage=pct,
        )
    if kind == MACRO:
        macro = rng.choice(universe.macros)
        return ActionSpec(MACRO, macro=macro.name, args=_random_macro_args(rng, universe, macro))
    pair = rng.choice(universe.pairs)
    if kind == A2_ROUTER_SWAP:
        side = rng.randint(0, 1)
        t_in, t_out = (pair.token0, pair.token1) if side == 0 else (pair.token1, pair.token0)
        return ActionSpec(kind, token=t_in, token2=t_out, target=pair.address, percentage=pct)
    if kind == A3_LIQUIDITY:
        return ActionSpec(
            kind, target=pair.address, percentage=pct, direction=rng.choice(("add", "remove"))
        )
    if kind == A4_PAIR_SWAP:
        direction = rng.choice(("swap", "flashloan"))
        body = ()
        if direction == "flashloan":
            body = tuple(
                Transaction(universe.attacker, _random_body_action(rng, universe, pair))
                for _ in range(rng.randint(1, 2))
            )
        return ActionSpec(
            kind,
            target=pair.address,
            percentage=pct,
            direction=direction,
            side=rng.randint(0, 1),
            body=body,
        )
    return ActionSpec(
        A5_PAIR_LIQUIDITY,
        target=pair.address,
        percentage=pct,
        direction=rng.choice(("mint", "burn")),
    )


def _random_body_action(rng: random.Random, universe: Universe, pair) -> ActionSpec:
    # Flashloan bodies nest one level only: transfers and router swaps.
    if rng.random() < 0.5:
        return ActionSpec(
            A1_TRANSFER_PCT,
            token=rng.choice(universe.tokens),
            target=random_address(rng, universe),
            percentage=rng.randint(0, 100),
        )
    side = rng.randint(0, 1)
    t_in, t_out = (pair.token0, pair.token1) if side == 0 else (pair.token1, pair.token0)
    return ActionSpec(
        A2_ROUTER_SWAP, token=t_in, token2=t_out, target=pair.address, percentage=rng.randint(0, 100)
    )


def _random_macro_args(rng: random.Random, universe: Universe, macro: MacroDef) -> tuple:
    return tuple(
        random_amount(rng, universe) if t == "uint" else random_address(rng, universe)
        for t in macro.param_types
    )


def random_raw_call(
    rng: random.Random, universe: Universe, uniform_args: bool = False
) -> Transaction:
    """A raw external call. NOACT mode draws integer arguments uniformly over
    the full 256-bit range; otherwise they are log-uniform."""
    sig = rng.choice(universe.surface)
    args = []
    for t in sig.arg_types:
        if t == "address":
            args.append(random_address(rng, universe))
        elif uniform_args:
            args.append(rng.getrandbits(256))
        else:
            args.append(random_amount(rng, universe))
    value = 0
    if sig.payable and rng.random() < 0.3:
        value = rng.getrandbits(256) if uniform_args else random_amount(rng, universe)
    return Transaction(
        universe.attacker, RawCall(sig.target, sig.fn, tuple(args)), value=value
    )


def _random_repeat(rng: random.Random) -> int:
    if rng.random() < 0.7:
        return 1
    return min(1000, 2 ** rng.randint(0, 10))


def random_transaction(rng: random.Random, universe: Universe, noact: bool) -> Transaction:
    if noact:
        tx = random_raw_call(rng, universe, uniform_args=True)
    elif rng.random() < 0.25:
        tx = random_raw_call(rng, universe)
    else:
        tx = Transaction(universe.attacker, random_action(rng, universe))
    return replace(tx, repeat=_random_repeat(rng))


def seed_sequence(rng: random.Random, universe: Universe, noact: bool = False) -> TxSequence:
    return TxSequence([random_transaction(rng, universe, noact)], universe.pricing_tokens[0])


# --- mutation ---------------------------------------------------------------

INSERT = "insert"
MUTATE_ARGS = "mutate_args"
DELETE = "delete"
MUTATE_PRICING = "mutate_pricing"

# The paper gives no operator mix; insertion and argument search dominate
# because sequence growth and parameter search are both load-bearing.
_OP_TABLE = (
    (INSERT, 40),
    (MUTATE_ARGS, 40),
    (DELETE, 15),
    (MUTATE_PRICING, 5),
)


def _pick_op(rng: random.Random) -> str:
    total = sum(w for _, w in _OP_TABLE)
    roll = rng.randrange(total)
    for op, w in _OP_TABLE:
        if roll < w:
            return op
        roll -= w
    raise AssertionError


def mutate(
    seq: TxSequence, rng: random.Random, universe: Universe, noact: bool = False
) -> TxSequence:
    """Apply exactly one mutation operator; the result always satisfies the
    sequence-length and percentage invariants."""
    out = seq.copy()
    op = _pick_op(rng)
    if op == INSERT and len(out) >= MAX_SEQUENCE_LEN:
        op = MUTATE_ARGS
    if op == DELETE and len(out) <= 1:
        op = MUTATE_ARGS

    if op == INSERT:
        pos = rng.randint(0, len(out))
        out.txs.insert(pos, random_transaction(rng, universe, noact))
    elif op == DELETE:
        out.txs.pop(rng.randrange(len(out)))
    elif op == MUTATE_PRICING:
        out.pricing_token = rng.choice(universe.pricing_tokens)
    else:
        i = rng.randrange(len(out))
        out.txs[i] = _mutate_tx(out.txs[i], rng, universe, noact)
    return out


def _mutate_tx(
    tx: Transaction, rng: random.Random, universe: Universe, noact: bool
) -> Transaction:
    roll = rng.random()
    if roll < 0.15:
        return replace(tx, repeat=_random_repeat(rng))
    kind = tx.kind
    if isinstance(kind, RawCall):
        if not kind.args:
            return replace(tx, repeat=_random_repeat(rng))
        i = rng.randrange(len(kind.args))
        args = list(kind.args)
        if isinstance(args[i], str):
            args[i] = random_address(rng, universe)
        else:
            args[i] = rng.getrandbits(256) if noact else random_amount(rng, universe)
        return replace(tx, kind=replace(kind, args=tuple(args)))
    spec = kind
    if spec.kind == MACRO:
        macro = universe.macro_by_name(spec.macro)
        if not macro.param_types:
            return tx
        i = rng.randrange(len(macro.param_types))
        args = list(spec.args)
        if macro.param_types[i] == "address":
            args[i] = random_address(rng, universe)
        else:
            args[i] = random_amount(rng, universe)
        return replace(tx, kind=replace(spec, args=tuple(args)))
    if spec.kind == A1_TRANSFER_PCT and rng.random() < 0.3:
        return replace(tx, kind=replace(spec, target=random_address(rng, universe)))
    return replace(tx, kind=replace(spec, percentage=rng.randint(0, 100)))


def splice(a: TxSequence, b: TxSequence, rng: random.Random) -> TxSequence:
    """Recombine two sequences: a prefix of `a` followed by a suffix of `b`.

    Lets structure discovered in one corpus entry (say, a pair-state probe)
    attach to another (say, a candidate setup) in a single step.
    """
    i = rng.randint(0, len(a))
    j = rng.randint(0, len(b))
    txs = (a.txs[:i] + b.txs[j:])[:MAX_SEQUENCE_LEN]
    if not txs:
        txs = [a.txs[0]]
    return TxSequence(txs, a.pricing_token)

