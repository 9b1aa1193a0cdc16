"""Call dispatch: routes raw calls and actions to tokens, router, pairs, and
scenario contracts. `CALL_TABLE` declares every callable function, and drives
dispatch, argument checks and the mutator's call surface; `CONTRACT_KINDS`
declares each contract kind's parameters and functions. Importing this module
wires the world executor."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Callable, NamedTuple, Optional

from .actions import ActionSpec, LoweredPairSwap, lower_action
from .amm import (
    ROUTER_ADDRESS,
    add_liquidity,
    pair_burn,
    pair_mint,
    pair_skim,
    pair_swap,
    pair_sync,
    remove_liquidity,
    swap_exact_in,
)
from .world import (
    Address,
    BURN_ADDRESS,
    CallContext,
    ContractState,
    RawCall,
    Revert,
    UINT_MAX,
    ZERO_ADDRESS,
    checked_add,
    checked_mul,
    checked_sub,
    set_dispatcher,
    token_transfer,
)

MAX_CALL_DEPTH = 8

ADDRESS = "address"
UINT = "uint"
SYMBOL = "symbol"  # contract parameters only: the symbol of a declared token

# Argument checks as source lines, one per declared type; {0} is the argument.
_ARG_CHECKS = {
    ADDRESS: "    if not isinstance({0}, str):\n        raise Revert('bad address')",
    UINT: (
        "    if not isinstance({0}, int) or isinstance({0}, bool) or {0} < 0 or {0} > UINT_MAX:\n"
        "        raise Revert('bad amount')"
    ),
}


def _compile_invoke(handler: Callable, arg_types: tuple, takes_target: bool) -> Callable:
    """Build `invoke(ctx, target, args)`: check the arity (`bad args`) and each
    argument's type in order, then call `handler(ctx, target, *args)`, or
    `handler(ctx, *args)` when it takes no target. Like the `__init__` that
    `dataclasses` writes, the checks are generated once, as straight-line code,
    so a call pays no loop and no function call per argument."""
    names = [f"a{i}" for i in range(len(arg_types))]
    if names:
        unpack = f"    try:\n        {', '.join(names)}, = args\n    except ValueError:\n"
        unpack += "        raise Revert('bad args') from None"
    else:
        unpack = "    if args:\n        raise Revert('bad args')"
    checks = [_ARG_CHECKS[t].format(name) for name, t in zip(names, arg_types)]
    call = ", ".join(["ctx"] + ["target"] * takes_target + names)
    body = [unpack, *checks, f"    return handler({call})"]
    source = "\n".join(["def invoke(ctx, target, args):", *body])
    namespace = {"handler": handler, "Revert": Revert, "UINT_MAX": UINT_MAX}
    exec(source, namespace)
    return namespace["invoke"]


@dataclass(frozen=True, slots=True)
class CallEntry:
    """One callable function: its handler, its argument types (`ADDRESS` or
    `UINT`), whether the mutator may send it native value, whether the mutator
    calls it at all, and the `TokenDef` flag, if any, without which the
    function does not exist."""

    handler: Callable
    arg_types: tuple = ()
    payable: bool = False
    exposed: bool = True
    flag: Optional[str] = None
    takes_target: InitVar[bool] = True
    invoke: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self, takes_target: bool):
        invoke = _compile_invoke(self.handler, self.arg_types, takes_target)
        object.__setattr__(self, "invoke", invoke)


class Param(NamedTuple):
    """A contract parameter: its type (`ADDRESS`, any scenario name; `SYMBOL`;
    or `UINT`) and its default, None when a scenario must set it."""

    type: str
    default: Optional[int] = None


class ContractKind(NamedTuple):
    """A scenario contract kind. Its resolved parameters are the contract's
    initial storage; its calls are its `CALL_TABLE` entries, whose handlers
    get the called ContractState as their target."""

    params: dict[str, Param]
    calls: dict[str, CallEntry]


# --- ERC-20 functions --------------------------------------------------------


def _transfer(ctx: CallContext, token: Address, to: Address, amount: int):
    token_transfer(ctx, token, ctx.sender, to, amount)
    return True


def _approve(ctx: CallContext, token: Address, spender: Address, amount: int):
    ctx.state.set_allowance(token, ctx.sender, spender, amount)
    return True


def _transfer_from(ctx: CallContext, token: Address, src: Address, dst: Address, amount: int):
    state = ctx.state
    allowed = state.allowance(token, src, ctx.sender)
    if allowed < amount:
        raise Revert("insufficient allowance")
    state.set_allowance(token, src, ctx.sender, allowed - amount)
    token_transfer(ctx, token, src, dst, amount)
    return True


def _balance_of(ctx: CallContext, token: Address, holder: Address):
    return ctx.state.balance_of(token, holder)


def _total_supply(ctx: CallContext, token: Address):
    return ctx.state.supplies.get(token, 0)


def _mint(ctx: CallContext, token: Address, to: Address, amount: int):
    state = ctx.state
    if amount == 0:
        raise Revert("zero mint")
    state.set_supply(token, checked_add(state.supplies.get(token, 0), amount))
    state.set_balance(token, to, checked_add(state.balance_of(token, to), amount))
    ctx.emit_transfer(token, ZERO_ADDRESS, to, amount)
    return True


def _burn(ctx: CallContext, token: Address, src: Address, amount: int):
    # Burn is modeled as a forced transfer to the burn address so that the
    # per-token conservation invariant (holders + burn = supply) holds.
    state = ctx.state
    if amount == 0:
        raise Revert("zero burn")
    state.set_balance(token, src, checked_sub(state.balance_of(token, src), amount))
    state.set_balance(token, BURN_ADDRESS, checked_add(state.balance_of(token, BURN_ADDRESS), amount))
    ctx.emit_transfer(token, src, BURN_ADDRESS, amount)
    return True


# --- scenario contract behaviors -------------------------------------------


def _sale_buy_tokens(ctx: CallContext, contract: ContractState, n: int):
    price = contract.storage["price"]
    unit = contract.storage["unit"]
    if unit == 0:
        raise Revert("division by zero")
    cost = checked_mul(n // unit, price)
    if ctx.msg_value < cost:
        raise Revert("insufficient payment")
    token_transfer(ctx, contract.storage["token"], contract.address, ctx.sender, n)
    return True


def _vault_of(ctx: CallContext, router: ContractState) -> ContractState:
    vault = ctx.state.contracts.get(router.storage["vault"])
    if vault is None or vault.kind != "vault":
        raise Revert("no vault")
    return vault


def _vault_buy(ctx: CallContext, router: ContractState, amount: int):
    vault = _vault_of(ctx, router)
    token = vault.storage["token"]
    shares = vault.storage["total_shares"]
    balance = ctx.state.balance_of(token, vault.address)
    # First depositor takes shares 1:1; later deposits are floored pro-rata.
    out = amount if shares == 0 or balance == 0 else amount * shares // balance
    ctx.state.set_storage(vault, "total_shares", shares + out)
    key = ("share", ctx.sender)
    ctx.state.set_storage(vault, key, vault.storage.get(key, 0) + out)
    allowed = ctx.state.allowance(token, ctx.sender, router.address)
    if allowed < amount:
        raise Revert("insufficient allowance")
    ctx.state.set_allowance(token, ctx.sender, router.address, allowed - amount)
    token_transfer(ctx, token, ctx.sender, vault.address, amount)
    return out


def _vault_sell(ctx: CallContext, router: ContractState, shares_amount: int):
    vault = _vault_of(ctx, router)
    token = vault.storage["token"]
    key = ("share", ctx.sender)
    held = vault.storage.get(key, 0)
    if shares_amount == 0 or shares_amount > held:
        raise Revert("insufficient shares")
    total = vault.storage["total_shares"]
    balance = ctx.state.balance_of(token, vault.address)
    out = shares_amount * balance // total
    ctx.state.set_storage(vault, key, held - shares_amount)
    ctx.state.set_storage(vault, "total_shares", total - shares_amount)
    if out == 0:
        raise Revert("zero redemption")
    token_transfer(ctx, token, vault.address, ctx.sender, out)
    return out


def _vault_sell_all(ctx: CallContext, router: ContractState):
    vault = _vault_of(ctx, router)
    return _vault_sell(ctx, router, vault.storage.get(("share", ctx.sender), 0))


def _staking_stake(ctx: CallContext, contract: ContractState, amount: int):
    token = contract.storage["token"]
    allowed = ctx.state.allowance(token, ctx.sender, contract.address)
    if allowed < amount:
        raise Revert("insufficient allowance")
    ctx.state.set_allowance(token, ctx.sender, contract.address, allowed - amount)
    token_transfer(ctx, token, ctx.sender, contract.address, amount)
    ord_ = contract.storage["next_ord"]
    ctx.state.set_storage(contract, "next_ord", ord_ + 1)
    # Non-sequential ids: the unstake path needs the returned id, a dataflow
    # the fuzzer cannot model. This scenario documents that failure class.
    stake_id = (ord_ * 2654435761 + 97531) % 2**61
    ctx.state.set_storage(contract, ("stake", stake_id), (ctx.sender, amount))
    return stake_id


def _staking_unstake(ctx: CallContext, contract: ContractState, stake_id: int):
    rec = contract.storage.get(("stake", stake_id))
    if rec is None:
        raise Revert("unknown stake")
    holder, amount = rec
    if holder != ctx.sender:
        raise Revert("not staker")
    ctx.state.delete_storage(contract, ("stake", stake_id))
    token_transfer(ctx, contract.storage["token"], contract.address, ctx.sender, amount * 101 // 100)
    return True


# --- the call table ----------------------------------------------------------

# target kind -> function name -> entry. The mutator's raw-call surface lists
# each target's exposed functions in table order, which a seeded campaign's
# draws depend on. The contract kinds' entries come from CONTRACT_KINDS.
CALL_TABLE: dict[str, dict[str, CallEntry]] = {
    "token": {
        "transfer": CallEntry(_transfer, (ADDRESS, UINT)),
        "approve": CallEntry(_approve, (ADDRESS, UINT)),
        "transferFrom": CallEntry(_transfer_from, (ADDRESS, ADDRESS, UINT), exposed=False),
        "balanceOf": CallEntry(_balance_of, (ADDRESS,), exposed=False),
        "totalSupply": CallEntry(_total_supply, (), exposed=False),
        "mint": CallEntry(_mint, (ADDRESS, UINT), flag="public_mint"),
        "burn": CallEntry(_burn, (ADDRESS, UINT), flag="public_burn"),
    },
    "router": {
        "swapExactIn": CallEntry(swap_exact_in, (ADDRESS, ADDRESS, UINT), takes_target=False),
        "addLiquidity": CallEntry(
            add_liquidity, (ADDRESS, ADDRESS, UINT, UINT), takes_target=False
        ),
        "removeLiquidity": CallEntry(remove_liquidity, (ADDRESS, UINT), takes_target=False),
    },
    "pair": {
        "swap": CallEntry(pair_swap, (UINT, UINT)),
        "mint": CallEntry(pair_mint, (ADDRESS,), exposed=False),
        "burn": CallEntry(pair_burn, (ADDRESS,), exposed=False),
        "sync": CallEntry(pair_sync, ()),
        "skim": CallEntry(pair_skim, (ADDRESS,)),
    },
}
_TOKEN_CALLS, _ROUTER_CALLS, _PAIR_CALLS = (CALL_TABLE[k] for k in ("token", "router", "pair"))

# contract kind -> its declaration. A new contract kind is one more entry here;
# scenario files can then use it, and the mutator calls its exposed functions.
CONTRACT_KINDS: dict[str, ContractKind] = {
    "token_sale": ContractKind(
        {"token": Param(SYMBOL), "price": Param(UINT), "unit": Param(UINT, 10**18)},
        {"buyTokens": CallEntry(_sale_buy_tokens, (UINT,), payable=True)},
    ),
    "vault": ContractKind({"token": Param(SYMBOL), "total_shares": Param(UINT, 0)}, {}),
    "vault_router": ContractKind(
        {"vault": Param(ADDRESS)},
        {
            "buyLongToken": CallEntry(_vault_buy, (UINT,)),
            "sellAllLongToken": CallEntry(_vault_sell_all, ()),
            "sellLongToken": CallEntry(_vault_sell, (UINT,)),
        },
    ),
    "staking": ContractKind(
        {"token": Param(SYMBOL), "next_ord": Param(UINT, 0)},
        {
            "stake": CallEntry(_staking_stake, (UINT,)),
            "unstake": CallEntry(_staking_unstake, (UINT,)),
        },
    ),
}
CALL_TABLE.update((kind, k.calls) for kind, k in CONTRACT_KINDS.items())


def is_contract_kind(kind) -> bool:
    return isinstance(kind, str) and kind in CONTRACT_KINDS


# --- raw call routing -------------------------------------------------------


def call_raw(ctx: CallContext, target: Address, fn: str, args: tuple):
    state = ctx.state
    if target in state.tokens:
        entry = _TOKEN_CALLS.get(fn)
        if entry is not None and entry.flag and not getattr(state.tokens[target], entry.flag):
            raise Revert(f"{fn} not allowed")
    elif target == ROUTER_ADDRESS:
        entry = _ROUTER_CALLS.get(fn)
    elif target in state.pairs:
        entry = _PAIR_CALLS.get(fn)
    else:
        contract = state.contracts.get(target)
        if contract is None:
            raise Revert("unknown target")
        entry = CALL_TABLE.get(contract.kind, {}).get(fn)
        target = contract
    if entry is None:
        raise Revert("unknown function")
    return entry.invoke(ctx, target, args)


def dispatch(ctx: CallContext, kind):
    if ctx.depth > MAX_CALL_DEPTH:
        raise Revert("call depth exceeded")
    if isinstance(kind, RawCall):
        return call_raw(ctx, kind.target, kind.fn, kind.args)
    if isinstance(kind, ActionSpec):
        result = None
        for call in lower_action(kind, ctx.state, ctx.sender):
            if isinstance(call, LoweredPairSwap):
                result = _run_pair_swap(ctx, call)
            else:
                result = call_raw(ctx, call.target, call.fn, call.args)
        return result
    raise Revert("unknown transaction kind")


def _run_pair_swap(ctx: CallContext, call: LoweredPairSwap):
    callback = None
    if call.body:

        def callback():
            ctx.depth += 1
            try:
                for tx in call.body:
                    dispatch(ctx, tx.kind)
            finally:
                ctx.depth -= 1

    return pair_swap(ctx, call.pair, call.out0, call.out1, callback)


set_dispatcher(dispatch)
