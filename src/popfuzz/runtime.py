"""Call dispatch: routes raw calls and actions to tokens, router, pairs, and
scenario contracts. Importing this module wires the world executor."""

from __future__ import annotations

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
    CallContext,
    ContractState,
    RawCall,
    Revert,
    UINT_MAX,
    _addr,
    checked_mul,
    erc20_call,
    set_dispatcher,
    token_transfer,
)

MAX_CALL_DEPTH = 8


def _uint(x) -> int:
    if not isinstance(x, int) or isinstance(x, bool) or x < 0 or x > UINT_MAX:
        raise Revert("bad amount")
    return x


# --- scenario contract behaviors -------------------------------------------


def _sale_buy_tokens(ctx: CallContext, contract: ContractState, args):
    (n,) = args
    n = _uint(n)
    price = contract.storage["price"]
    unit = contract.storage["unit"]
    cost = checked_mul(n // unit, price)
    if ctx.msg_value < cost:
        raise Revert("insufficient payment")
    token_transfer(ctx, contract.storage["token"], contract.address, ctx.sender, n)
    return True


def _vault_of(ctx: CallContext, router: ContractState) -> ContractState:
    vault = ctx.state.contracts.get(router.storage["vault"])
    if vault is None:
        raise Revert("no vault")
    return vault


def _vault_buy(ctx: CallContext, router: ContractState, args):
    (amount,) = args
    amount = _uint(amount)
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


def _vault_sell_amount(ctx: CallContext, router: ContractState, args):
    (shares_amount,) = args
    return _vault_sell(ctx, router, _uint(shares_amount))


def _vault_sell_all(ctx: CallContext, router: ContractState, args):
    if args:
        raise Revert("bad args")
    vault = _vault_of(ctx, router)
    return _vault_sell(ctx, router, vault.storage.get(("share", ctx.sender), 0))


def _staking_stake(ctx: CallContext, contract: ContractState, args):
    (amount,) = args
    amount = _uint(amount)
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


def _staking_unstake(ctx: CallContext, contract: ContractState, args):
    (stake_id,) = args
    stake_id = _uint(stake_id)
    rec = contract.storage.get(("stake", stake_id))
    if rec is None:
        raise Revert("unknown stake")
    holder, amount = rec
    if holder != ctx.sender:
        raise Revert("not staker")
    ctx.state.delete_storage(contract, ("stake", stake_id))
    token_transfer(ctx, contract.storage["token"], contract.address, ctx.sender, amount * 101 // 100)
    return True


# kind -> fn -> (handler, arg_types, payable)
CONTRACT_KINDS = {
    "token_sale": {
        "buyTokens": (_sale_buy_tokens, ("uint",), True),
    },
    "vault": {},
    "vault_router": {
        "buyLongToken": (_vault_buy, ("uint",), False),
        "sellLongToken": (_vault_sell_amount, ("uint",), False),
        "sellAllLongToken": (_vault_sell_all, (), False),
    },
    "staking": {
        "stake": (_staking_stake, ("uint",), False),
        "unstake": (_staking_unstake, ("uint",), False),
    },
}


# --- raw call routing -------------------------------------------------------


def call_raw(ctx: CallContext, target: Address, fn: str, args: tuple):
    state = ctx.state
    if target in state.tokens:
        return erc20_call(ctx, target, fn, args)
    if target == ROUTER_ADDRESS:
        return _call_router(ctx, fn, args)
    if target in state.pairs:
        return _call_pair(ctx, target, fn, args)
    contract = state.contracts.get(target)
    if contract is not None:
        table = CONTRACT_KINDS.get(contract.kind, {})
        entry = table.get(fn)
        if entry is None:
            raise Revert("unknown function")
        handler, arg_types, _payable = entry
        if len(args) != len(arg_types):
            raise Revert("bad args")
        return handler(ctx, contract, args)
    raise Revert("unknown target")


def _call_router(ctx: CallContext, fn: str, args: tuple):
    try:
        if fn == "swapExactIn":
            token_in, token_out, amount_in = args
            return swap_exact_in(ctx, _addr(token_in), _addr(token_out), _uint(amount_in))
        if fn == "addLiquidity":
            a, b, amt_a, amt_b = args
            return add_liquidity(ctx, _addr(a), _addr(b), _uint(amt_a), _uint(amt_b))
        if fn == "removeLiquidity":
            pair, lp = args
            return remove_liquidity(ctx, _addr(pair), _uint(lp))
    except ValueError:
        raise Revert("bad args")
    raise Revert("unknown function")


def _call_pair(ctx: CallContext, pair: Address, fn: str, args: tuple):
    try:
        if fn == "swap":
            out0, out1 = args
            return pair_swap(ctx, pair, _uint(out0), _uint(out1))
        if fn == "mint":
            (to,) = args
            return pair_mint(ctx, pair, _addr(to))
        if fn == "burn":
            (to,) = args
            return pair_burn(ctx, pair, _addr(to))
        if fn == "skim":
            (to,) = args
            return pair_skim(ctx, pair, _addr(to))
        if fn == "sync":
            if args:
                raise Revert("bad args")
            return pair_sync(ctx, pair)
    except ValueError:
        raise Revert("bad args")
    raise Revert("unknown function")


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
