"""Reference dispatch for the call-table differential tests.

This is the dispatch that `popfuzz.runtime.CALL_TABLE` replaced, kept as it
was: `erc20_call`'s chain of `if fn ==` branches with `token_mint` and
`token_burn`, `_call_router`, `_call_pair`, the `CONTRACT_KINDS` table with
handlers that unpack their own arguments, and `call_raw` over them.
`reference_surface` is the mutator's surface as `scenarios._build_universe`
listed it by hand, and `reference_anchors` its amount anchors as it read them
from fixed storage keys.
"""

from __future__ import annotations

from popfuzz.actions import FnSig
from popfuzz.amm import (
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
from popfuzz.world import (
    BURN_ADDRESS,
    UINT_MAX,
    ZERO_ADDRESS,
    Address,
    CallContext,
    ContractState,
    Revert,
    checked_add,
    checked_mul,
    checked_sub,
    token_transfer,
)

def token_mint(ctx: CallContext, token: Address, to: Address, amount: int) -> None:
    state = ctx.state
    if amount == 0:
        raise Revert("zero mint")
    state.set_supply(token, checked_add(state.supplies.get(token, 0), amount))
    state.set_balance(token, to, checked_add(state.balance_of(token, to), amount))
    ctx.emit_transfer(token, ZERO_ADDRESS, to, amount)


def token_burn(ctx: CallContext, token: Address, src: Address, amount: int) -> None:
    # Burn is modeled as a forced transfer to the burn address so that the
    # per-token conservation invariant (holders + burn = supply) holds.
    state = ctx.state
    if amount == 0:
        raise Revert("zero burn")
    state.set_balance(token, src, checked_sub(state.balance_of(token, src), amount))
    state.set_balance(token, BURN_ADDRESS, checked_add(state.balance_of(token, BURN_ADDRESS), amount))
    ctx.emit_transfer(token, src, BURN_ADDRESS, amount)



def erc20_call(ctx: CallContext, token: Address, fn: str, args: tuple):
    state = ctx.state
    tdef = state.tokens.get(token)
    if tdef is None:
        raise Revert("unknown token")
    try:
        if fn == "transfer":
            to, amount = args
            _check_amount(amount)
            token_transfer(ctx, token, ctx.sender, _addr(to), amount)
            return True
        if fn == "approve":
            spender, amount = args
            _check_amount(amount)
            state.set_allowance(token, ctx.sender, _addr(spender), amount)
            return True
        if fn == "transferFrom":
            src, dst, amount = args
            _check_amount(amount)
            allowed = state.allowance(token, _addr(src), ctx.sender)
            if allowed < amount:
                raise Revert("insufficient allowance")
            state.set_allowance(token, src, ctx.sender, allowed - amount)
            token_transfer(ctx, token, src, _addr(dst), amount)
            return True
        if fn == "balanceOf":
            (holder,) = args
            return state.balance_of(token, _addr(holder))
        if fn == "totalSupply":
            if args:
                raise Revert("bad args")
            return state.supplies.get(token, 0)
        if fn == "mint":
            if not tdef.public_mint:
                raise Revert("mint not allowed")
            to, amount = args
            _check_amount(amount)
            token_mint(ctx, token, _addr(to), amount)
            return True
        if fn == "burn":
            if not tdef.public_burn:
                raise Revert("burn not allowed")
            src, amount = args
            _check_amount(amount)
            token_burn(ctx, token, _addr(src), amount)
            return True
    except ValueError:  # wrong number of arguments
        raise Revert("bad args")
    raise Revert("unknown function")


def _check_amount(amount) -> None:
    if not isinstance(amount, int) or isinstance(amount, bool) or amount < 0 or amount > UINT_MAX:
        raise Revert("bad amount")


def _addr(x) -> Address:
    if not isinstance(x, str):
        raise Revert("bad address")
    return x


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


def reference_surface(sc) -> list:
    """The mutator's raw-call surface of scenario `sc`, listed by hand."""
    surface = []
    for t in sc.tokens.values():
        surface.append(FnSig(t.address, "transfer", ("address", "uint")))
        surface.append(FnSig(t.address, "approve", ("address", "uint")))
        if t.public_mint:
            surface.append(FnSig(t.address, "mint", ("address", "uint")))
        if t.public_burn:
            surface.append(FnSig(t.address, "burn", ("address", "uint")))
    if sc.pairs:
        surface.append(FnSig(ROUTER_ADDRESS, "swapExactIn", ("address", "address", "uint")))
        surface.append(FnSig(ROUTER_ADDRESS, "addLiquidity", ("address", "address", "uint", "uint")))
        surface.append(FnSig(ROUTER_ADDRESS, "removeLiquidity", ("address", "uint")))
    for pd in sc.pairs:
        addr = pd["address"]
        surface.append(FnSig(addr, "swap", ("uint", "uint")))
        surface.append(FnSig(addr, "sync", ()))
        surface.append(FnSig(addr, "skim", ("address",)))
    for cd in sc.contracts:
        for fn, (_h, arg_types, payable) in sorted(CONTRACT_KINDS[cd["kind"]].items()):
            surface.append(FnSig(cd["address"], fn, tuple(arg_types), payable))
    return surface


def reference_anchors(sc) -> tuple:
    """The mutator's amount anchors of scenario `sc`: pair reserves, positive
    balances, and each contract's `price` and `unit` storage when above 0."""
    state = sc.build_state()
    anchors = set()
    for p in state.pairs.values():
        anchors.update((p.reserve0, p.reserve1))
    anchors.update(v for v in state.balances.values() if v > 0)
    for contract in state.contracts.values():
        for key in ("price", "unit"):
            v = contract.storage.get(key)
            if isinstance(v, int) and v > 0:
                anchors.add(v)
    return tuple(sorted(anchors))
