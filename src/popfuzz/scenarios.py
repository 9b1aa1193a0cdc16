"""Scenario corpus: vulnerable target worlds and the declarative file format.

A scenario file is a YAML mapping. These are its sections and each entry's
keys; any other key, a name used twice (across tokens, pairs, contracts,
victims and the reserved `attacker`, `burn`, `router`) or a mistyped value
is a ScenarioError. A uint is an int in [0, 2**256 - 1], never a bool; a name
is a string declared in some section; `[x]` is a list of x.

    name            string, required
    tokens          [{symbol: name, public_mint: bool, public_burn: bool,
                      fee: {rate: uint (per mille), direction: to_pair | both},
                      holdings: {holder name: uint}}]
    pairs           [{name: name (default pair<i>), tokens: [symbol, symbol],
                      reserves: [uint above 0, uint above 0]}]
    contracts       [{name: name, kind: kind, params: {...}, holdings: {symbol: uint}}]
    victims         [{name: name (default victim<i>), balances: {symbol: uint}}]
    attacker        {balances: {symbol: uint}, native: uint}
    pricing_tokens  [symbol], not empty
    victim_txs      [{position: uint (attacker txs before it), sender: name,
                      target: name, fn: string, args: [name | uint], value: uint}]
    macros          [{name: string, params: [uint | address],
                      calls: [[target name, fn, [name | uint | sender | {param: uint}]]]}]

Macros are call templates added to the action alphabet. A contract's kind's
entry in `runtime.CONTRACT_KINDS` declares its parameters, which become its
storage; an address takes any name, a symbol a declared token's, and one
with a default may be left out:

    token_sale    token: symbol, price: uint, unit: uint = 10**18
    vault         token: symbol, total_shares: uint = 0
    vault_router  vault: address (a vault contract)
    staking       token: symbol, next_ord: uint = 0

Built-in scenarios are embedded as data; `ground_truth_optimum` recomputes
their numeric optima with independent brute-force oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import yaml

from . import runtime
from .actions import FnSig, MacroDef, Universe
from .amm import ROUTER_ADDRESS
from .world import (
    Address,
    BURN_ADDRESS,
    ContractState,
    PairState,
    RawCall,
    TokenDef,
    Transaction,
    UINT_MAX,
    WorldState,
    make_address,
)


class ScenarioError(Exception):
    """Scenario parse or validation failure with a human-readable diagnostic."""


@dataclass(frozen=True)
class VictimTx:
    position: int  # number of attacker transactions executed before this one
    tx: Transaction


@dataclass
class Scenario:
    name: str
    tokens: dict[str, TokenDef]  # symbol -> def
    token_holdings: dict[tuple[str, Address], int]
    pairs: list[dict]
    contracts: list[dict]
    attacker: Address
    attacker_balances: dict[str, int]
    attacker_native: int
    victims: dict[str, Address] = field(default_factory=dict)
    victim_balances: dict[tuple[str, str], int] = field(default_factory=dict)
    pricing_tokens: list[Address] = field(default_factory=list)
    victim_txs: list[VictimTx] = field(default_factory=list)
    macros: dict[str, MacroDef] = field(default_factory=dict)
    addresses: dict[str, Address] = field(default_factory=dict)

    @property
    def cluster(self) -> frozenset:
        return frozenset({self.attacker})

    def token_address(self, symbol: str) -> Address:
        return self.tokens[symbol].address

    def build_state(self) -> WorldState:
        return _build_state(self)

    def universe(self) -> Universe:
        return _build_universe(self)


ATTACKER = make_address(0xA11CE)

_TOKEN_BASE = 0x1001
_LP_BASE = 0x2001
_PAIR_BASE = 0x3001
_CONTRACT_BASE = 0x4001
_VICTIM_BASE = 0x5001


def scenario_from_dict(raw: dict) -> Scenario:
    try:
        return _scenario_from_dict(raw)
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        # a section of the wrong shape, such as a number where a list
        # belongs, or an unhashable name
        raise ScenarioError(f"malformed scenario: {exc!r}") from exc


def _scenario_from_dict(raw: dict) -> Scenario:
    _entry(raw, "name tokens pairs contracts victims attacker pricing_tokens victim_txs macros",
           "scenario document")
    name = raw.get("name")
    if not name or not isinstance(name, str):
        raise ScenarioError("missing scenario name")

    names: dict[str, Address] = {
        "attacker": ATTACKER,
        "burn": BURN_ADDRESS,
        "router": ROUTER_ADDRESS,
    }

    def bind(entry_name, address: Address, what: str) -> None:
        if _name(entry_name, what) in names:
            raise ScenarioError(f"duplicate name {entry_name!r}")
        names[entry_name] = address

    def address_of(value, what: str) -> Address:
        if not isinstance(value, str) or value not in names:
            raise ScenarioError(f"{what} references unknown name {value!r}")
        return names[value]

    def argument(value, what: str):
        return address_of(value, what) if isinstance(value, str) else _uint(value, what)

    tokens: dict[str, TokenDef] = {}
    for i, td in enumerate(raw.get("tokens", [])):
        _entry(td, "symbol fee public_mint public_burn holdings", f"token #{i}")
        sym = td.get("symbol")
        bind(sym, make_address(_TOKEN_BASE + i), f"token #{i} symbol")
        fee = _entry(td.get("fee", {}) or {}, "rate direction", f"token {sym!r} fee")
        direction = fee.get("direction", "to_pair")
        if direction not in ("to_pair", "both"):
            raise ScenarioError(f"token {sym!r} fee direction must be to_pair or both")
        hooks = {key: td.get(key, False) for key in ("public_mint", "public_burn")}
        for key, flag in hooks.items():
            if type(flag) is not bool:
                raise ScenarioError(f"token {sym!r} {key} must be a boolean, got {flag!r}")
        rate = _uint(fee.get("rate", 0), f"token {sym!r} fee rate")
        tokens[sym] = TokenDef(names[sym], sym, rate, direction, **hooks)

    pairs = []
    for i, pd in enumerate(raw.get("pairs", [])):
        _entry(pd, "name tokens reserves", f"pair #{i}")
        syms, reserves = pd.get("tokens"), pd.get("reserves")
        if not isinstance(syms, list) or len(syms) != 2:
            raise ScenarioError(f"pair #{i} must list exactly two tokens")
        for s in syms:
            if s not in tokens:
                raise ScenarioError(f"pair #{i} references undeclared token {s!r}")
        if not isinstance(reserves, list) or len(reserves) != 2 or 0 in [
            _uint(r, f"pair #{i} reserve") for r in reserves
        ]:
            raise ScenarioError(f"pair #{i} needs two positive reserves")
        address = make_address(_PAIR_BASE + i)
        bind(pd.get("name", f"pair{i}"), address, f"pair #{i} name")
        pairs.append(
            {
                "address": address,
                "lp_address": make_address(_LP_BASE + i),
                "symbols": tuple(syms),
                "reserves": tuple(reserves),
            }
        )

    contracts = []
    for i, cd in enumerate(raw.get("contracts", [])):
        _entry(cd, "name kind params holdings", f"contract #{i}")
        cname, kind = cd.get("name"), cd.get("kind")
        address = make_address(_CONTRACT_BASE + i)
        bind(cname, address, f"contract #{i} name")
        if not runtime.is_contract_kind(kind):
            raise ScenarioError(f"contract {cname!r} has unknown kind {kind!r}")
        contracts.append(
            {
                "address": address,
                "name": cname,
                "kind": kind,
                "params": cd.get("params", {}) or {},  # resolved once all names are known
                "holdings": _amounts(f"contract {cname!r}", cd.get("holdings"), tokens),
            }
        )

    victims: dict[str, Address] = {}
    victim_balances: dict[tuple[str, str], int] = {}
    for i, vd in enumerate(raw.get("victims", [])):
        _entry(vd, "name balances", f"victim #{i}")
        vname = vd.get("name", f"victim{i}")
        bind(vname, make_address(_VICTIM_BASE + i), f"victim #{i} name")
        victims[vname] = names[vname]
        for sym, amt in _amounts(f"victim {vname!r}", vd.get("balances"), tokens).items():
            victim_balances[(vname, sym)] = amt

    symbols = {sym: t.address for sym, t in tokens.items()}
    for cd in contracts:
        cd["params"] = _contract_params(cd, names, symbols)

    attacker_cfg = _entry(raw.get("attacker", {}) or {}, "balances native", "attacker")
    attacker_balances = _amounts("attacker", attacker_cfg.get("balances"), tokens)

    pricing = raw.get("pricing_tokens") or []
    if not pricing:
        raise ScenarioError("pricing_tokens must be non-empty")
    pricing_addrs = []
    for sym in pricing:
        if sym not in tokens:
            raise ScenarioError(f"pricing token {sym!r} is not declared")
        pricing_addrs.append(tokens[sym].address)

    token_holdings = {}
    for sym, td in zip(tokens, raw.get("tokens", [])):
        for holder, amt in (td.get("holdings", {}) or {}).items():
            what = f"token {sym} holding"
            token_holdings[(sym, address_of(holder, what))] = _uint(amt, what)

    victim_txs = []
    for i, vt in enumerate(raw.get("victim_txs", [])):
        what = f"victim tx #{i}"
        _entry(vt, "position sender target fn args value", what)
        sender = address_of(vt.get("sender"), f"{what} sender")
        target = address_of(vt.get("target"), f"{what} target")
        args = tuple(argument(a, f"{what} arg") for a in vt.get("args", []) or [])
        fn = vt.get("fn", "")
        if not isinstance(fn, str):
            raise ScenarioError(f"{what} function name must be a string")
        value = _uint(vt.get("value", 0), f"{what} value")
        position = _uint(vt.get("position", 0), f"{what} position")
        victim_txs.append(VictimTx(position, Transaction(sender, RawCall(target, fn, args), value)))

    macros = {}
    for md in raw.get("macros", []) or []:
        _entry(md, "name params calls", "macro")
        mname = md.get("name")
        if not mname:
            raise ScenarioError("macro missing name")
        if mname in macros:
            raise ScenarioError(f"duplicate macro name {mname!r}")
        params = tuple(md.get("params", []) or [])
        for t in params:
            if t not in ("uint", "address"):
                raise ScenarioError(f"macro {mname!r} parameter type must be uint or address")
        calls = []
        for call in md.get("calls", []) or []:
            if not isinstance(call, list) or not 2 <= len(call) <= 3:
                raise ScenarioError(f"macro {mname!r} call must be [target, fn] or [target, fn, args]")
            target, fn, template = call[0], call[1], call[2] if len(call) > 2 else []
            if not isinstance(fn, str):
                raise ScenarioError(f"macro {mname!r} function name must be a string")
            resolved_template = []
            for item in template:
                if isinstance(item, dict):
                    _entry(item, "param", f"macro {mname!r} template item")
                    idx = _uint(item.get("param"), f"macro {mname!r} param index")
                    if idx >= len(params):
                        raise ScenarioError(f"macro {mname!r} param index {idx} out of range")
                    resolved_template.append(("param", idx))
                elif item == "sender":
                    resolved_template.append(("sender",))
                else:
                    resolved_template.append(argument(item, f"macro {mname!r} arg"))
            calls.append((address_of(target, f"macro {mname!r} target"), fn, tuple(resolved_template)))
        macros[mname] = MacroDef(mname, params, tuple(calls))

    return Scenario(
        name=name,
        tokens=tokens,
        token_holdings=token_holdings,
        pairs=pairs,
        contracts=contracts,
        attacker=ATTACKER,
        attacker_balances=attacker_balances,
        attacker_native=_uint(attacker_cfg.get("native", 0), "attacker native"),
        victims=victims,
        victim_balances=victim_balances,
        pricing_tokens=pricing_addrs,
        victim_txs=victim_txs,
        macros=macros,
        addresses=names,
    )


def _entry(value, keys: str, what: str) -> dict:
    """`value`, which must be a mapping whose keys are among the space-separated `keys`."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a mapping")
    for key in value:
        if key not in keys.split():
            raise ScenarioError(f"{what} has unknown key {key!r}")
    return value


def _name(value, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise ScenarioError(f"{what} must be a name, got {value!r}")
    return value


def _uint(value, what: str) -> int:
    """`value`, which must be an int (not a bool) in [0, UINT_MAX]."""
    if type(value) is not int or not 0 <= value <= UINT_MAX:
        raise ScenarioError(f"{what} must be a uint, got {value!r}")
    return value


def _amounts(holder: str, amounts, tokens: dict) -> dict[str, int]:
    """A holder's amounts by token symbol; every symbol must be declared."""
    amounts = amounts or {}
    for sym in amounts:
        if sym not in tokens:
            raise ScenarioError(f"{holder} holds undeclared token {sym!r}")
    return {sym: _uint(amt, f"{holder} amount of {sym}") for sym, amt in amounts.items()}


def _contract_params(cd: dict, names: dict, symbols: dict) -> dict:
    """A contract's parameters as its kind declares them: each checked against
    its type, names resolved to addresses, absent ones set to their defaults."""
    what = f"contract {cd['name']!r}"
    raw = cd["params"]
    if not isinstance(raw, dict):
        raise ScenarioError(f"{what} params must be a mapping")
    declared = runtime.CONTRACT_KINDS[cd["kind"]].params
    for key in raw:
        if key not in declared:
            raise ScenarioError(f"{what} has unknown parameter {key!r}")
    params = {}
    for key, param in declared.items():
        value = raw[key] if key in raw else param.default
        if value is None:
            raise ScenarioError(f"{what} is missing parameter {key!r}")
        if param.type == runtime.UINT:
            _uint(value, f"{what} parameter {key!r}")
        else:
            scope = symbols if param.type == runtime.SYMBOL else names
            if not isinstance(value, str) or value not in scope:
                raise ScenarioError(f"{what} parameter {key!r} is no known {param.type}: {value!r}")
            value = scope[value]
        params[key] = value
    return params


def load_scenario(path) -> tuple[Scenario, WorldState]:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}")
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario parse error: {exc}")
    scenario = scenario_from_dict(raw)
    return scenario, scenario.build_state()


def _build_state(sc: Scenario) -> WorldState:
    state = WorldState()
    state.macros = dict(sc.macros)
    tokens = dict(sc.tokens)

    for pd in sc.pairs:
        s0, s1 = pd["symbols"]
        lp = TokenDef(address=pd["lp_address"], symbol=f"LP-{s0}-{s1}", is_lp=True)
        tokens[lp.symbol] = lp

    state.tokens = {t.address: t for t in tokens.values()}

    def credit(symbol: str, holder: Address, amount: int) -> None:
        if amount <= 0:
            return
        addr = tokens[symbol].address
        state.set_balance(addr, holder, state.balance_of(addr, holder) + amount)
        state.supplies[addr] = state.supplies.get(addr, 0) + amount

    for (symbol, holder), amount in sc.token_holdings.items():
        credit(symbol, holder, amount)
    for symbol, amount in sc.attacker_balances.items():
        credit(symbol, sc.attacker, amount)
    for (vname, symbol), amount in sc.victim_balances.items():
        credit(symbol, sc.victims[vname], amount)
    if sc.attacker_native:
        state.set_native(sc.attacker, sc.attacker_native)

    for pd in sc.pairs:
        s0, s1 = pd["symbols"]
        t0, t1 = tokens[s0].address, tokens[s1].address
        r0, r1 = pd["reserves"]
        if t0 > t1:
            t0, t1, r0, r1 = t1, t0, r1, r0
            s0, s1 = s1, s0
        credit(s0, pd["address"], r0)
        credit(s1, pd["address"], r1)
        lp_supply = math.isqrt(r0 * r1)
        pair = PairState(
            address=pd["address"],
            token0=t0,
            token1=t1,
            reserve0=r0,
            reserve1=r1,
            lp_token=pd["lp_address"],
            lp_supply=lp_supply,
        )
        state.pairs[pd["address"]] = pair
        # Seed liquidity is held by the burn address: LP conservation holds
        # and the fuzzer cannot spend it.
        state.set_balance(pd["lp_address"], BURN_ADDRESS, lp_supply)
        state.supplies[pd["lp_address"]] = lp_supply

    for cd in sc.contracts:
        address = cd["address"]
        state.contracts[address] = ContractState(address, cd["kind"], dict(cd["params"]))
        for symbol, amount in cd["holdings"].items():
            credit(symbol, address, amount)

    return state


def _build_universe(sc: Scenario) -> Universe:
    state = sc.build_state()
    token_addrs = tuple(t.address for t in sc.tokens.values())
    pair_states = tuple(state.pairs[pd["address"]] for pd in sc.pairs)

    addresses = [sc.attacker, BURN_ADDRESS, ROUTER_ADDRESS]
    addresses += list(token_addrs)
    addresses += [pd["address"] for pd in sc.pairs]
    addresses += [cd["address"] for cd in sc.contracts]
    addresses += list(sc.victims.values())

    def exposed(kind: str, target: Address, token: TokenDef | None = None) -> list[FnSig]:
        return [
            FnSig(target, fn, entry.arg_types, entry.payable)
            for fn, entry in runtime.CALL_TABLE[kind].items()
            if entry.exposed and (entry.flag is None or getattr(token, entry.flag))
        ]

    surface = [sig for t in sc.tokens.values() for sig in exposed("token", t.address, t)]
    if sc.pairs:
        surface += exposed("router", ROUTER_ADDRESS)
    for pd in sc.pairs:
        surface += exposed("pair", pd["address"])
    for cd in sc.contracts:
        surface += exposed(cd["kind"], cd["address"])

    anchors: set[int] = set()
    for p in pair_states:
        anchors.update((p.reserve0, p.reserve1))
    anchors.update(v for v in state.balances.values() if v > 0)
    for cd in sc.contracts:
        declared = runtime.CONTRACT_KINDS[cd["kind"]].params
        anchors.update(
            v for key, v in cd["params"].items() if declared[key].type == runtime.UINT and v > 0
        )

    return Universe(
        addresses=tuple(addresses),
        tokens=token_addrs,
        pairs=pair_states,
        pricing_tokens=tuple(sc.pricing_tokens),
        surface=tuple(surface),
        macros=tuple(sc.macros.values()),
        attacker=sc.attacker,
        amount_anchors=tuple(sorted(anchors)),
    )


def merge_victim_txs(attacker_txs: list, victim_txs: list[VictimTx]) -> tuple[list, list]:
    """Interleave victim transactions at their declared positions.

    Returns (txs, logical_indices); logical indices point into the attacker
    sequence, victim entries carry -1.
    """
    txs, logical = [], []
    pending = sorted(enumerate(victim_txs), key=lambda iv: (iv[1].position, iv[0]))
    vi = 0
    for i, tx in enumerate(attacker_txs):
        while vi < len(pending) and pending[vi][1].position <= i:
            txs.append(pending[vi][1].tx)
            logical.append(-1)
            vi += 1
        txs.append(tx)
        logical.append(i)
    for _, vt in pending[vi:]:
        txs.append(vt.tx)
        logical.append(-1)
    return txs, logical


# --- built-in corpus --------------------------------------------------------

VICTIM_DEPOSIT = 100

_BUILTIN_SPECS: dict[str, dict] = {
    "public_mint": {
        "name": "public_mint",
        "tokens": [
            {"symbol": "USD"},
            {"symbol": "MNT", "public_mint": True},
        ],
        "pairs": [{"tokens": ["MNT", "USD"], "reserves": [1_000_000, 1_000_000]}],
        "attacker": {},
        "pricing_tokens": ["USD"],
    },
    "zero_cost_buy": {
        "name": "zero_cost_buy",
        "tokens": [
            {"symbol": "USD"},
            {"symbol": "SLT"},
        ],
        "pairs": [{"tokens": ["SLT", "USD"], "reserves": [10**18, 10**18]}],
        "contracts": [
            {
                "name": "sale",
                "kind": "token_sale",
                "params": {"token": "SLT", "price": 10**9, "unit": 10**18},
                "holdings": {"SLT": 2 * 10**22},
            }
        ],
        "attacker": {},
        "pricing_tokens": ["USD"],
    },
    "fee_transfer": {
        "name": "fee_transfer",
        "tokens": [
            {"symbol": "USD"},
            {"symbol": "FEE", "fee": {"rate": 100, "direction": "to_pair"}},
        ],
        "pairs": [{"tokens": ["FEE", "USD"], "reserves": [1_000_000, 1_000_000]}],
        "attacker": {"balances": {"FEE": 100_000}},
        "pricing_tokens": ["USD"],
    },
    "public_burn": {
        "name": "public_burn",
        "tokens": [
            {"symbol": "USD"},
            {"symbol": "WBNB"},
            {"symbol": "BRN", "public_burn": True},
        ],
        "pairs": [
            {"tokens": ["BRN", "USD"], "reserves": [10**18, 10**18]},
            {"tokens": ["USD", "WBNB"], "reserves": [3 * 10**17, 3 * 10**17]},
        ],
        "attacker": {"balances": {"USD": 10**17}},
        "pricing_tokens": ["USD", "WBNB"],
    },
    "rounding_vault": {
        "name": "rounding_vault",
        "tokens": [{"symbol": "USD"}],
        "contracts": [
            {"name": "vault", "kind": "vault", "params": {"token": "USD"}},
            {"name": "vrouter", "kind": "vault_router", "params": {"vault": "vault"}},
        ],
        "attacker": {"balances": {"USD": 1_000_000}},
        "victims": [{"name": "victim", "balances": {"USD": 1_000}}],
        "victim_txs": [
            {
                "position": 1,
                "sender": "victim",
                "target": "USD",
                "fn": "approve",
                "args": ["vrouter", VICTIM_DEPOSIT],
            },
            {
                "position": 1,
                "sender": "victim",
                "target": "vrouter",
                "fn": "buyLongToken",
                "args": [VICTIM_DEPOSIT],
            },
        ],
        "macros": [
            # Deposit-and-donate in one call, the way an attack contract would
            # bundle its setup; param 0 is the deposit, param 1 the donation.
            {
                "name": "vault_seed",
                "params": ["uint", "uint"],
                "calls": [
                    ["USD", "approve", ["vrouter", {"param": 0}]],
                    ["vrouter", "buyLongToken", [{"param": 0}]],
                    ["USD", "transfer", ["vault", {"param": 1}]],
                ],
            },
            {"name": "vault_exit", "params": [], "calls": [["vrouter", "sellAllLongToken", []]]},
        ],
        "pricing_tokens": ["USD"],
    },
}

_EXTRA_SPECS: dict[str, dict] = {
    # Fair pool with no hooks: round-trip loss makes every sequence unprofitable.
    "fair_pool": {
        "name": "fair_pool",
        "tokens": [{"symbol": "USD"}, {"symbol": "TKN"}],
        "pairs": [{"tokens": ["TKN", "USD"], "reserves": [1_000_000, 1_000_000]}],
        "attacker": {"balances": {"USD": 10_000}},
        "pricing_tokens": ["USD"],
    },
    # Known-failure class: unstake requires the id returned by stake, an
    # inter-call dataflow the mutator cannot express. Documented expected miss.
    "staking_id": {
        "name": "staking_id",
        "tokens": [{"symbol": "USD"}],
        "contracts": [
            {
                "name": "pool",
                "kind": "staking",
                "params": {"token": "USD"},
                "holdings": {"USD": 1_000_000},
            }
        ],
        "attacker": {"balances": {"USD": 10_000}},
        "pricing_tokens": ["USD"],
    },
}


def builtin_names() -> list[str]:
    return list(_BUILTIN_SPECS)


def builtin_scenario(name: str) -> Scenario:
    spec = _BUILTIN_SPECS.get(name) or _EXTRA_SPECS.get(name)
    if spec is None:
        raise ScenarioError(f"unknown built-in scenario {name!r}")
    return scenario_from_dict(spec)


# --- ground-truth oracles ---------------------------------------------------
#
# These reimplement the profit arithmetic directly (no executor, no mutator)
# so the fuzzer is judged against an independent computation.


def _cp_out(amount_in: int, reserve_in: int, reserve_out: int) -> int:
    if amount_in <= 0 or reserve_in <= 0 or reserve_out <= 0:
        return 0
    num = amount_in * 997 * reserve_out
    den = reserve_in * 1000 + amount_in * 997
    if num > 2**256 - 1 or den > 2**256 - 1:
        return 0  # the checked world arithmetic would revert this swap
    return num // den


def _public_mint_optimum() -> int:
    r_tok, r_usd = 1_000_000, 1_000_000
    lo_exp, hi_exp = 0.0, 76.0  # log10 amount; above ~1e76 the math overflows
    phi = (math.sqrt(5) - 1) / 2

    def profit(exp: float) -> int:
        return _cp_out(int(10**exp), r_tok, r_usd)

    a, b = lo_exp, hi_exp
    for _ in range(80):
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        if profit(c) >= profit(d):
            b = d
        else:
            a = c
    best_amount = int(10 ** ((a + b) / 2))
    best = 0
    scan = {max(0, best_amount + k) for k in range(-50, 51)}
    scan |= {best_amount * m for m in (2, 4, 8, 16)}
    for amount in scan:
        best = max(best, _cp_out(amount, r_tok, r_usd))
    return best


def _zero_cost_buy_optimum() -> int:
    r_tok, r_usd = 10**18, 10**18
    sale_balance = 2 * 10**22
    per_call_max = 10**18 - 1
    best = 0
    for repeats in range(1, 1001):
        for amount in (per_call_max, per_call_max // 2, 1):
            total = min(repeats * amount, sale_balance)
            best = max(best, _cp_out(total, r_tok, r_usd))
    return best


def _rounding_vault_optimum() -> int:
    v = VICTIM_DEPOSIT
    best = 0
    for d in range(0, 2 * v + 1):
        a = 1  # attacker's initial deposit
        balance = a + d
        victim_shares = v * a // balance
        total = a + victim_shares
        redeemed = a * (balance + v) // total
        best = max(best, redeemed - (a + d))
    return best


def _public_burn_profit(buy_pct: int, burn_pct: int) -> int:
    usd = 10**17
    r_tok, r_usd = 10**18, 10**18
    spend = usd * buy_pct // 100
    got = _cp_out(spend, r_usd, r_tok)
    if got == 0:
        return 0
    r_tok2, r_usd2 = r_tok - got, r_usd + spend
    burn = r_tok2 * burn_pct // 100
    r_tok3 = r_tok2 - burn  # burn then sync
    out = _cp_out(got, r_tok3, r_usd2)
    return out - spend


def _public_burn_optimum() -> int:
    best, arg = 0, (0, 0)
    for bp in range(0, 101, 5):
        for qp in range(0, 101, 5):
            p = _public_burn_profit(bp, qp)
            if p > best:
                best, arg = p, (bp, qp)
    for bp in range(max(0, arg[0] - 5), min(100, arg[0] + 5) + 1):
        for qp in range(max(0, arg[1] - 5), min(100, arg[1] + 5) + 1):
            best = max(best, _public_burn_profit(bp, qp))
    return best


def ground_truth_optimum(name: str) -> int:
    """Brute-force optimum profit for a built-in scenario, in its first
    pricing token. Independent of the fuzzer's search path."""
    if name == "public_mint":
        return _public_mint_optimum()
    if name == "zero_cost_buy":
        return _zero_cost_buy_optimum()
    if name == "rounding_vault":
        return _rounding_vault_optimum()
    if name == "public_burn":
        return _public_burn_optimum()
    raise ScenarioError(f"no numeric ground truth for {name!r}")
