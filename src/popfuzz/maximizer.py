"""Integer stochastic-gradient ascent over the numeric arguments of a
transaction sequence.

The objective (cluster profit) is an integer function that is undefined
wherever the sequence reverts, so the optimizer works with finite-difference
gradient signs, a multiplicative grow/shrink step schedule, and explicit
revert-boundary handling:

* accepted move:  |step| -> ceil(3/2 * |step|), sign preserved
* rejected move:  |step| -> max(1, floor(|step| / 3)), sign flipped; a
  variable retires once unit steps have failed in both directions
* undefined move: |step| -> floor(|step| / 2), sign preserved (retire at one)

Repeat counts step additively by a small random increment instead of the
multiplicative schedule; their sign bookkeeping follows the same law.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .actions import (
    MACRO,
    ActionSpec,
    TxSequence,
    Universe,
    random_amount,
)
from .world import RawCall, Transaction, UINT_MAX

GROW = "grow"
SHRINK = "shrink"
HALVE = "halve"
RETIRE_FLAT = "retire_flat"
RETIRE_SHRINK = "retire_shrink"
RETIRE_BOUNDARY = "retire_boundary"


@dataclass(frozen=True)
class ScheduleEntry:
    var: int
    before: int  # signed step prior to the update
    after: int  # signed step after the update (0 = retired)
    kind: str


@dataclass
class SgdResult:
    x: list
    value: Optional[int]
    evals: int
    converged: bool  # every variable retired before the budget ran out


def _sign(v: int) -> int:
    return 1 if v >= 0 else -1


def sgd_maximize(
    x0: list,
    evaluate: Callable[[list], Optional[int]],
    lo: list,
    hi: list,
    rng: random.Random,
    budget: int = 2000,
    additive: Optional[list] = None,
    order: Optional[list] = None,
    schedule: Optional[list] = None,
) -> SgdResult:
    """Coordinate-wise integer gradient ascent. `evaluate` returns the
    objective or None where it is undefined; every call counts against
    `budget`. `order` is the (possibly weighted) variable visit cycle."""
    n = len(x0)
    additive = additive or [False] * n
    order = order if order else list(range(n))
    x = list(x0)
    evals = 0

    def ev(vec) -> Optional[int]:
        nonlocal evals
        evals += 1
        return evaluate(vec)

    f0 = ev(x)
    if f0 is None:
        # Undefined start: some component reverts (e.g. an amount exceeding a
        # live balance). Walk variables toward their lower bound by repeated
        # halving until the objective becomes defined, then optimize from there.
        while f0 is None and evals < budget:
            progressed = False
            for i in order:
                if x[i] <= lo[i]:
                    continue
                x[i] = lo[i] + (x[i] - lo[i]) // 2
                progressed = True
                f0 = ev(x)
                if f0 is not None or evals >= budget:
                    break
            if not progressed:
                break
        if f0 is None:
            return SgdResult(x, None, evals, False)

    alpha = [max(1, abs(x[i]) // 16) for i in range(n)]
    active = [True] * n
    need_grad = [True] * n
    failed_units: list[set] = [set() for _ in range(n)]

    def record(i: int, before: int, after: int, kind: str) -> None:
        if schedule is not None:
            schedule.append(ScheduleEntry(i, before, after, kind))

    def retire(i: int, kind: str) -> None:
        record(i, alpha[i], 0, kind)
        active[i] = False

    def clamp(i: int, v: int) -> int:
        return max(lo[i], min(hi[i], v))

    cursor = 0
    while evals < budget and any(active):
        i = order[cursor % len(order)]
        cursor += 1
        if not active[i]:
            continue

        if need_grad[i]:
            g = 0
            big = max(1, abs(x[i]) // 256)
            for d in (1, -1, big, -big):
                xp = clamp(i, x[i] + d)
                if xp == x[i]:
                    continue
                probe = list(x)
                probe[i] = xp
                fv = ev(probe)
                if fv is not None and fv != f0:
                    g = _sign(fv - f0) * _sign(xp - x[i])
                    break
                if evals >= budget:
                    break
            if g == 0:
                retire(i, RETIRE_FLAT)
                continue
            alpha[i] = g * abs(alpha[i])
            need_grad[i] = False
        if evals >= budget:
            break

        if additive[i]:
            step = _sign(alpha[i]) * rng.randint(0, 5)
        else:
            step = alpha[i]
        if step == 0:
            continue
        xp = clamp(i, x[i] + step)
        if xp == x[i]:
            # pinned against the domain edge: treat like a revert boundary
            if abs(alpha[i]) // 2 == 0:
                retire(i, RETIRE_BOUNDARY)
            else:
                record(i, alpha[i], _sign(alpha[i]) * (abs(alpha[i]) // 2), HALVE)
                alpha[i] = _sign(alpha[i]) * (abs(alpha[i]) // 2)
            continue

        proposal = list(x)
        proposal[i] = xp
        fv = ev(proposal)
        if fv is None:
            if abs(alpha[i]) // 2 == 0:
                retire(i, RETIRE_BOUNDARY)
            else:
                record(i, alpha[i], _sign(alpha[i]) * (abs(alpha[i]) // 2), HALVE)
                alpha[i] = _sign(alpha[i]) * (abs(alpha[i]) // 2)
        elif fv > f0:
            x[i] = xp
            f0 = fv
            failed_units[i].clear()
            record(i, alpha[i], _sign(alpha[i]) * ((3 * abs(alpha[i]) + 1) // 2), GROW)
            alpha[i] = _sign(alpha[i]) * ((3 * abs(alpha[i]) + 1) // 2)
            # progress anywhere can unlock retired directions elsewhere
            for j in range(n):
                if j != i and not active[j]:
                    active[j] = True
                    alpha[j] = max(1, abs(x[j]) // 16)
                    need_grad[j] = True
                    failed_units[j].clear()
        else:
            if abs(alpha[i]) == 1:
                failed_units[i].add(_sign(alpha[i]))
                if len(failed_units[i]) == 2:
                    retire(i, RETIRE_SHRINK)
                    continue
            nxt = max(1, abs(alpha[i]) // 3)
            record(i, alpha[i], -_sign(alpha[i]) * nxt, SHRINK)
            alpha[i] = -_sign(alpha[i]) * nxt

    return SgdResult(x, f0, evals, not any(active))


# --- sequence variable extraction -------------------------------------------


@dataclass(frozen=True)
class VariableRef:
    """One optimizable integer inside a transaction sequence."""

    tx_index: int
    path: tuple  # ("arg", j) | ("macro_arg", j) | ("pct",) | ("body_pct", j)
    # | ("value",) | ("repeat",)
    lo: int
    hi: int
    additive: bool = False


def extract_variables(seq: TxSequence, universe: Universe) -> list[VariableRef]:
    payable = {(s.target, s.fn) for s in universe.surface if s.payable}
    refs: list[VariableRef] = []
    for i, tx in enumerate(seq.txs):
        kind = tx.kind
        if isinstance(kind, RawCall):
            for j, arg in enumerate(kind.args):
                if isinstance(arg, int) and not isinstance(arg, bool):
                    refs.append(VariableRef(i, ("arg", j), 0, UINT_MAX))
            if (kind.target, kind.fn) in payable:
                refs.append(VariableRef(i, ("value",), 0, UINT_MAX))
        elif isinstance(kind, ActionSpec):
            if kind.kind == MACRO:
                macro = universe.macro_by_name(kind.macro)
                for j, t in enumerate(macro.param_types):
                    if t == "uint":
                        refs.append(VariableRef(i, ("macro_arg", j), 0, UINT_MAX))
            else:
                refs.append(VariableRef(i, ("pct",), 0, 100))
                for j, body_tx in enumerate(kind.body):
                    if isinstance(body_tx.kind, ActionSpec):
                        refs.append(VariableRef(i, ("body_pct", j), 0, 100))
        refs.append(VariableRef(i, ("repeat",), 1, 1000, additive=True))
    return refs


def get_variable(seq: TxSequence, ref: VariableRef) -> int:
    tx = seq.txs[ref.tx_index]
    p = ref.path
    if p[0] == "repeat":
        return tx.repeat
    if p[0] == "value":
        return tx.value
    if p[0] == "arg":
        return tx.kind.args[p[1]]
    if p[0] == "macro_arg":
        return tx.kind.args[p[1]]
    if p[0] == "pct":
        return tx.kind.percentage
    if p[0] == "body_pct":
        return tx.kind.body[p[1]].kind.percentage
    raise ValueError(f"bad variable path {p!r}")


def apply_vector(seq: TxSequence, refs: list[VariableRef], x: list) -> TxSequence:
    """The sequence with each variable in `refs` set to its value in `x`.

    Changed values are grouped by transaction, so each changed transaction is
    rebuilt once; the others are shared with `seq`, which is left untouched.
    """
    changed: dict[int, list] = {}
    for ref, v in zip(refs, x):
        if get_variable(seq, ref) != v:
            changed.setdefault(ref.tx_index, []).append((ref.path, v))
    txs = list(seq.txs)
    for i, updates in changed.items():
        tx = txs[i]
        kind = tx.kind
        value, repeat = tx.value, tx.repeat
        args = body = None
        kind_fields = {}
        for path, v in updates:
            tag = path[0]
            if tag == "repeat":
                repeat = v
            elif tag == "value":
                value = v
            elif tag in ("arg", "macro_arg"):
                if args is None:
                    args = list(kind.args)
                args[path[1]] = v
            elif tag == "pct":
                kind_fields["percentage"] = v
            elif tag == "body_pct":
                if body is None:
                    body = list(kind.body)
                inner = body[path[1]]
                body[path[1]] = replace(inner, kind=replace(inner.kind, percentage=v))
        if isinstance(kind, RawCall):
            if args is not None:
                kind = RawCall(kind.target, kind.fn, tuple(args))
        else:
            if args is not None:
                kind_fields["args"] = tuple(args)
            if body is not None:
                kind_fields["body"] = tuple(body)
            if kind_fields:
                kind = replace(kind, **kind_fields)
        txs[i] = Transaction(tx.sender, kind, value, repeat)
    return TxSequence(txs, seq.pricing_token)


def _randomize(ref: VariableRef, rng: random.Random, universe: Universe) -> int:
    if ref.path[0] == "repeat":
        return 1 if rng.random() < 0.5 else rng.randint(1, 1000)
    if ref.hi == 100:
        return rng.randint(0, 100)
    return random_amount(rng, universe)


@dataclass
class MaximizeResult:
    seq: TxSequence
    profit: int
    evals: int
    schedule: list = field(default_factory=list)


def maximize_sequence(
    seq: TxSequence,
    universe: Universe,
    evaluate_seq: Callable[[TxSequence], Optional[int]],
    culprits: tuple,
    rng: random.Random,
    budget: int = 2000,
    max_restarts: int = 3,
    record_schedule: bool = False,
) -> MaximizeResult:
    """Optimize a candidate sequence's integer arguments for profit.

    Variables belonging to culprit transactions are visited four times as
    often. Converged runs with leftover budget restart from re-randomized
    arguments (same structure) up to `max_restarts` times.
    """
    refs = extract_variables(seq, universe)
    schedule: list = [] if record_schedule else None
    if not refs:
        base = evaluate_seq(seq)
        return MaximizeResult(seq, base if base is not None else 0, 1, schedule or [])

    culprit_set = set(culprits)
    order: list[int] = []
    for i, ref in enumerate(refs):
        order.extend([i] * (4 if ref.tx_index in culprit_set else 1))

    lo = [r.lo for r in refs]
    hi = [r.hi for r in refs]
    additive = [r.additive for r in refs]

    def evaluate(x: list) -> Optional[int]:
        return evaluate_seq(apply_vector(seq, refs, x))

    x0 = [get_variable(seq, r) for r in refs]
    best_x, best_f = list(x0), None
    spent = 0
    restarts = 0
    start = x0
    while spent < budget:
        res = sgd_maximize(
            start,
            evaluate,
            lo,
            hi,
            rng,
            budget=budget - spent,
            additive=additive,
            order=order,
            schedule=schedule,
        )
        spent += res.evals
        if res.value is not None and (best_f is None or res.value > best_f):
            best_f, best_x = res.value, list(res.x)
        if not res.converged or restarts >= max_restarts:
            break
        restarts += 1
        start = [_randomize(r, rng, universe) for r in refs]

    if best_f is None:
        best_f = 0
        best_x = x0
    return MaximizeResult(apply_vector(seq, refs, best_x), best_f, spent, schedule or [])
