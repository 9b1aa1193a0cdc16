"""Reference `apply_vector`: the one-copy-per-variable fold that
`popfuzz.maximizer.apply_vector` replaced, kept as the oracle for its
differential test. `schedule_law_holds` checks a recorded step update against
the step-schedule law in `popfuzz.maximizer`'s docstring."""

from dataclasses import replace

from popfuzz.actions import TxSequence
from popfuzz.maximizer import (
    GROW,
    HALVE,
    RETIRE_BOUNDARY,
    RETIRE_FLAT,
    RETIRE_SHRINK,
    SHRINK,
    ScheduleEntry,
)


def schedule_law_holds(entry: ScheduleEntry) -> bool:
    """The invariant every recorded step update must satisfy."""
    b, a = entry.before, entry.after
    if entry.kind == GROW:
        return abs(a) == (3 * abs(b) + 1) // 2 and (a > 0) == (b > 0)
    if entry.kind == SHRINK:
        return abs(a) == max(1, abs(b) // 3) and (a > 0) != (b > 0)
    if entry.kind == HALVE:
        return abs(b) // 2 > 0 and abs(a) == abs(b) // 2 and (a > 0) == (b > 0)
    if entry.kind == RETIRE_SHRINK:
        return abs(b) == 1 and a == 0
    if entry.kind == RETIRE_BOUNDARY:
        return abs(b) // 2 == 0 and a == 0
    if entry.kind == RETIRE_FLAT:
        return a == 0
    return False



def set_variable(seq: TxSequence, ref, value: int) -> TxSequence:
    out = seq.copy()
    tx = out.txs[ref.tx_index]
    p = ref.path
    if p[0] == "repeat":
        out.txs[ref.tx_index] = replace(tx, repeat=value)
    elif p[0] == "value":
        out.txs[ref.tx_index] = replace(tx, value=value)
    elif p[0] in ("arg", "macro_arg"):
        args = list(tx.kind.args)
        args[p[1]] = value
        out.txs[ref.tx_index] = replace(tx, kind=replace(tx.kind, args=tuple(args)))
    elif p[0] == "pct":
        out.txs[ref.tx_index] = replace(tx, kind=replace(tx.kind, percentage=value))
    elif p[0] == "body_pct":
        body = list(tx.kind.body)
        body[p[1]] = replace(body[p[1]], kind=replace(body[p[1]].kind, percentage=value))
        out.txs[ref.tx_index] = replace(tx, kind=replace(tx.kind, body=tuple(body)))
    else:
        raise ValueError(f"bad variable path {p!r}")
    return out


def apply_vector_reference(seq: TxSequence, refs, x) -> TxSequence:
    out = seq
    for ref, v in zip(refs, x):
        out = set_variable(out, ref, v)
    return out
