"""Reference `apply_vector`: the one-copy-per-variable fold that
`popfuzz.maximizer.apply_vector` replaced, kept as the oracle for its
differential test."""

from dataclasses import replace

from popfuzz.actions import TxSequence


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
