"""Brute-force linearizability search (Wing & Gong style): the oracle.

For *small* histories this checker searches directly for a legal
sequential witness: an ordering of operations that (a) respects
real-time precedence, (b) satisfies the sequential specification of a
read-write register (each read returns the most recent preceding write,
or nil).  It is the tests' oracle for the graph-based checker in
:mod:`repro.verify.linearizability` — two independent implementations
agreeing on thousands of randomized histories is far stronger evidence
than either alone — so production code does not carry it.

Strictness handling: crashed and aborted operations may either be
dropped or take effect within their invocation-to-crash window; the
search tries both choices (this is the "rules (6)-(12)" history
transformation of the paper's proof, executed by brute force).

Complexity is exponential; keep histories under ~12 operations.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.types import OpStatus
from repro.verify.history import OpRecord


def _value_key(value: object):
    # All-zero blocks identify with nil (None), mirroring the graph
    # checker's convention — see linearizability._value_key.
    if isinstance(value, (bytes, bytearray)):
        data = bytes(value)
        if not any(data):
            return None
        return data
    if isinstance(value, (list, tuple)):
        return tuple(_value_key(item) for item in value)
    return value


def brute_force_linearizable(
    history: Sequence[OpRecord], max_ops: int = 14, strict: bool = True
) -> Optional[bool]:
    """Exhaustively decide (strict) linearizability of a tiny history.

    With ``strict=True`` (default), a crashed or aborted write that
    takes effect must do so within its invocation-to-crash window — the
    paper's strict linearizability.  With ``strict=False``, it may take
    effect at *any later point* (traditional linearizability [7]): its
    end event stops constraining other operations.  The Figure 5
    history is exactly the discriminator — it passes the traditional
    check and fails the strict one.

    Returns True/False, or ``None`` if the history exceeds ``max_ops``
    (the search would be too slow to be useful).
    """
    complete = [op for op in history if op.status is OpStatus.OK]
    # Crashed/aborted reads constrain nothing (their value never reached
    # a caller); only crashed/aborted *writes* may or may not take effect.
    optional = [
        op
        for op in history
        if op.status in (OpStatus.CRASHED, OpStatus.ABORTED) and op.is_write
    ]
    if len(complete) + len(optional) > max_ops:
        return None
    if not strict:
        # Traditional linearizability: a pending/crashed write floats
        # freely after its invocation.  Model by erasing its end event.
        optional = [
            OpRecord(
                op_id=op.op_id, kind=op.kind, block_index=op.block_index,
                value=op.value, t_inv=op.t_inv, t_resp=None,
                status=op.status, coordinator=op.coordinator,
            )
            for op in optional
        ]

    # Successful reads and writes must appear; crashed/aborted ops are
    # optional.  Try every subset of the optional ops.
    for mask in range(1 << len(optional)):
        chosen = list(complete)
        for bit, op in enumerate(optional):
            if mask & (1 << bit):
                chosen.append(op)
        if _search(chosen):
            return True
    return False


def _search(ops: List[OpRecord]) -> bool:
    """Backtracking search for a legal sequential witness of ``ops``."""
    n = len(ops)
    used = [False] * n

    def precedes(a: OpRecord, b: OpRecord) -> bool:
        return a.t_resp is not None and a.t_resp < b.t_inv

    def recurse(current_value, placed: int) -> bool:
        if placed == n:
            return True
        for index in range(n):
            if used[index]:
                continue
            op = ops[index]
            # Real-time: every unplaced op preceding this one must go first.
            blocked = any(
                not used[other]
                and other != index
                and precedes(ops[other], op)
                for other in range(n)
            )
            if blocked:
                continue
            if op.is_read and op.status is OpStatus.OK:
                if _value_key(op.value) != current_value:
                    continue
                used[index] = True
                if recurse(current_value, placed + 1):
                    return True
                used[index] = False
            else:
                used[index] = True
                next_value = (
                    _value_key(op.value) if op.is_write else current_value
                )
                if recurse(next_value, placed + 1):
                    return True
                used[index] = False
        return False

    return recurse(None, 0)
