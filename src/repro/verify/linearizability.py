"""Strict-linearizability checking via conforming total orders.

Appendix B (Definition 5 / Proposition 6) shows a history is strictly
linearizable if its observable values admit a *conforming total order*:
a total order containing every observable value, with ``nil`` first,
whose value order agrees with the operations' real-time order:

====  ==========================================  ================
 (2)  ``write(v) →H write(v')``                   ``v < v'``
 (3)  ``read(v) →H read(v')``                     ``v ≤ v'``
 (4)  ``write(v) →H read(v')``                    ``v ≤ v'``
 (5)  ``read(v) →H write(v')``                    ``v < v'``
====  ==========================================  ================

where ``op →H op'`` means op's return **or crash** event precedes op'
invocation — crashes count, which is precisely where strictness bites:
a write that crashed before a read was invoked must be ordered before
any value that read observes (rule 4 with the crashed write).

Under the unique-value assumption every observable value is written by
exactly one write, so for distinct values ``v ≤ v'`` collapses to
``v < v'``.  A conforming total order then exists iff the constraint
digraph over observable values is acyclic and contains no strict
self-loop.  The checker builds that graph and runs cycle detection,
reporting a concrete violating cycle when one exists.

Additional well-formedness checks: every read value must have been
written (or be nil), and nil precedes everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..types import OpStatus
from .history import OpRecord

__all__ = ["CheckResult", "check_strict_linearizability"]

#: Hashable stand-in for the nil value (None is a legal dict key, but an
#: explicit sentinel keeps intent clear in graph dumps).
_NIL_KEY = "<nil>"


def _value_key(value: object):
    """Hashable identity for a block value.

    All-zero blocks are identified with nil: a block-level write onto a
    never-written stripe materializes the stripe's other blocks as
    zeros (standard disk semantics — unwritten space reads as zeros),
    and the checker must not treat those as phantom values.  The
    unique-value assumption therefore extends to "writes use non-zero
    values", which the test harnesses guarantee by tagging payloads.
    """
    if value is None:
        return _NIL_KEY
    if isinstance(value, (bytes, bytearray)):
        data = bytes(value)
        if not any(data):
            return _NIL_KEY
        return data
    if isinstance(value, (list, tuple)):
        return tuple(_value_key(item) for item in value)
    return value


@dataclass
class CheckResult:
    """Outcome of a strict-linearizability check.

    Attributes:
        ok: True iff a conforming total order exists.
        violations: human-readable explanations (empty when ok).
        order: one conforming total order of value keys (when ok).
        n_ops: operations considered.
        n_values: observable values considered.
    """

    ok: bool
    violations: List[str] = field(default_factory=list)
    order: Optional[List[object]] = None
    n_ops: int = 0
    n_values: int = 0

    def __bool__(self) -> bool:
        return self.ok


def _happens_before(a: OpRecord, b: OpRecord) -> bool:
    """op →H op': a's return/crash event precedes b's invocation."""
    if a.t_resp is None or a.status is OpStatus.PENDING:
        return False  # infinite operation: no end event
    return a.t_resp < b.t_inv


def check_strict_linearizability(history: Sequence[OpRecord]) -> CheckResult:
    """Check a single-block history against Definition 5.

    Args:
        history: block-level operation records (see
            :meth:`repro.verify.history.HistoryRecorder.per_block_history`).
            Writes must use unique values.

    Returns:
        A :class:`CheckResult`; ``result.ok`` is the verdict.
    """
    violations: List[str] = []

    writes = [op for op in history if op.is_write]
    successful_reads = [
        op for op in history if op.is_read and op.status is OpStatus.OK
    ]
    committed_writes = [op for op in writes if op.status is OpStatus.OK]

    # Unique-value assumption.
    write_values: Dict[object, int] = {}
    for op in writes:
        key = _value_key(op.value)
        if key in write_values:
            violations.append(
                f"unique-value assumption violated: ops "
                f"{write_values[key]} and {op.op_id} both write {key!r}"
            )
        write_values[key] = op.op_id
    if _NIL_KEY in write_values:
        violations.append("nil must never be written (op writes nil)")

    # Observable = read values ∪ committed write values.
    observable: Set[object] = set()
    for op in successful_reads:
        observable.add(_value_key(op.value))
    for op in committed_writes:
        observable.add(_value_key(op.value))

    # Every read value must be written or nil.
    for op in successful_reads:
        key = _value_key(op.value)
        if key != _NIL_KEY and key not in write_values:
            violations.append(
                f"read op {op.op_id} returned value {key!r} that no write wrote"
            )

    if violations:
        return CheckResult(
            ok=False, violations=violations,
            n_ops=len(history), n_values=len(observable),
        )

    # Build the constraint graph over observable values.  Under unique
    # values all inter-value constraints are strict, so any cycle is a
    # violation.  Edges are labelled with their provenance for reports.
    edges: Dict[object, Dict[object, str]] = {key: {} for key in observable}

    def add_edge(src: object, dst: object, why: str) -> None:
        if src == dst:
            # A strict constraint v < v: immediate violation for rules
            # (2) and (5); rules (3) and (4) permit equality.
            if why.startswith("(2)") or why.startswith("(5)"):
                violations.append(f"strict self-constraint on {src!r}: {why}")
            return
        if src in edges and dst in edges and dst not in edges[src]:
            edges[src][dst] = why

    # nil is first (condition 1).
    if _NIL_KEY in observable:
        for key in observable:
            if key != _NIL_KEY:
                add_edge(_NIL_KEY, key, "(1) nil precedes every value")

    # Operations relevant to constraints: writes of observable values
    # (any status — a crashed write whose value was observed took
    # effect), and successful reads.
    relevant_writes = [
        op for op in writes if _value_key(op.value) in observable
    ]
    ops: List[Tuple[str, object, OpRecord]] = [
        ("write", _value_key(op.value), op) for op in relevant_writes
    ] + [("read", _value_key(op.value), op) for op in successful_reads]

    for kind_a, val_a, op_a in ops:
        for kind_b, val_b, op_b in ops:
            if op_a.op_id == op_b.op_id or not _happens_before(op_a, op_b):
                continue
            label = (
                f"op{op_a.op_id}({kind_a} {val_a!r}) →H "
                f"op{op_b.op_id}({kind_b} {val_b!r})"
            )
            if kind_a == "write" and kind_b == "write":
                add_edge(val_a, val_b, f"(2) {label}")
            elif kind_a == "read" and kind_b == "read":
                add_edge(val_a, val_b, f"(3) {label}")
            elif kind_a == "write" and kind_b == "read":
                add_edge(val_a, val_b, f"(4) {label}")
            else:
                add_edge(val_a, val_b, f"(5) {label}")

    if violations:
        return CheckResult(
            ok=False, violations=violations,
            n_ops=len(history), n_values=len(observable),
        )

    # Topological sort / cycle detection (iterative DFS).
    order = _topological_order(edges)
    if order is None:
        cycle = _find_cycle(edges)
        description = " -> ".join(repr(v) for v in cycle) if cycle else "?"
        reasons = []
        if cycle:
            for src, dst in zip(cycle, cycle[1:]):
                reasons.append(edges[src][dst])
        violations.append(
            f"no conforming total order: constraint cycle {description}"
            + (f" [{'; '.join(reasons)}]" if reasons else "")
        )
        return CheckResult(
            ok=False, violations=violations,
            n_ops=len(history), n_values=len(observable),
        )
    return CheckResult(
        ok=True, order=order, n_ops=len(history), n_values=len(observable)
    )


def _topological_order(
    edges: Dict[object, Dict[object, str]]
) -> Optional[List[object]]:
    """Kahn's algorithm; None if the graph has a cycle."""
    indegree: Dict[object, int] = {node: 0 for node in edges}
    for node, targets in edges.items():
        for target in targets:
            indegree[target] += 1
    ready = sorted(
        (node for node, degree in indegree.items() if degree == 0),
        key=repr,
    )
    order: List[object] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for target in edges[node]:
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    if len(order) != len(edges):
        return None
    return order


def _find_cycle(
    edges: Dict[object, Dict[object, str]]
) -> Optional[List[object]]:
    """Return one directed cycle as a node list (first == last)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[object, int] = {node: WHITE for node in edges}
    parent: Dict[object, object] = {}

    for start in edges:
        if color[start] != WHITE:
            continue
        stack: List[Tuple[object, object]] = [(start, iter(edges[start]))]
        color[start] = GRAY
        while stack:
            node, iterator = stack[-1]
            advanced = False
            for target in iterator:
                if color[target] == WHITE:
                    color[target] = GRAY
                    parent[target] = node
                    stack.append((target, iter(edges[target])))
                    advanced = True
                    break
                if color[target] == GRAY:
                    # Found a cycle: walk parents back to target.
                    cycle = [target, node]
                    walker = node
                    while walker != target:
                        walker = parent[walker]
                        cycle.append(walker)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None
