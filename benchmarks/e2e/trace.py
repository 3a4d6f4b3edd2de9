"""Outside-in tracing: spans recorded by wrappers this package installs.

Nothing under ``src/repro`` knows it is being traced.  The traced pass
replaces public functions of each layer with timing wrappers (class
attributes, two module attributes), runs a couple of trials, and puts
every original back.  Spans are kept in memory as

    [name, layer, start, end, parent, op_id]

where ``parent`` indexes the enclosing span (-1 for a root) and
``op_id`` is the index of the :class:`~repro.core.session.SessionOp`
the work was done for, or None.  The id travels from the op's submit,
to each attempt (``StorageRegister.*_async``), to every slice of the
coordinator generator that attempt spawned, to erasure / store / send
calls made inside a slice, to timers armed inside it, and to replica
handlers through a ``(coordinator pid, request_id)`` map filled at send
time.

Everything runs on one thread and no span is held across an ``await``,
so spans nest strictly; :meth:`Tracer.end` raises if they ever do not.
A layer's self time is its spans' durations minus the part their child
spans cover (:func:`self_times`), so self times sum to the root spans
exactly.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict, deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Tracer",
    "TraceError",
    "Patches",
    "self_times",
    "layer_of",
    "intercept_handlers",
    "install",
    "write_jsonl",
]

NAME, LAYER, START, END, PARENT, OP = range(6)

#: Source files folded into a neighbouring layer's row (ISSUE table).
_FOLDED = (
    ("core.log", "core.replica"),
    ("core.register", "core.session"),
    ("sim.freeze", "sim.node"),
    ("campaign.", "campaign"),
    ("verify.", "verify"),
    ("erasure.", "erasure"),
)


class TraceError(RuntimeError):
    """Spans ended out of order — the nesting assumption broke."""


def layer_of(target) -> str:
    """The layer (module under ``src/repro``) a callable or code is from."""
    code = getattr(target, "__code__", None) or getattr(
        getattr(target, "__func__", None), "__code__", None
    ) or getattr(target, "gi_code", target)
    filename = getattr(code, "co_filename", "").replace("\\", "/")
    if "/benchmarks/e2e/" in filename:
        return "loadgen"
    _head, found, tail = filename.rpartition("/repro/")
    if not found:
        return "other"
    layer = tail[:-3].replace("/", ".")
    for prefix, folded in _FOLDED:
        if layer.startswith(prefix):
            return folded
    return layer


class Tracer:
    """Span recorder plus the op-id bookkeeping the wrappers share."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        self.spans: List[list] = []
        self.stack: List[int] = []
        #: Op id the currently running code works for.
        self.op: Optional[int] = None
        #: Mutable op cell of the innermost running generator proxy.
        self.cell: Optional[list] = None
        self.counts: Counter = Counter()
        self.ops: List[object] = []  # SessionOps by op id
        self.submit_at: List[float] = []
        self.attempt_at: Dict[int, float] = {}
        self._pending: Dict[int, deque] = defaultdict(deque)
        self.request_ops: Dict[Tuple[int, int], Optional[int]] = {}
        self.clusters: List[object] = []

    # -- spans -----------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        self.spans.append([name, layer, self.clock(), 0.0, parent, self.op])
        return index

    def end(self, index: int) -> None:
        now = self.clock()
        if not self.stack or self.stack.pop() != index:
            raise TraceError(f"span {index} ended out of order")
        self.spans[index][END] = now

    def timed(self, layer: str, name: str, function: Callable) -> Callable:
        """``function`` wrapped in a span (a pass-through while disabled)."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            index = tracer.begin(name, layer)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.end(index)

        return wrapper

    # -- op ids ----------------------------------------------------------

    def note_submitted(self, ops, at: float) -> None:
        """Give freshly submitted SessionOps their ids."""
        for op in ops if isinstance(ops, list) else [ops]:
            self._pending[op.register_id].append((op, len(self.ops)))
            self.ops.append(op)
            self.submit_at.append(at)

    def op_for_register(self, register_id: int) -> Optional[int]:
        """The op an attempt on ``register_id`` belongs to.

        A session runs one op per register at a time, in submission
        order, so it is the oldest unfinished op submitted for it.
        """
        pending = self._pending.get(register_id)
        while pending and pending[0][0].done:
            pending.popleft()
        return pending[0][1] if pending else None

    # -- generator slices ------------------------------------------------

    def proxy(self, generator):
        """``generator`` with each resumption recorded as a span."""
        code = generator.gi_code
        return self._drive(
            generator, code.co_name, layer_of(code), [self.op]
        )

    def _drive(self, generator, name: str, layer: str, cell: list):
        value, error = None, None
        try:
            while True:
                outer_op, outer_cell = self.op, self.cell
                self.op, self.cell = cell[0], cell
                index = self.begin(name, layer)
                try:
                    if error is None:
                        target = generator.send(value)
                    else:
                        target = generator.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self.end(index)
                    self.op, self.cell = outer_op, outer_cell
                try:
                    value, error = (yield target), None
                except GeneratorExit:
                    raise
                except BaseException as thrown:
                    value, error = None, thrown
        finally:
            generator.close()


def self_times(spans: Sequence[Sequence]) -> Dict[Tuple[str, str], list]:
    """Per ``(layer, name)``: ``[calls, total_s, self_s, unattributed_self_s]``.

    Self time is a span's duration minus the durations of its direct
    children; the last column is the self time of spans with no op id.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    table: Dict[Tuple[str, str], list] = {}
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        own = duration - child_time[index]
        row = table.setdefault((span[LAYER], span[NAME]), [0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += own
        if span[OP] is None:
            row[3] += own
    return table


def write_jsonl(path, spans: Sequence[Sequence], limit: int) -> int:
    """Write up to ``limit`` spans, one JSON object per line."""
    keys = ("name", "layer", "start", "end", "parent", "op_id")
    with open(path, "w") as out:
        out.write(json.dumps({"spans": len(spans), "written": min(
            limit, len(spans))}) + "\n")
        for span in spans[:limit]:
            out.write(json.dumps(dict(zip(keys, span))) + "\n")
    return min(limit, len(spans))


class Patches:
    """Attribute replacements that can all be put back exactly."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attribute: str, make: Callable) -> None:
        """Replace ``owner.attribute`` with ``make(original)``."""
        original = vars(owner)[attribute]
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def targets(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original)`` for everything patched."""
        return list(self._undo)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def _is_reply(payload) -> bool:
    return type(payload).__name__.endswith("Reply")


def intercept_handlers(tracer: Tracer, patches: Patches) -> None:
    """Interpose ``Endpoint.register_handler`` — before any cluster exists.

    Handlers are bound once, when replicas and coordinators are built,
    so this one wrapper has to be in place first; it passes straight
    through until the tracer is enabled.  A request's op id is looked
    up under ``(sender, request_id)``; a reply's under the receiving
    coordinator's own pid.
    """
    from repro.transport.base import Endpoint

    def make(original):
        def register_handler(endpoint, payload_type, handler):
            layer = layer_of(handler)
            name = payload_type.__name__
            reply = name.endswith("Reply")
            calls = layer + ".handler_calls"

            def traced_handler(src, payload):
                if not tracer.enabled:
                    return handler(src, payload)
                key = (
                    endpoint.process_id if reply else src,
                    getattr(payload, "request_id", None),
                )
                outer = tracer.op
                tracer.op = tracer.request_ops.get(key)
                tracer.counts[calls] += 1
                index = tracer.begin(name, layer)
                try:
                    return handler(src, payload)
                finally:
                    tracer.end(index)
                    tracer.op = outer

            original(endpoint, payload_type, traced_handler)

        return register_handler

    patches.wrap(Endpoint, "register_handler", make)


def install(tracer: Tracer, patches: Patches) -> None:
    """Install every other wrapper (after warm-up, before traced trials)."""
    from repro import campaign
    from repro.campaign import invariants
    from repro.core.cluster import FabCluster
    from repro.core.coordinator import QuorumRpc
    from repro.core.register import StorageRegister
    from repro.core.session import VolumeSession
    from repro.erasure.reed_solomon import ReedSolomonCode
    from repro.sim.node import StableStore
    from repro.transport import wire
    from repro.transport.aio import AsyncioTransport
    from repro.transport.base import Transport
    from repro.transport.sim import SimTransport

    # core.session: submits, attempts, the synchronous drain.
    def make_submit(original):
        def submit(session, *args, **kwargs):
            if not tracer.enabled:
                return original(session, *args, **kwargs)
            index = tracer.begin(original.__name__, "core.session")
            try:
                ops = original(session, *args, **kwargs)
            finally:
                tracer.end(index)
            tracer.note_submitted(ops, tracer.spans[index][START])
            return ops
        return submit

    for method in ("submit_read", "submit_write", "submit_read_range",
                   "submit_write_range"):
        patches.wrap(VolumeSession, method, make_submit)
    patches.wrap(VolumeSession, "drain",
                 lambda f: tracer.timed("core.session", "drain", f))

    def make_attempt(original):
        def attempt(register, *args):
            if not tracer.enabled:
                return original(register, *args)
            op = tracer.op_for_register(register.register_id)
            if op is not None:
                tracer.attempt_at.setdefault(op, tracer.clock())
                # The session's _run_op slice calling us now learns
                # which op it has been running all along.
                if tracer.cell is not None and tracer.cell[0] is None:
                    tracer.cell[0] = op
                    tracer.spans[tracer.stack[-1]][OP] = op
            outer = tracer.op
            tracer.op = op
            index = tracer.begin("attempt", "core.session")
            try:
                return original(register, *args)
            finally:
                tracer.end(index)
                tracer.op = outer
        return attempt

    for method in ("read_stripe_async", "write_stripe_async",
                   "read_block_async", "write_block_async",
                   "read_blocks_async", "write_blocks_async"):
        patches.wrap(StorageRegister, method, make_attempt)

    # Every protocol coroutine enters through Transport.spawn; its
    # slices are attributed to the module its generator was written in
    # (core.session pumps, core.coordinator op generators, ...).
    def make_spawn(original):
        def spawn(transport, generator):
            if tracer.enabled and inspect.isgenerator(generator):
                generator = tracer.proxy(generator)
            return original(transport, generator)
        return spawn

    patches.wrap(Transport, "spawn", make_spawn)

    def make_set_timer(original):
        def set_timer(transport, delay, callback):
            if not tracer.enabled:
                return original(transport, delay, callback)
            layer, op = layer_of(callback), tracer.op
            name = "timer:" + getattr(callback, "__name__", "callback")

            def traced_callback():
                outer = tracer.op
                tracer.op = op
                index = tracer.begin(name, layer)
                try:
                    callback()
                finally:
                    tracer.end(index)
                    tracer.op = outer

            return original(transport, delay, traced_callback)
        return set_timer

    patches.wrap(Transport, "set_timer", make_set_timer)
    patches.wrap(AsyncioTransport, "set_timer", make_set_timer)

    def make_phase(original):
        def call(rpc, *args, **kwargs):
            tracer.counts["core.coordinator.phases"] += tracer.enabled
            return original(rpc, *args, **kwargs)
        return call

    patches.wrap(QuorumRpc, "call", make_phase)

    # sim.kernel: the loops that step the event queue.
    for method in ("run", "run_until_complete"):
        patches.wrap(Transport, method,
                     lambda f: tracer.timed("sim.kernel", "run", f))

    # Sends, on either substrate; requests record whose op they carry.
    def make_send(layer):
        def make(original):
            def send(transport, src, dst, payload, size=0):
                if not tracer.enabled:
                    return original(transport, src, dst, payload, size)
                outer = op = tracer.op
                request_id = getattr(payload, "request_id", None)
                if request_id is not None and not _is_reply(payload):
                    if op is None:
                        op = tracer.request_ops.get((src, request_id))
                    else:
                        tracer.request_ops[(src, request_id)] = op
                tracer.op = op
                index = tracer.begin("send", layer)
                try:
                    return original(transport, src, dst, payload, size)
                finally:
                    tracer.end(index)
                    tracer.op = outer
            return send
        return make

    patches.wrap(SimTransport, "send", make_send("sim.network"))
    patches.wrap(AsyncioTransport, "send", make_send("transport.aio"))

    # transport.wire: module attributes, looked up at each call.
    def make_codec(name, size_of):
        def make(original):
            def codec(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                index = tracer.begin(name, "transport.wire")
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.end(index)
                tracer.counts["transport.wire.bytes"] += size_of(args, result)
                return result
            return codec
        return make

    patches.wrap(wire, "encode_frame",
                 make_codec("encode", lambda args, frame: len(frame)))
    patches.wrap(wire, "decode_frame",
                 make_codec("decode", lambda args, frame: 0))

    # erasure: the coding primitives, with the data bytes each call
    # covers (encode: the m blocks going in; decode/modify: coming out).
    def make_code(name):
        def make(original):
            def coded(code, *args, **kwargs):
                if not tracer.enabled:
                    return original(code, *args, **kwargs)
                index = tracer.begin(name, "erasure")
                try:
                    result = original(code, *args, **kwargs)
                finally:
                    tracer.end(index)
                if name == "encode":
                    size = sum(len(block) for block in args[0])
                elif name == "decode":
                    size = sum(len(block) for block in result)
                else:
                    size = len(result)
                tracer.counts[f"erasure.{name}_bytes"] += size
                return result
            return coded
        return make

    for method, name in (("encode", "encode"), ("decode", "decode"),
                         ("modify", "modify"), ("encode_delta", "modify"),
                         ("apply_delta", "modify")):
        patches.wrap(ReedSolomonCode, method, make_code(name))

    # sim.node: the stable-store primitives and the bytes they persist.
    def make_store(name, grows):
        def make(original):
            def stored(store, key, *args):
                if not tracer.enabled:
                    return original(store, key, *args)
                before = store.size_of(key) if grows else 0
                index = tracer.begin(name, "sim.node")
                try:
                    return original(store, key, *args)
                finally:
                    tracer.end(index)
                    if name != "load":
                        tracer.counts["sim.node.bytes_stored"] += max(
                            0, store.size_of(key) - before
                        )
            return stored
        return make

    patches.wrap(StableStore, "store", make_store("store", False))
    patches.wrap(StableStore, "append", make_store("store", True))
    patches.wrap(StableStore, "reset_journal", make_store("store", False))
    patches.wrap(StableStore, "load", make_store("load", False))
    patches.wrap(StableStore, "load_journal", make_store("load", False))

    # campaign / verify.
    patches.wrap(campaign, "run_campaign",
                 lambda f: tracer.timed("campaign", "run_campaign", f))
    patches.wrap(invariants.CampaignMonitor, "sample",
                 lambda f: tracer.timed("campaign", "sample", f))
    patches.wrap(invariants, "check_strict_linearizability",
                 lambda f: tracer.timed("verify", "check", f))

    # Clusters built while tracing (the campaign's) are kept so their
    # public counters can be read afterwards.
    def make_init(original):
        def __init__(cluster, *args, **kwargs):
            original(cluster, *args, **kwargs)
            if tracer.enabled:
                tracer.clusters.append(cluster)
        return __init__

    patches.wrap(FabCluster, "__init__", make_init)
