"""Self times, span nesting, generator proxies, and clean uninstall."""

import pytest

from benchmarks.e2e import trace


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = trace.Tracer(clock)
    root = tracer.begin("trial", "root")
    clock.now = 1.0
    outer = tracer.begin("write_block", "core.coordinator")
    clock.now = 2.0
    tracer.op = 7
    inner = tracer.begin("encode", "erasure")
    clock.now = 5.0
    tracer.end(inner)
    tracer.op = None
    again = tracer.begin("send", "sim.network")
    clock.now = 5.5
    tracer.end(again)
    clock.now = 7.0
    tracer.end(outer)
    clock.now = 10.0
    tracer.end(root)

    rows = trace.self_times(tracer.spans)
    assert rows[("root", "trial")] == [1, 10.0, 4.0, 4.0]
    assert rows[("core.coordinator", "write_block")] == [1, 6.0, 2.5, 2.5]
    assert rows[("erasure", "encode")] == [1, 3.0, 3.0, 0.0]  # has an op id
    assert rows[("sim.network", "send")] == [1, 0.5, 0.5, 0.5]
    assert sum(row[2] for row in rows.values()) == 10.0  # sums to the root


def test_spans_must_nest():
    tracer = trace.Tracer(FakeClock())
    first = tracer.begin("a", "x")
    tracer.begin("b", "x")
    with pytest.raises(trace.TraceError):
        tracer.end(first)


def test_proxy_records_slices_and_keeps_generator_semantics():
    tracer = trace.Tracer(FakeClock())
    seen = []

    def protocol():
        try:
            seen.append((yield "first"))
            yield "second"
        except KeyError as error:
            seen.append(error)
            return "recovered"

    tracer.op = 3
    proxied = tracer.proxy(protocol())
    tracer.op = None
    assert next(proxied) == "first"
    assert proxied.send("reply") == "second"
    with pytest.raises(StopIteration) as stop:
        proxied.throw(KeyError("boom"))
    assert stop.value.value == "recovered"
    assert seen[0] == "reply" and isinstance(seen[1], KeyError)
    assert [span[0] for span in tracer.spans] == ["protocol"] * 3
    assert {span[5] for span in tracer.spans} == {3}  # op id rides along
    assert tracer.stack == [] and tracer.op is None


def test_layers_are_named_after_the_source_module():
    from repro.core.coordinator import Coordinator
    from repro.core.log import ReplicaLog
    from repro.verify.linearizability import check_strict_linearizability

    assert trace.layer_of(Coordinator.read_block) == "core.coordinator"
    assert trace.layer_of(ReplicaLog.__init__) == "core.replica"
    assert trace.layer_of(check_strict_linearizability) == "verify"
    assert trace.layer_of(test_spans_must_nest) == "loadgen"
    assert trace.layer_of(len) == "other"


def test_install_then_uninstall_restores_every_attribute():
    tracer, patches = trace.Tracer(), trace.Patches()
    trace.intercept_handlers(tracer, patches)
    trace.install(tracer, patches)
    targets = patches.targets()
    assert len(targets) > 30
    for owner, attribute, original in targets:
        assert vars(owner)[attribute] is not original
    patches.uninstall()
    assert patches.targets() == []
    for owner, attribute, original in targets:
        assert vars(owner)[attribute] is original
