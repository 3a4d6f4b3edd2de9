"""Discrete-event kernel: events, timeouts, processes, interrupts."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Environment, Interrupt


class TestEventsAndTimeouts:
    def test_clock_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_timeout_advances_clock(self):
        env = Environment()
        env.timeout(7.5)
        env.run()
        assert env.now == 7.5

    def test_timeouts_fire_in_order(self):
        env = Environment()
        fired = []
        for delay in [5, 1, 3]:
            timer = env.timeout(delay, value=delay)
            timer._add_callback(lambda event: fired.append(event.value))
        env.run()
        assert fired == [1, 3, 5]

    def test_equal_time_fifo(self):
        env = Environment()
        fired = []
        for tag in range(5):
            timer = env.timeout(1.0, value=tag)
            timer._add_callback(lambda event: fired.append(event.value))
        env.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Environment().timeout(-1)

    def test_run_until(self):
        env = Environment()
        env.timeout(10)
        env.run(until=4)
        assert env.now == 4
        env.run()
        assert env.now == 10

    def test_run_until_beyond_queue(self):
        env = Environment()
        env.run(until=100)
        assert env.now == 100

    def test_event_succeed_once(self):
        env = Environment()
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_event_value_before_trigger(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().value

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_step_on_empty_queue(self):
        with pytest.raises(SimulationError):
            Environment().step()


class TestProcesses:
    def test_process_returns_value(self):
        env = Environment()

        def worker():
            yield env.timeout(3)
            return 42

        process = env.process(worker())
        assert env.run_until_complete(process) == 42
        assert env.now == 3

    def test_process_waits_on_event(self):
        env = Environment()
        gate = env.event()

        def opener():
            yield env.timeout(5)
            gate.succeed("open")

        def waiter():
            result = yield gate
            return result

        env.process(opener())
        process = env.process(waiter())
        assert env.run_until_complete(process) == "open"
        assert env.now == 5

    def test_process_chains(self):
        env = Environment()

        def inner():
            yield env.timeout(2)
            return "inner-done"

        def outer():
            result = yield env.process(inner())
            return result + "!"

        assert env.run_until_complete(env.process(outer())) == "inner-done!"

    def test_process_exception_propagates(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise ValueError("boom")

        process = env.process(bad())
        with pytest.raises(ValueError, match="boom"):
            env.run_until_complete(process)

    def test_yield_non_event_raises(self):
        env = Environment()

        def confused():
            yield 42

        process = env.process(confused())
        with pytest.raises(SimulationError):
            env.run_until_complete(process)

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_deadlock_detection(self):
        env = Environment()

        def stuck():
            yield env.event()  # never triggered

        process = env.process(stuck())
        with pytest.raises(SimulationError, match="deadlock"):
            env.run_until_complete(process)

    def test_time_limit(self):
        env = Environment()

        def slow():
            yield env.timeout(1000)

        process = env.process(slow())
        with pytest.raises(SimulationError, match="limit"):
            env.run_until_complete(process, limit=10)


class TestInterrupts:
    def test_interrupt_while_waiting(self):
        env = Environment()
        log = []

        def worker():
            try:
                yield env.timeout(100)
                log.append("finished")
            except Interrupt as interrupt:
                log.append((f"interrupted:{interrupt.cause}", env.now))

        process = env.process(worker())
        env.run(until=5)
        process.interrupt("crash")
        env.run()
        # Delivered promptly at t=5, not when the abandoned timer fires.
        assert log == [("interrupted:crash", 5)]

    def test_unhandled_interrupt_kills_silently(self):
        env = Environment()

        def worker():
            yield env.timeout(100)

        process = env.process(worker())
        env.run(until=1)
        process.interrupt("crash")
        env.run()
        assert process.triggered
        assert not process.ok

    def test_interrupt_finished_process_is_noop(self):
        env = Environment()

        def quick():
            yield env.timeout(1)
            return "ok"

        process = env.process(quick())
        env.run()
        process.interrupt("late")
        assert process.value == "ok"

    def test_interrupt_before_first_resume(self):
        env = Environment()

        def worker():
            yield env.timeout(10)
            return "ran"

        process = env.process(worker())
        process.interrupt("early")  # before the kernel ever resumed it
        env.run()
        assert process.triggered
        assert not process.ok

    def test_interrupted_waits_dont_resume(self):
        """The event the process waited on must not revive it."""
        env = Environment()
        resumed = []

        def worker():
            yield env.timeout(10)
            resumed.append(True)

        process = env.process(worker())
        env.run(until=1)
        process.interrupt()
        env.run()  # timeout at t=10 still fires, but must not resume worker
        assert resumed == []


class TestCompositeEvents:
    def test_any_of(self):
        env = Environment()

        def worker():
            event, value = yield env.any_of(
                [env.timeout(9, "slow"), env.timeout(2, "fast")]
            )
            return value

        process = env.process(worker())
        assert env.run_until_complete(process) == "fast"
        assert env.now == 2


    def test_any_of_empty(self):
        env = Environment()

        def worker():
            value = yield env.any_of([])
            return value

        process = env.process(worker())
        assert env.run_until_complete(process) == []
        assert env.now == 0

    def test_any_of_with_pretriggered(self):
        env = Environment()
        ready = env.event()
        ready.succeed("ready")

        def worker():
            event, value = yield env.any_of([env.timeout(5, "late"), ready])
            return event is ready, value

        process = env.process(worker())
        assert env.run_until_complete(process) == (True, "ready")
        assert env.now == 0

    def test_any_of_failure_propagates(self):
        env = Environment()
        doomed = env.event()

        def breaker():
            yield env.timeout(1)
            doomed.fail(RuntimeError("boom"))

        def worker():
            try:
                yield env.any_of([doomed, env.timeout(5)])
            except RuntimeError as exc:
                return str(exc)
            return "no failure"

        env.process(breaker())
        process = env.process(worker())
        assert env.run_until_complete(process) == "boom"
        assert env.now == 1

    def test_any_of_resumes_once(self):
        """Later children triggering do not resume the waiter again."""
        env = Environment()
        resumed = []

        def worker():
            yield env.any_of([env.timeout(2), env.timeout(4), env.timeout(6)])
            resumed.append(env.now)
            yield env.timeout(10)

        env.process(worker())
        env.run()
        assert resumed == [2]
