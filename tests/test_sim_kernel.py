"""Discrete-event kernel: scheduling, processes, signals, combinators."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Interrupt, Signal, Simulator, Timeout


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: seen.append(("b", sim.now)))
        sim.schedule(1.0, lambda: seen.append(("a", sim.now)))
        sim.schedule(3.0, lambda: seen.append(("c", sim.now)))
        sim.run()
        assert seen == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_fifo_at_equal_times(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: seen.append(i))
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append("low"), priority=5)
        sim.schedule(1.0, lambda: seen.append("high"), priority=-5)
        sim.run()
        assert seen == ["high", "low"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        times = []
        sim.schedule_at(4.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [4.5]

    def test_cancel(self):
        sim = Simulator()
        seen = []
        h = sim.schedule(1.0, lambda: seen.append("x"))
        h.cancel()
        assert not h.active
        sim.run()
        assert seen == []

    def test_handle_inactive_once_fired(self):
        sim = Simulator()
        seen = []
        h = sim.schedule(1.0, lambda: seen.append(h.active))
        assert h.active
        sim.run()
        assert seen == [False]  # already spent while its callback runs
        assert not h.active
        h.cancel()  # cancelling a spent handle is a no-op
        assert not h.active

    def test_run_until_stops_clock_at_horizon(self):
        sim = Simulator()
        seen = []
        sim.schedule(10.0, lambda: seen.append("late"))
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert seen == []
        sim.run()  # finish the rest
        assert seen == ["late"]

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(1.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [1.0, 2.0]

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() is None
        sim.schedule(3.0, lambda: None)
        assert sim.peek() == 3.0


class TestProcesses:
    def test_simple_delay_process(self):
        sim = Simulator()

        def proc():
            yield 2.5
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.finished
        assert p.result == 2.5

    def test_sequential_delays_accumulate(self):
        sim = Simulator()
        marks = []

        def proc():
            for _ in range(3):
                yield 1.0
                marks.append(sim.now)

        sim.process(proc())
        sim.run()
        assert marks == [1.0, 2.0, 3.0]

    def test_join_returns_child_result(self):
        sim = Simulator()

        def child():
            yield 1.0
            return 42

        def parent():
            result = yield sim.process(child())
            return result + 1

        p = sim.process(parent())
        sim.run()
        assert p.result == 43

    def test_join_already_finished_process(self):
        sim = Simulator()

        def child():
            yield 0.5
            return "done"

        def parent(c):
            yield 2.0  # child finished long ago
            value = yield c
            return (sim.now, value)

        c = sim.process(child())
        p = sim.process(parent(c))
        sim.run()
        assert p.result == (2.0, "done")

    def test_exception_propagates_to_joiner(self):
        sim = Simulator()

        def child():
            yield 1.0
            raise ValueError("boom")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                return f"caught {exc}"

        p = sim.process(parent())
        sim.run()
        assert p.result == "caught boom"

    def test_unjoined_exception_surfaces_via_result(self):
        sim = Simulator()

        def bad():
            yield 1.0
            raise RuntimeError("unseen")

        p = sim.process(bad())
        sim.run()
        assert isinstance(p.error, RuntimeError)
        with pytest.raises(RuntimeError):
            _ = p.result

    def test_result_before_finish_raises(self):
        sim = Simulator()

        def proc():
            yield 1.0

        p = sim.process(proc())
        with pytest.raises(SimulationError):
            _ = p.result

    def test_yield_bad_object_raises_inside_process(self):
        sim = Simulator()

        def proc():
            try:
                yield object()
            except SimulationError:
                return "rejected"

        p = sim.process(proc())
        sim.run()
        assert p.result == "rejected"

    def test_immediate_return(self):
        sim = Simulator()

        def proc():
            return 7
            yield  # pragma: no cover

        p = sim.process(proc())
        sim.run()
        assert p.result == 7


class TestSignals:
    def test_trigger_wakes_waiter_with_value(self):
        sim = Simulator()
        sig = Signal(sim)

        def waiter():
            value = yield sig
            return (sim.now, value)

        def trigger():
            yield 3.0
            sig.trigger("hello")

        p = sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert p.result == (3.0, "hello")

    def test_multiple_waiters_all_wake(self):
        sim = Simulator()
        sig = Signal(sim)
        results = []

        def waiter(i):
            value = yield sig
            results.append((i, value))

        for i in range(3):
            sim.process(waiter(i))
        sim.schedule(1.0, lambda: sig.trigger("x"))
        sim.run()
        assert sorted(results) == [(0, "x"), (1, "x"), (2, "x")]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        sig = Signal(sim)
        sig.trigger(1)
        with pytest.raises(SimulationError):
            sig.trigger(2)

    def test_fail_raises_in_waiter(self):
        sim = Simulator()
        sig = Signal(sim)

        def waiter():
            try:
                yield sig
            except KeyError:
                return "failed as expected"

        p = sim.process(waiter())
        sim.schedule(1.0, lambda: sig.fail(KeyError("nope")))
        sim.run()
        assert p.result == "failed as expected"

    def test_value_before_trigger_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _ = Signal(sim).value


class TestCombinators:
    def test_allof_collects_in_order(self):
        sim = Simulator()

        def child(dt, value):
            yield dt
            return value

        def parent():
            results = yield AllOf([sim.process(child(3, "a")), sim.process(child(1, "b"))])
            return (sim.now, results)

        p = sim.process(parent())
        sim.run()
        assert p.result == (3.0, ["a", "b"])

    def test_allof_empty(self):
        sim = Simulator()

        def parent():
            results = yield AllOf([])
            return results

        p = sim.process(parent())
        sim.run()
        assert p.result == []

    def test_yield_list_is_implicit_allof(self):
        sim = Simulator()

        def child(dt):
            yield dt
            return dt

        def parent():
            results = yield [sim.process(child(1)), sim.process(child(2))]
            return results

        p = sim.process(parent())
        sim.run()
        assert p.result == [1, 2]

    def test_anyof_returns_first(self):
        sim = Simulator()

        def child(dt, value):
            yield dt
            return value

        def parent():
            index, value = yield AnyOf([sim.process(child(5, "slow")), sim.process(child(1, "fast"))])
            return (sim.now, index, value)

        p = sim.process(parent())
        sim.run()
        assert p.result == (1.0, 1, "fast")

    def test_anyof_empty_rejected(self):
        with pytest.raises(SimulationError):
            AnyOf([])

    def test_timeout_expires(self):
        sim = Simulator()
        sig = Signal(sim)

        def waiter():
            done, value = yield Timeout(sig, 2.0)
            return (sim.now, done, value)

        p = sim.process(waiter())
        sim.run()
        assert p.result == (2.0, False, None)

    def test_timeout_beaten_by_completion(self):
        sim = Simulator()

        def child():
            yield 1.0
            return "quick"

        def waiter():
            done, value = yield Timeout(sim.process(child()), 10.0)
            return (sim.now, done, value)

        p = sim.process(waiter())
        sim.run()
        assert p.result == (1.0, True, "quick")


class TestInterrupts:
    def test_interrupt_wakes_sleeping_process(self):
        sim = Simulator()

        def sleeper():
            try:
                yield 100.0
            except Interrupt as intr:
                return (sim.now, intr.cause)

        p = sim.process(sleeper())
        sim.schedule(2.0, lambda: p.interrupt("wake up"))
        sim.run()
        assert p.result == (2.0, "wake up")

    def test_unhandled_interrupt_cancels_quietly(self):
        sim = Simulator()

        def sleeper():
            yield 100.0
            return "never"

        p = sim.process(sleeper())
        sim.schedule(1.0, lambda: p.interrupt())
        sim.run()
        assert p.finished
        assert p.result is None

    def test_interrupt_after_done_is_noop(self):
        sim = Simulator()

        def quick():
            yield 1.0
            return "ok"

        p = sim.process(quick())
        sim.run()
        p.interrupt()
        sim.run()
        assert p.result == "ok"


class TestDispatchEdges:
    """Paths the dispatch loop and the process wake special-case."""

    def test_negative_delay_is_thrown_into_the_process(self):
        sim = Simulator()

        def proc():
            try:
                yield -1.0
            except SimulationError as exc:
                yield 2  # still alive, and sleeps on
                return (sim.now, str(exc))

        p = sim.process(proc())
        sim.run()
        assert p.result == (2.0, "cannot sleep a negative duration: -1.0")

    def test_yield_true_sleeps_one_second(self):
        sim = Simulator()

        def proc():
            yield True
            yield False
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.result == 1.0

    def test_int_and_float_sleeps_land_on_the_same_clock(self):
        sim = Simulator()
        marks = []

        def proc():
            for dt in (1, 0.5, 0, 2):
                yield dt
                marks.append(sim.now)

        sim.process(proc())
        sim.run()
        assert marks == [1.0, 1.5, 1.5, 3.5]
        assert all(type(t) is float for t in marks)

    def test_triggered_signal_resumes_on_the_next_tick(self):
        sim = Simulator()
        sig = Signal(sim)
        sig.trigger("ready")
        seen = []

        def waiter():
            seen.append("before")
            value = yield sig
            seen.append(value)

        sim.process(waiter())
        sim.schedule(0.0, lambda: seen.append("queued"))
        sim.step()  # starts the process, which parks on the signal
        assert seen == ["before"]
        sim.step()  # the callback queued before the wake runs first
        assert seen == ["before", "queued"]
        sim.step()
        assert seen == ["before", "queued", "ready"]
        assert sim.now == 0.0

    def test_interrupt_detaches_a_parked_process(self):
        sim = Simulator()
        sig = Signal(sim)
        seen = []

        def waiter():
            try:
                yield sig
            except Interrupt:
                seen.append(("interrupted", sim.now))
            yield 5.0
            seen.append(("slept", sim.now))

        p = sim.process(waiter())
        sim.schedule(1.0, p.interrupt)
        sim.schedule(2.0, lambda: sig.trigger("late"))
        sim.run()
        assert seen == [("interrupted", 1.0), ("slept", 6.0)]

    def test_wake_already_due_yields_to_an_interrupt(self):
        sim = Simulator()
        sig = Signal(sim)
        seen = []

        def waiter():
            try:
                seen.append((yield sig))
            except Interrupt as intr:
                seen.append(intr.cause)

        p = sim.process(waiter())

        def trigger_then_interrupt():
            sig.trigger("value")  # schedules the wake ...
            p.interrupt("first")  # ... which the interrupt supersedes

        sim.schedule(1.0, trigger_then_interrupt)
        sim.run()
        assert seen == ["first"]

    def test_run_until_triggered_max_events_backstop(self):
        sim = Simulator()
        sig = Signal(sim)

        def ticker():
            while True:
                yield 1.0

        sim.process(ticker())
        with pytest.raises(SimulationError, match="max_events=5"):
            sim.run_until_triggered(sig, max_events=5)
        assert sim.now == 4.0  # the start plus four ticks

    def test_run_max_events_backstop(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        with pytest.raises(SimulationError, match="max_events=2"):
            sim.run(max_events=2)
        sim.run()  # not left marked as running
        assert sim.now == 2.0

    def test_run_until_leaves_clock_at_horizon_after_drain(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0
        sim.run(until=3.0)  # the clock never goes back
        assert sim.now == 5.0

    def test_step_skips_cancelled_entries(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1)).cancel()
        sim.schedule(2.0, lambda: seen.append(2))
        assert sim.step() is True
        assert seen == [2] and sim.now == 2.0
        assert sim.step() is False
