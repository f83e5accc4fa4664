"""Twin: the live kernel against the frozen reference on random programs.

``tests/kernel_reference.py`` is the kernel as it was before process
wakes became bound methods and ``run`` / ``run_until_triggered`` shared
one dispatch loop.  Each example below builds one random program --
processes that sleep (including ``0``, ``int``, ``True`` and negative
delays), wait on signals that are triggered or failed, wait on
``AllOf`` / ``AnyOf`` / ``Timeout``, join, spawn, interrupt one another
(and themselves, and while parked on a signal that triggers in the same
instant), cancel raw callbacks, yield bad objects and raise -- and runs
it on both kernels.  Every process's ``(repr(now), event)`` log, its
final state, and the simulated time of every dispatched event must be
the same.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.obs import KernelProfiler
from repro.sim import kernel as live
from tests import kernel_reference as reference


class Boom(Exception):
    """A failure raised by a program: by ``Signal.fail`` or a process."""


class TimesProfiler(KernelProfiler):
    """Runs every event and records the simulated time it fired at."""

    def __init__(self):
        super().__init__()
        self.times = []

    def run_callback(self, fn, sim_time_s=0.0):
        self.times.append(repr(sim_time_s))
        fn()


N_SIGNALS = 3
N_PROCS = 4

delays = st.sampled_from([0, 0.0, 1, 2, 0.5, 0.1, 0.2, 1.5, True, False, -1.0, -2])
signal_ids = st.integers(0, N_SIGNALS - 1)
proc_ids = st.integers(0, N_PROCS - 1)
items = st.one_of(st.tuples(st.just("d"), delays.filter(lambda d: d >= 0)),
                  st.tuples(st.just("s"), signal_ids),
                  st.tuples(st.just("p"), proc_ids))
sleeps = st.tuples(st.just("sleep"), delays)
waits = st.tuples(st.just("wait"), signal_ids)
ops = st.one_of(
    sleeps, sleeps, waits, waits,
    st.tuples(st.just("trigger"), signal_ids),
    st.tuples(st.just("fail"), signal_ids),
    st.tuples(st.just("allof"), st.lists(items, max_size=3)),
    st.tuples(st.just("list"), st.lists(items, max_size=2)),
    st.tuples(st.just("anyof"), st.lists(items, min_size=1, max_size=3)),
    st.tuples(st.just("timeout"), items, st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    st.tuples(st.just("join"), proc_ids),
    st.tuples(st.just("spawn"), delays.filter(lambda d: d >= 0)),
    st.tuples(st.just("interrupt"), proc_ids),
    st.tuples(st.just("cancel"), st.integers(0, 3)),
    st.tuples(st.just("bad")),
    st.tuples(st.just("raise")),
)
process = st.tuples(st.booleans(), st.lists(ops, max_size=6))
raw = st.tuples(st.sampled_from([0.0, 1, 1.0, 1.5, 2.0]),
                st.sampled_from(["trigger", "fail", "interrupt", "trigger+interrupt"]),
                signal_ids, proc_ids)
drivers = st.one_of(
    st.tuples(st.just("run"), st.none(), st.sampled_from([None, 3, 12])),
    st.tuples(st.just("until"), st.sampled_from([0.0, 1.0, 1.5, 2.5, 9.0]),
              st.sampled_from([None, 3, 12])),
    st.tuples(st.just("triggered"), proc_ids,
              st.sampled_from([None, 3, 12])),
    st.tuples(st.just("horizon"), st.sampled_from([0.0, 1.0, 2.0]), st.none()),
    st.tuples(st.just("step"), st.integers(0, 6), st.none()),
)
programs = st.tuples(st.lists(process, min_size=1, max_size=N_PROCS),
                     st.lists(raw, max_size=4), drivers)


def execute(kern, program, profiler=None):
    """Run *program* on kernel module *kern*; returns (log, event times)."""
    proc_specs, raws, driver = program
    sim = kern.Simulator(profiler=profiler)
    log = []
    signals = [kern.Signal(sim, f"s{i}") for i in range(N_SIGNALS)]
    procs, handles = [], []

    def note(*event):
        log.append((repr(sim.now),) + event)

    def proc_of(j):
        return procs[j % len(procs)]

    def waitable(item):
        kind, arg = item
        if kind == "s":
            return signals[arg]
        return proc_of(arg) if kind == "p" else arg

    def trigger(i, who):
        if signals[i].triggered:
            note(who, "already", i)
        else:
            signals[i].trigger(f"v{i}-{who}")

    def fail(i, who):
        if not signals[i].triggered:
            signals[i].fail(Boom(f"s{i}-{who}"))

    def sleeper(d):
        yield d
        return f"slept {d!r}"

    def body(pid, catch, program_ops):
        for op in program_ops:
            kind = op[0]
            if kind == "raise":
                raise Boom(f"p{pid}")
            try:
                if kind == "sleep":
                    got = yield op[1]
                elif kind == "wait":
                    got = yield signals[op[1]]
                elif kind == "trigger":
                    got = trigger(op[1], pid)
                elif kind == "fail":
                    got = fail(op[1], pid)
                elif kind == "allof":
                    got = yield kern.AllOf([waitable(i) for i in op[1]])
                elif kind == "list":
                    got = yield [waitable(i) for i in op[1]]
                elif kind == "anyof":
                    got = yield kern.AnyOf([waitable(i) for i in op[1]])
                elif kind == "timeout":
                    got = yield kern.Timeout(waitable(op[1]), op[2])
                elif kind == "join":
                    got = yield proc_of(op[1])
                elif kind == "spawn":
                    got = yield sim.process(sleeper(op[1]))
                elif kind == "interrupt":
                    got = proc_of(op[1]).interrupt(f"by p{pid}")
                elif kind == "cancel":
                    got = None
                    if handles:
                        handles[op[1] % len(handles)].cancel()
                else:
                    got = yield "not a waitable"
                note(pid, kind, repr(got))
            except kern.Interrupt as exc:
                note(pid, kind, "interrupted", repr(exc.cause))
                if not catch:
                    raise
            except (SimulationError, Boom) as exc:
                note(pid, kind, type(exc).__name__, str(exc))
        return pid

    for pid, (catch, program_ops) in enumerate(proc_specs):
        procs.append(sim.process(body(pid, catch, program_ops)))

    def raw_callback(k, action, i, j):
        def fire():
            note("cb", k, action)
            if action in ("trigger", "trigger+interrupt"):
                trigger(i, f"cb{k}")
            if action == "fail":
                fail(i, f"cb{k}")
            if action in ("interrupt", "trigger+interrupt"):
                proc_of(j).interrupt(f"by cb{k}")
        return fire

    for k, (delay, action, i, j) in enumerate(raws):
        handles.append(sim.schedule(delay, raw_callback(k, action, i, j)))

    kind, arg, max_events = driver
    limit = {} if max_events is None else {"max_events": max_events}
    try:
        if kind == "run":
            sim.run(**limit)
        elif kind == "until":
            sim.run(until=arg, **limit)
            note("until", arg)
        elif kind == "triggered":
            note("triggered", sim.run_until_triggered(proc_of(arg).done, **limit))
        elif kind == "horizon":
            note("horizon", sim.run_until_triggered(procs[-1].done, horizon=arg))
        else:
            for _ in range(arg):
                note("step", sim.step())
    except SimulationError as exc:
        note("driver", str(exc))
    sim.run()
    for p in procs:
        state = repr(p.result) if p.finished and p.error is None else repr(p.error)
        note("final", p.finished, state)
    return log, profiler.times if profiler is not None else None


RUN = ("run", None, None)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(programs)
# two processes parked on one signal wake in the order they parked
@example(([(True, [("wait", 0)]), (True, [("wait", 0)]),
           (True, [("sleep", 1), ("trigger", 0)])], [], RUN))
# interrupted while parked on a signal that triggers in the same instant
@example(([(True, [("wait", 0), ("sleep", 1)])], [(1.0, "trigger+interrupt", 0, 0)], RUN))
# a process interrupts itself, and again while handling that interrupt:
# the second interrupt cancels the sleep the first one cut short
@example(([(True, [("interrupt", 0), ("sleep", 1), ("interrupt", 0), ("sleep", 5),
                   ("sleep", 5)])], [], RUN))
# a process interrupts itself while parked: the stale wake still comes
@example(([(True, [("interrupt", 0), ("wait", 0), ("wait", 1), ("sleep", 1)]),
           (True, [("sleep", 1), ("trigger", 0), ("sleep", 1), ("trigger", 1)])], [], RUN))
def test_live_kernel_matches_reference(program):
    expected, times = execute(reference, program, TimesProfiler())
    plain, _ = execute(live, program)
    assert plain == expected
    profiler = TimesProfiler()
    profiled, live_times = execute(live, program, profiler)
    assert profiled == expected
    assert live_times == times
    assert dict(profiler.counts()).get("sim.events", len(times)) == len(times)
