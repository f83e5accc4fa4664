"""Kernel event order and work on the golden fleets, pinned exactly.

The busy metro and broker golden fleets (``tests/test_fleet_golden.py``)
run here once more with a profiler attached that records, for every
dispatched event, the simulated time it fired at and the component its
callback is defined in.  The digest of that stream pins the kernel's
event order: a change to the kernel that adds, drops or reorders an
event, or fires one at another float time, moves it.  The component
(``repro.sim.kernel``, ``repro.net.engine``) is pinned rather than the
callback's qualified name, so that renaming a wake site does not.

The same runs pin the kernel's work counters, ``sim.events`` (events
fired) and ``sim.discarded`` (cancelled heap entries popped), as exact
integers: counts of work do not depend on the machine.  A change that
does more work fails; one that does less re-pins them downward and says
so.  Both streams and counts were recorded on the kernel of
``tests/kernel_reference.py`` before its dispatch was rewritten, and did
not move.
"""

import hashlib

import pytest

from repro.broker import run_fleet
from repro.obs import KernelProfiler
from repro.obs.profile import _callback_key, _component_of
from repro.topo import generate, preset_spec
from repro.workloads import sample_sites
from tests.test_fleet_golden import (BROKER_CASE_STUDY_DIGEST, BUSY_METRO_DIGEST,
                                     _digest)

pytestmark = [pytest.mark.broker, pytest.mark.topo]

#: sha256 over one ``"<repr(sim_time)> <component>"`` line per event
EVENT_ORDER_DIGESTS = {
    "busy-metro":
        "5857ff86d49350d333c6c0b8277a9b3f73e240c6eca848f703f1b4f4b0c13953",
    "broker-case-study":
        "4f0a6d632289857bec4be7c768bec792efe85349c3811d02f203b4b57a0c0ff3",
}
#: ``(sim.events, sim.discarded)`` per fleet
KERNEL_WORK = {
    "busy-metro": (5105, 922),
    "broker-case-study": (568, 487),
}


class EventOrderProfiler(KernelProfiler):
    """A :class:`KernelProfiler` that also hashes the event stream."""

    def __init__(self):
        super().__init__()
        self.stream = hashlib.sha256()

    def run_callback(self, fn, sim_time_s=0.0):
        component = _component_of(_callback_key(fn))
        self.stream.update(f"{sim_time_s!r} {component}\n".encode())
        super().run_callback(fn, sim_time_s)


def _busy_metro(profile):
    spec = preset_spec("metro", seed=7)
    sites = sample_sites(generate(spec).populations, 30, seed=0)
    return run_fleet(0, sites, provider="gdrive", n_uploads_per_site=4,
                     mean_interarrival_s=20.0, mean_size_mb=100.0,
                     size_dist="fixed", mode="direct", topo=spec,
                     profile=profile)


def _broker_case_study(profile):
    return run_fleet(3, ("ubc", "purdue", "ucla"), provider="gdrive",
                     n_uploads_per_site=3, mean_interarrival_s=60.0,
                     mean_size_mb=40.0, size_dist="lognormal",
                     mode="broker", cross_traffic=True, profile=profile)


FLEETS = {"busy-metro": (_busy_metro, BUSY_METRO_DIGEST),
          "broker-case-study": (_broker_case_study, BROKER_CASE_STUDY_DIGEST)}


@pytest.fixture(scope="module")
def profiled():
    """fleet name -> (result digest, profiler), one run per fleet."""
    runs = {}
    for name, (fleet, _) in FLEETS.items():
        profiler = EventOrderProfiler()
        runs[name] = (_digest(fleet(profiler)), profiler)
    return runs


@pytest.mark.parametrize("name", sorted(FLEETS))
def test_profiled_fleet_matches_golden(name, profiled):
    """obs-off == obs-on: attaching the profiler moves no result."""
    assert profiled[name][0] == FLEETS[name][1]


@pytest.mark.parametrize("name", sorted(FLEETS))
def test_event_order_golden(name, profiled):
    assert profiled[name][1].stream.hexdigest() == EVENT_ORDER_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(FLEETS))
def test_kernel_work_counts(name, profiled):
    profiler = profiled[name][1]
    counts = dict(profiler.counts())
    work = (counts.get("sim.events", 0), counts.get("sim.discarded", 0))
    assert work == KERNEL_WORK[name]
    assert work[0] == profiler.events_total


def test_callback_keys_are_deterministic(profiled):
    """No key holds a memory address, the keys and their call counts are
    the same on a second run, and every key is the kernel's or the
    engine's."""
    keys = [(key, calls) for key, calls, _ in profiled["busy-metro"][1].callback_stats()]
    again = EventOrderProfiler()
    _busy_metro(again)
    assert sorted(keys) == sorted((key, calls) for key, calls, _ in again.callback_stats())
    assert not [key for key, _ in keys if "0x" in key]
    assert {_component_of(key) for key, _ in keys} <= {"repro.sim.kernel",
                                                      "repro.net.engine"}
