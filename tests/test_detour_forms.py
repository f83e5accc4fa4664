"""The three forms of the DTN detour, pinned and held to one protocol.

The paper's detour is store-and-forward (rsync to the DTN, then the
provider API from it); the pipelined relay and detoured downloads are
extensions.  The pins below fix every timing of each form, with
observability off and on, so a refactor of the shared pieces cannot
move a result silently.  The other tests hold the extensions to the
same upload protocol as the paper's form: the provider's fault
injection and retries, its request metrics, and the DTN's session slots.
"""

import numpy as np
import pytest

from repro.cloud import FaultInjector
from repro.core import DetourRoute, DirectRoute, PlanExecutor, TransferPlan
from repro.testbed import build_case_study
from repro.transfer import FileSpec, RelayMode
from repro.units import mb

PIPELINED = DetourRoute("ualberta", mode=RelayMode.PIPELINED)

#: form -> (repr of total_s, repr of each leg's duration_s), seed 0 with
#: cross traffic, 100 MB between UBC and Google Drive via UAlberta.
PINS = {
    "pipelined": ("20.427332407721543", ("19.507051246687347",)),
    "store-and-forward": ("36.02837884541163",
                          ("17.98096370975596", "18.04741513565567")),
    "detour-download": ("35.676941996314284",
                        ("17.69597828655832", "17.980963709755965")),
    "direct-download": ("19.72644577217988", ("19.72644577217988",)),
}


def _drive(world, coroutine):
    proc = world.sim.process(coroutine)
    world.sim.run_until_triggered(proc.done, horizon=1e7)
    if proc.error:
        raise proc.error
    return proc.result


def _store_dataset(world, provider="gdrive", size_mb=100):
    world.provider(provider).store.put(
        "dataset.bin", int(mb(size_mb)), "digest", "owner", now=0.0)


def run_form(form, **obs):
    world = build_case_study(seed=0, **obs)
    executor = PlanExecutor(world)
    if form.endswith("download"):
        _store_dataset(world)
        route = DirectRoute() if form == "direct-download" else DetourRoute("ualberta")
        plan = TransferPlan("ubc", "gdrive", FileSpec("dataset.bin", int(mb(100))), route)
        result = _drive(world, executor.execute_download(plan))
    else:
        route = PIPELINED if form == "pipelined" else DetourRoute("ualberta")
        result = executor.run(
            TransferPlan("ubc", "gdrive", FileSpec("pin.bin", int(mb(100))), route))
    return repr(result.total_s), tuple(repr(leg.duration_s) for leg in result.legs)


@pytest.mark.parametrize("form", sorted(PINS))
def test_detour_form_pinned(form):
    assert run_form(form) == PINS[form]


@pytest.mark.parametrize("form", sorted(PINS))
def test_detour_form_pinned_with_observability(form):
    assert run_form(form, trace=True, metrics=True) == PINS[form]


def _pipelined_dropbox(fault_rate):
    world = build_case_study(seed=2, cross_traffic=False, metrics=True)
    provider = world.provider("dropbox")
    if fault_rate:
        provider.fault_injector = FaultInjector(
            np.random.default_rng(7), error_rate=fault_rate)
    result = PlanExecutor(world).run(TransferPlan(
        "ubc", "dropbox", FileSpec("f.bin", int(mb(100))), PIPELINED))
    return world, provider, result


class TestPipelinedRelayFaults:
    def test_relay_requests_are_injected_and_retried(self):
        _, _, calm = _pipelined_dropbox(0.0)
        world, provider, faulty = _pipelined_dropbox(0.3)
        retries = world.metrics.get("repro_cloud_retries_total")
        assert provider.fault_injector.injected > 0
        assert retries.value(endpoint="dropbox") == provider.fault_injector.injected
        assert faulty.total_s > calm.total_s
        assert provider.store.exists("f.bin")

    def test_relay_control_requests_are_counted(self):
        world, provider, _ = _pipelined_dropbox(0.0)
        chunks = -(-int(mb(100)) // provider.protocol.chunk_bytes)
        requests = world.metrics.get("repro_cloud_requests_total")
        # token fetch, session init, one per chunk, commit
        assert requests.value(endpoint="dropbox") == chunks + 3
        assert world.metrics.get("repro_api_chunks_total").value(provider="dropbox") == chunks


class TestDtnSlotForEveryForm:
    def _two_at_once(self, coroutine_for):
        world = build_case_study(seed=0, cross_traffic=False)
        world.add_dtn("limited", "ualberta-dtn", max_sessions=1)
        _store_dataset(world, size_mb=40)
        for i in range(2):
            world.sim.process(coroutine_for(world, PlanExecutor(world), i))
        world.sim.run(until=1e5)
        return world.dtn_of("limited").sessions

    def test_pipelined_relays_queue(self):
        route = DetourRoute("limited", mode=RelayMode.PIPELINED)
        slots = self._two_at_once(lambda world, ex, i: ex.execute(TransferPlan(
            "ubc", "gdrive", FileSpec(f"r{i}.bin", int(mb(40))), route)))
        assert slots.total_waits == 1
        assert slots.peak_in_use == 1

    def test_detoured_downloads_queue(self):
        route = DetourRoute("limited")
        slots = self._two_at_once(lambda world, ex, i: ex.execute_download(TransferPlan(
            ("ubc", "purdue")[i], "gdrive",
            FileSpec("dataset.bin", int(mb(40))), route)))
        assert slots.total_waits == 1
        assert slots.peak_in_use == 1


def test_detoured_download_is_a_recorded_plan():
    """A download is counted and traced like an upload: one plan, one
    metric sample per leg kind, and one ``plan:`` span."""
    from repro.obs import extract_span_records

    world = build_case_study(seed=0, cross_traffic=False, trace=True,
                             metrics=True)
    _store_dataset(world, size_mb=40)
    plan = TransferPlan("ubc", "gdrive", FileSpec("dataset.bin", int(mb(40))),
                        DetourRoute("ualberta"))
    _drive(world, PlanExecutor(world).execute_download(plan))
    metrics = world.metrics
    assert metrics.get("repro_executor_plans_total").value(
        route="via ualberta", provider="gdrive") == 1
    assert metrics.get("repro_executor_plan_seconds").count(
        route="via ualberta") == 1
    leg_s = metrics.get("repro_executor_leg_seconds")
    assert (leg_s.count(kind="rsync"), leg_s.count(kind="api")) == (1, 1)
    plans = [r for r in extract_span_records(world.tracer)
             if r.component == "core.executor" and r.name.startswith("plan:")]
    assert [r.name for r in plans] == ["plan:via ualberta"]
