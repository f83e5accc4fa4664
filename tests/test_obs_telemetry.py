"""Campaign telemetry: event stream, aggregator, and the no-perturbation
invariant (telemetry-on parallel == telemetry-off serial, byte for byte)."""

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    PoolConfig,
    ResultStore,
    export_records,
)
from repro.campaign.pool import execute_cells
from repro.campaign.store import TIMEOUT_KIND
from repro.errors import ObservabilityError
from repro.measure import ExperimentProtocol
from repro.obs import (
    MetricsRegistry,
    ProgressSnapshot,
    TelemetryAggregator,
    TelemetryEvent,
    render_event,
    render_progress,
)
from repro.obs.telemetry import EVENT_KINDS, as_sink, reindexed

pytestmark = pytest.mark.campaign

FAST_PROTO = ExperimentProtocol(2, 0, 1.0)


def small_spec(**over) -> CampaignSpec:
    kw = dict(clients=("ubc",), providers=("gdrive", "dropbox"),
              sizes_mb=(1.0, 2.0), protocol=FAST_PROTO, cross_traffic=False)
    kw.update(over)
    return CampaignSpec(**kw)


class TestTelemetryEvent:
    def test_round_trips_through_dict(self):
        ev = TelemetryEvent("cell_finished", "ubc/gdrive/direct/1MB", 3,
                            attempt=2, status="ok", wall_s=0.25,
                            queue_depth=4, running=2, worker=123)
        assert TelemetryEvent.from_dict(ev.to_dict()) == ev

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError):
            TelemetryEvent("cell_exploded", "c", 0)

    def test_as_sink_variants(self):
        seen = []
        assert as_sink(None) is None
        as_sink(seen.append)(TelemetryEvent("cell_started", "c", 0))
        agg = TelemetryAggregator()
        as_sink(agg)(TelemetryEvent("cell_started", "c", 1))
        assert len(seen) == 1
        assert agg.snapshot().started == 1
        with pytest.raises(ObservabilityError):
            as_sink(42)

    def test_reindexed_rewrites_pool_local_indexes(self):
        seen = []
        sink = reindexed(seen.append, [7, 9])
        sink(TelemetryEvent("cell_started", "c", 0))
        sink(TelemetryEvent("cell_started", "c", 1))
        assert [ev.index for ev in seen] == [7, 9]


class TestAggregator:
    def events_for_one_cell(self):
        return [
            TelemetryEvent("cell_started", "c0", 0, queue_depth=1, running=1),
            TelemetryEvent("cell_finished", "c0", 0, status="ok", wall_s=0.5),
            TelemetryEvent("cell_cached", "c1", 1, status="ok"),
        ]

    def test_folds_stream_into_snapshot(self):
        agg = TelemetryAggregator()
        agg.expect(2)
        for ev in self.events_for_one_cell():
            agg.emit(ev)
        snap = agg.snapshot()
        assert isinstance(snap, ProgressSnapshot)
        assert snap.total == 2
        assert snap.started == 1
        assert snap.finished_ok == 1
        assert snap.cached == 1
        assert snap.done == 2 and snap.errors == 0
        assert snap.wall_s_total == 0.5
        assert snap.last_cell == "c1"

    def test_metrics_series(self):
        agg = TelemetryAggregator()
        for ev in self.events_for_one_cell():
            agg.emit(ev)
        m = agg.metrics
        assert m.get("repro_campaign_events_total").total() == 3
        assert m.get("repro_campaign_store_hits_total").total() == 1
        assert m.get("repro_campaign_store_misses_total").total() == 1
        assert m.get("repro_campaign_cell_wall_seconds").count() == 1
        assert m.get("repro_campaign_cell_wall_seconds").sum() == 0.5

    def test_retry_does_not_count_a_second_miss(self):
        agg = TelemetryAggregator()
        agg.emit(TelemetryEvent("cell_started", "c", 0, attempt=1))
        agg.emit(TelemetryEvent("cell_retried", "c", 0, attempt=1,
                                error_kind="crash"))
        agg.emit(TelemetryEvent("cell_started", "c", 0, attempt=2))
        assert agg.metrics.get("repro_campaign_store_misses_total").total() == 1
        assert agg.snapshot().started == 2
        assert agg.snapshot().retried == 1

    def test_on_event_hook_and_keep_events(self):
        seen = []
        agg = TelemetryAggregator(on_event=seen.append, keep_events=2)
        for ev in self.events_for_one_cell():
            agg.emit(ev)
        assert len(seen) == 3
        assert len(agg.events) == 2  # ring: oldest dropped
        assert agg.events[-1].kind == "cell_cached"


class TestRendering:
    def test_render_event_lines(self):
        line = render_event(TelemetryEvent(
            "cell_finished", "ubc/gdrive/direct/1MB", 4, status="ok",
            wall_s=0.31, queue_depth=2, running=3))
        assert "finished" in line and "#4" in line
        assert "ok in 0.31s" in line
        assert "[3 running, 2 queued]" in line
        assert "ubc/gdrive/direct/1MB" in line
        retry = render_event(TelemetryEvent(
            "cell_retried", "c", 0, attempt=2, error_kind=TIMEOUT_KIND))
        assert "attempt 2" in retry and TIMEOUT_KIND in retry

    def test_render_progress_bar(self):
        snap = ProgressSnapshot(total=4, finished_ok=2, running=1,
                                queue_depth=1, wall_s_total=1.5)
        line = render_progress(snap, width=4)
        assert "[##..] 2/4" in line
        assert "ok 2 err 0" in line
        assert "1 running, 1 queued" in line
        assert "cell wall 1.5s" in line

    def test_render_progress_unknown_total(self):
        assert "0/?" in render_progress(ProgressSnapshot())


def stream_of(spec, jobs, **runner_kw):
    events = []
    agg = TelemetryAggregator(on_event=events.append)
    result = CampaignRunner(spec, pool=PoolConfig(jobs=jobs),
                            telemetry=agg, **runner_kw).run()
    return result, agg, events


class TestPoolStreams:
    def test_serial_pool_emits_start_finish_pairs(self):
        cells = small_spec().expand()
        events = []
        execute_cells(cells, PoolConfig(jobs=1), telemetry=events.append)
        kinds = [ev.kind for ev in events]
        assert kinds == ["cell_started", "cell_finished"] * len(cells)
        for i, cell in enumerate(cells):
            started, finished = events[2 * i], events[2 * i + 1]
            assert started.index == finished.index == i
            assert started.cell == finished.cell == cell.describe()
            assert started.queue_depth == len(cells) - i - 1
            assert finished.status == "ok"
            assert finished.wall_s > 0
            assert finished.worker == 0  # in-process path

    def test_parallel_pool_streams_with_worker_pids(self):
        cells = small_spec().expand()
        events = []
        execute_cells(cells, PoolConfig(jobs=3), telemetry=events.append)
        started = [ev for ev in events if ev.kind == "cell_started"]
        finished = [ev for ev in events if ev.kind == "cell_finished"]
        assert len(started) == len(finished) == len(cells)
        assert {ev.index for ev in finished} == set(range(len(cells)))
        assert all(ev.worker > 0 for ev in finished)
        assert all(ev.running <= 3 for ev in events)
        # a started cell is in flight when its event fires
        assert all(ev.running >= 1 for ev in started)

    def test_timeout_emits_retried_then_quarantined(self):
        cells = small_spec(providers=("gdrive",), sizes_mb=(1.0,),
                           routes=("direct",)).expand()
        events = []
        execute_cells(cells, PoolConfig(jobs=2, timeout_s=0.001, retries=1),
                      telemetry=events.append)
        kinds = [ev.kind for ev in events]
        assert kinds == ["cell_started", "cell_retried",
                         "cell_started", "cell_quarantined"]
        assert events[1].error_kind == TIMEOUT_KIND
        assert events[3].error_kind == TIMEOUT_KIND
        assert events[2].attempt == 2

    def test_no_sink_accepts_none(self):
        cells = small_spec(providers=("gdrive",), sizes_mb=(1.0,),
                           routes=("direct",)).expand()
        assert len(execute_cells(cells, PoolConfig(jobs=1))) == 1


class TestRunnerStream:
    def test_cached_cells_emit_cell_cached_in_spec_order(self, tmp_path):
        store = ResultStore(tmp_path / "cells")
        CampaignRunner(small_spec(sizes_mb=(1.0,)), store=store).run()
        spec = small_spec()
        result, agg, events = stream_of(spec, jobs=1, store=store)
        cached = [ev for ev in events if ev.kind == "cell_cached"]
        executed = [ev for ev in events if ev.kind == "cell_finished"]
        assert len(cached) == result.cached == 6
        assert len(executed) == result.executed == 6
        # indexes are spec positions, disjoint, and cover the matrix
        cells = spec.expand()
        assert all(cells[ev.index].describe() == ev.cell for ev in events)
        assert {ev.index for ev in cached} | {ev.index for ev in executed} \
            == set(range(len(cells)))
        snap = agg.snapshot()
        assert snap.total == len(cells)
        assert snap.done == len(cells)
        assert agg.metrics.get("repro_campaign_store_hits_total").total() == 6
        assert agg.metrics.get("repro_campaign_store_misses_total").total() == 6

    def test_aggregator_registry_can_be_shared_with_runner(self):
        registry = MetricsRegistry()
        spec = small_spec(sizes_mb=(1.0,))
        agg = TelemetryAggregator(metrics=registry)
        CampaignRunner(spec, pool=PoolConfig(jobs=1), metrics=registry,
                       telemetry=agg).run()
        # runner counters and telemetry counters agree, not double-count
        cells = len(spec.expand())
        assert registry.get("repro_campaign_cells_executed_total").total() \
            == cells
        assert registry.get("repro_campaign_events_total").total() == 2 * cells
        assert registry.get("repro_campaign_store_misses_total").total() \
            == cells


class TestTelemetryIsObservational:
    def test_jobs4_with_telemetry_byte_identical_to_serial_without(self):
        spec = small_spec()
        plain = CampaignRunner(spec, pool=PoolConfig(jobs=1)).run()
        result, agg, events = stream_of(spec, jobs=4)
        assert export_records(result.records, spec) == \
            export_records(plain.records, spec)
        assert agg.snapshot().done == len(spec.expand())
        assert len(events) == 2 * len(spec.expand())

    def test_wall_s_is_telemetry_only_never_in_records(self):
        spec = small_spec(sizes_mb=(1.0,))
        result, agg, events = stream_of(spec, jobs=1)
        payload = export_records(result.records, spec)
        assert "wall_s" not in payload
        assert agg.snapshot().wall_s_total > 0


class TestCliProgress:
    ARGS = ["--clients", "ubc", "--providers", "gdrive", "--routes",
            "direct;via umich", "--sizes-mb", "1", "--fast"]

    def test_campaign_run_progress_streams_to_stderr(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["campaign", "run", *self.ARGS,
                         "--cache-dir", str(tmp_path / "cells"),
                         "--jobs", "2", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "executed 2" in captured.out  # stdout stays the summary
        assert "started" in captured.err
        assert "finished" in captured.err
        assert "campaign [" in captured.err  # final progress bar
        assert "2/2" in captured.err

    def test_campaign_status_watch_exits_when_complete(self, tmp_path,
                                                       capsys):
        from repro.cli import main as cli_main

        store = str(tmp_path / "cells")
        assert cli_main(["campaign", "run", *self.ARGS,
                         "--cache-dir", store]) == 0
        capsys.readouterr()
        assert cli_main(["campaign", "status", *self.ARGS,
                         "--cache-dir", store, "--watch",
                         "--interval-s", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "campaign [" in out and "2/2" in out


class TestEventKindsCatalogue:
    def test_every_kind_is_constructible_and_rendered(self):
        for kind in EVENT_KINDS:
            line = render_event(TelemetryEvent(kind, "c", 0))
            # the label is the kind minus its family prefix, whole
            assert line.split()[0] == kind.split("_", 1)[1]
            assert not line.startswith("_")

    def test_shard_kinds_render_their_count_not_queue_state(self):
        shard_kinds = [k for k in EVENT_KINDS if k.startswith("shard_")]
        assert shard_kinds
        for kind in shard_kinds:
            line = render_event(TelemetryEvent(kind, "plan", 0, status="ok",
                                               count=7))
            assert " 7 " in line
            assert "queued" not in line and "running" not in line
