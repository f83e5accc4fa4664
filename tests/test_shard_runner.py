"""Sharded fleet runs: byte-identical merges, SIGKILL resume, warm restarts."""

import os
import signal
import time

import pytest

from repro.campaign.store import ResultStore
from repro.errors import ShardError
from repro.obs.metrics import MetricsRegistry
from repro.shard import (
    ShardMergeResult,
    ShardPlan,
    ShardRunResult,
    merge_sharded,
    run_sharded,
    shard_status,
)
from repro.shard.runner import read_run_file

pytestmark = pytest.mark.shard

SITES = ("ubc", "purdue", "ucla", "umich")


def make_plan(**kw):
    defaults = dict(sites=SITES, n_uploads_per_site=2,
                    modes=("direct", "broker"), cross_traffic=False)
    defaults.update(kw)
    return ShardPlan(**defaults)


def site_samples(registry):
    """Every metric sample stamped with a site label, order-normalized."""
    return sorted((s.name, s.labels, s.value) for s in registry.collect()
                  if any(k == "site" for k, _v in s.labels))


class TestByteIdentity:
    def test_four_shards_merge_identically_to_one(self, tmp_path):
        """The headline contract: shards=4 across worker processes is
        byte-identical to shards=1 in-process."""
        one, four = make_plan(n_shards=1), make_plan(n_shards=4)
        m_one, m_four = MetricsRegistry(), MetricsRegistry()
        r_one = run_sharded(one, tmp_path / "one", jobs=1, metrics=m_one)
        r_four = run_sharded(four, tmp_path / "four", jobs=2, metrics=m_four)
        assert isinstance(r_one, ShardRunResult)
        assert isinstance(r_one.merge, ShardMergeResult)

        assert r_four.merge.score == r_one.merge.score
        assert r_four.merge.rollup == r_one.merge.rollup
        assert r_four.merge.merged_snapshot_hash == \
            r_one.merge.merged_snapshot_hash
        assert r_four.merge.records_folded == r_one.merge.records_folded

        # the published merged snapshots are byte-identical documents
        # (their *names* differ — n_shards is part of the plan key)
        path_one = (tmp_path / "one" / "directory" /
                    f"{one.merged_snapshot_name}.json")
        path_four = (tmp_path / "four" / "directory" /
                     f"{four.merged_snapshot_name}.json")
        assert path_one.read_bytes() == path_four.read_bytes()

        # every site-labeled metric series matches: each series comes
        # from exactly one site unit, so the partition cannot move it
        assert site_samples(m_four) == site_samples(m_one)
        assert site_samples(m_one)  # non-vacuous: the units did report

    def test_merge_is_reproducible_offline(self, tmp_path):
        plan = make_plan(sites=("ubc", "purdue"), n_shards=2)
        result = run_sharded(plan, tmp_path, jobs=1)
        again = merge_sharded(plan, tmp_path)
        assert again == result.merge


class TestResume:
    def test_kill_mid_run_then_resume(self, tmp_path):
        """SIGKILL a sharded run; resuming recomputes only the lost cells."""
        # cross-traffic makes each cell slow enough (~0.5 s) that the
        # kill lands mid-run instead of after the last cell
        plan = make_plan(n_shards=4, cross_traffic=True)
        n_cells = len(plan.expand())
        assert n_cells == 8

        pid = os.fork()  # simlint: ignore[SL502] -- the test *is* the killer
        if pid == 0:  # child: run the fleet serially until killed
            os.closerange(0, 3)
            run_sharded(plan, tmp_path, jobs=1)
            os._exit(0)

        try:  # parent: wait for some—not all—cells, then kill -9
            deadline = time.monotonic() + 300.0
            while time.monotonic() < deadline:
                if len(ResultStore(tmp_path / "cells")) >= 2:
                    break
                time.sleep(0.02)
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

        survived = len(ResultStore(tmp_path / "cells"))
        assert survived >= 2
        # the run file landed before execution, so status works post-crash
        assert read_run_file(tmp_path)["plan"] == plan.canonical_dict()

        result = run_sharded(plan, tmp_path, jobs=1)
        assert result.cached == survived
        assert result.executed == n_cells - survived
        assert result.merge.score.n_uploads == plan.n_uploads

        status = shard_status(plan, tmp_path)
        assert status["missing"] == 0
        assert status["reports_published"] == status["reports_expected"]
        assert status["merged_published"]


class TestMergeGuards:
    def test_merge_before_any_run_is_an_error(self, tmp_path):
        with pytest.raises(ShardError, match="not computed"):
            merge_sharded(make_plan(), tmp_path)

    def test_run_file_is_required_for_status_tools(self, tmp_path):
        with pytest.raises(ShardError, match="no shard run"):
            read_run_file(tmp_path)

    def test_partial_store_is_still_an_error(self, tmp_path):
        plan = make_plan(sites=("ubc", "purdue"), n_shards=2)
        run_sharded(plan, tmp_path, jobs=1)
        # a *different* partitioning finds none of its cells
        with pytest.raises(ShardError, match="not computed"):
            merge_sharded(make_plan(sites=("ubc", "purdue"), n_shards=1),
                          tmp_path)


class TestWarmGenerations:
    def test_second_generation_warms_from_the_merged_snapshot(self, tmp_path):
        plan = make_plan(sites=("ubc", "purdue"), n_shards=2)
        cold = run_sharded(plan, tmp_path, jobs=1)
        assert cold.warm_from is None and cold.warm_entries == 0
        assert cold.merge.merged_entries > 0

        telemetry = []
        warm = run_sharded(plan, tmp_path, jobs=1,
                           warm_from=plan.merged_snapshot_name,
                           telemetry=telemetry.append)
        # direct cells are warm-free, so the store answers them; only
        # the broker cells (new warm identity) execute
        cells = plan.expand()
        assert warm.cached == sum(1 for c in cells if c.mode == "direct")
        assert warm.executed == sum(1 for c in cells if c.mode == "broker")
        assert warm.warm_from == plan.merged_snapshot_name
        assert warm.warm_entries == cold.merge.merged_entries
        # the warmed directory serves lookups the cold run missed
        assert warm.merge.rollup["broker"]["warm_hits"] > 0
        assert warm.merge.rollup["broker"]["hit_rate"] > \
            cold.merge.rollup["broker"]["hit_rate"]
        # direct-mode numbers are untouched by warming
        assert warm.merge.score.by_site[("direct", "ubc")] == \
            cold.merge.score.by_site[("direct", "ubc")]
        shard_events = [e for e in telemetry if e.kind.startswith("shard")]
        assert [e.kind for e in shard_events] == \
            ["shard_warmed", "shard_published", "shard_merged"]
        # sizes ride in count; the pool's queue state is not theirs
        assert all(e.count > 0 and e.queue_depth == 0 for e in shard_events)

        run_file = read_run_file(tmp_path)
        assert run_file["warm_from"] == plan.merged_snapshot_name
        assert run_file["warm_hash"]

    def test_missing_warm_snapshot_is_an_error(self, tmp_path):
        plan = make_plan(sites=("ubc",))
        with pytest.raises(ShardError, match="not published"):
            run_sharded(plan, tmp_path, warm_from="merged-nonexistent")


class TestStatus:
    def test_status_tracks_the_run_lifecycle(self, tmp_path):
        plan = make_plan(sites=("ubc", "purdue"), n_shards=2)
        before = shard_status(plan, tmp_path)
        assert before["ok"] == 0
        assert before["missing"] == len(plan.expand())
        assert before["reports_published"] == 0
        assert not before["merged_published"]
        # the stable hash needn't balance: only coverage is guaranteed
        assert sum(s["sites"] for s in before["shards"]) == 2

        run_sharded(plan, tmp_path, jobs=1)
        after = shard_status(plan, tmp_path)
        assert after["ok"] == len(plan.expand())
        assert after["missing"] == 0
        assert after["reports_published"] == after["reports_expected"] == 4
        assert after["merged_published"]
