"""One per-upload oracle fold ≡ the three scorers it replaced.

``score_fleet``, ``score_sweep`` and ``FleetAggregator`` each used to
carry their own copy of the per-upload oracle comparison; they now all
fold through :class:`~repro.broker.fleet.OracleFold`.  The reference
below is the three copies as they were, frozen here (module-level
functions and a plain class that subclass and call nothing in
``repro``), so the comparison does not test the fold against itself.
Every output float is compared with ``==``: each caller must keep its
summation order, not just its means to rounding.

The only liberty taken with the frozen code: the sweep scorer's
``sum()`` is spelled as the left-to-right addition it performed on the
interpreters it was written for.  CPython 3.12 compensates float
``sum()``, which the fold, like the other two scorers, never did.

The rest of the file pins what rides along with the fold: stored
duration counts are checked before a sweep is scored, and a shard's
site unit is a ``run_fleet`` call whose result carries the directory
counters and snapshot its report needs.
"""

from __future__ import annotations

import dataclasses
from itertools import zip_longest
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker import BrokerSweepSpec, run_fleet, score_fleet, score_sweep
from repro.broker.fleet import FleetUploadRecord
from repro.campaign import CampaignRunner, ResultStore
from repro.cli import main
from repro.errors import BrokerError
from repro.shard import FleetAggregator, ShardCell

pytestmark = pytest.mark.broker


# -- frozen reference -------------------------------------------------------

def _sum(values):
    """``sum()`` as CPython 3.10/3.11 adds floats: left to right from 0."""
    total = 0
    for v in values:
        total = total + v
    return total


def frozen_score_fleet(results):
    """The old ``score_fleet``: (n, oracle mean, by_mode, by_site)."""
    modes = sorted(results)
    streams = [iter(getattr(results[m], "records", results[m]))
               for m in modes]
    n = 0
    oracle_sum = 0.0
    mode_acc = {m: [0.0, 0.0] for m in modes}
    site_acc = {}
    for row in zip_longest(*streams, fillvalue=None):
        if any(rec is None for rec in row):
            raise ValueError("fleet results disagree on upload count")
        oracle = min(rec.duration_s for rec in row)
        oracle_sum += oracle
        n += 1
        for mode, rec in zip(modes, row):
            acc = mode_acc[mode]
            acc[0] += rec.duration_s
            acc[1] += rec.duration_s - oracle
            cell = site_acc.setdefault((mode, rec.client_site),
                                       [0.0, 0.0, 0.0])
            cell[0] += rec.duration_s
            cell[1] += rec.duration_s - oracle
            cell[2] += 1.0
    by_mode = {m: (mode_acc[m][0] / n, mode_acc[m][1] / n) for m in modes}
    by_site = {key: (site_acc[key][0] / site_acc[key][2],
                     site_acc[key][1] / site_acc[key][2])
               for key in sorted(site_acc)}
    return n, oracle_sum / n, by_mode, by_site


def frozen_score_sweep(spec, records):
    """The old ``score_sweep``: (n, seeds, by_mode)."""
    by_cell = {}
    for rec in records:
        if rec.ok:
            by_cell[rec.cell.key] = rec.measurement
    durations = {}
    for cell in spec.expand():
        m = by_cell.get(cell.key)
        durations.setdefault(cell.seed, {})[cell.mode] = m.all_durations_s
    n = spec.n_uploads_per_site * len(spec.sites)
    totals = {m: [0.0, 0.0] for m in spec.modes}
    for seed in spec.seeds:
        per_mode = durations[seed]
        oracle = [min(per_mode[m][i] for m in spec.modes) for i in range(n)]
        for mode in spec.modes:
            mean_s = _sum(per_mode[mode]) / n
            regret_s = _sum(d - o for d, o in zip(per_mode[mode], oracle)) / n
            totals[mode][0] += mean_s
            totals[mode][1] += regret_s
    n_seeds = len(spec.seeds)
    return n, tuple(spec.seeds), {
        m: (totals[m][0] / n_seeds, totals[m][1] / n_seeds)
        for m in spec.modes}


class FrozenAggregator:
    """The old ``FleetAggregator.fold_site`` and ``score``."""

    def __init__(self, modes):
        self.modes = tuple(modes)
        self._cells = {}
        self._oracle = {}
        self._records = 0

    def fold_site(self, site, durations):
        streams = [iter(durations[m]) for m in self.modes]
        cells = [self._cells.setdefault((m, site), [0.0, 0.0, 0.0])
                 for m in self.modes]
        oracle_cell = self._oracle.setdefault(site, [0.0, 0.0])
        n = 0
        for row in zip_longest(*streams, fillvalue=None):
            oracle = min(row)
            oracle_cell[0] += oracle
            oracle_cell[1] += 1.0
            n += 1
            for cell, duration in zip(cells, row):
                cell[0] += duration
                cell[1] += duration - oracle
                cell[2] += 1.0
        self._records += n * len(self.modes)
        return n

    def score(self, sites):
        """(n, oracle mean, by_mode, by_site)."""
        oracle_sum = 0.0
        n = 0
        mode_sums = {m: [0.0, 0.0] for m in self.modes}
        by_site = {}
        for site in sites:
            o_sum, o_n = self._oracle[site]
            oracle_sum += o_sum
            n += int(o_n)
            for mode in self.modes:
                dur_sum, regret_sum, cell_n = self._cells[(mode, site)]
                mode_sums[mode][0] += dur_sum
                mode_sums[mode][1] += regret_sum
                by_site[(mode, site)] = (dur_sum / cell_n,
                                         regret_sum / cell_n)
        by_mode = {m: (mode_sums[m][0] / n, mode_sums[m][1] / n)
                   for m in sorted(self.modes)}
        return (n, oracle_sum / n, by_mode,
                {k: by_site[k] for k in sorted(by_site)})


# -- the property -----------------------------------------------------------

#: few distinct values make per-upload ties (and zero regret) common
_DURATION = st.one_of(
    st.sampled_from([1.0, 2.0, 2.5, 40.125]),
    st.floats(0.001, 1e5, allow_nan=False, allow_infinity=False))

_FLEET_MODES = ("direct", "broker", "static:via umich", "static:via ualberta")
_SITES = ("ubc", "purdue", "ucla", "umich")


def _as_tuple(score):
    return score.n_uploads, score.oracle_mean_s, score.by_mode, score.by_site


def _record(i, site, duration):
    return FleetUploadRecord(index=i, client_site=site, provider_name="gdrive",
                             size_bytes=1000, start_s=float(i),
                             route_descr="direct", source="direct",
                             spilled=False, staleness_s=0.0,
                             duration_s=duration)


@st.composite
def _fleets(draw):
    """One schedule (a site per upload) and each mode's durations on it."""
    modes = draw(st.lists(st.sampled_from(_FLEET_MODES), min_size=1,
                          max_size=4, unique=True))
    schedule = draw(st.lists(st.sampled_from(_SITES), min_size=1,
                             max_size=24))
    return {m: [_record(i, site, draw(_DURATION))
                for i, site in enumerate(schedule)]
            for m in modes}


@settings(max_examples=200, deadline=None)
@given(fleet=_fleets(), one_shot=st.booleans())
def test_score_fleet_matches_frozen(fleet, one_shot):
    expected = frozen_score_fleet(fleet)
    given_records = ({m: iter(recs) for m, recs in fleet.items()}
                     if one_shot else fleet)
    assert _as_tuple(score_fleet(given_records)) == expected


@st.composite
def _per_site(draw):
    """Modes, each site's per-mode duration streams, and a fold order."""
    modes = draw(st.lists(st.sampled_from(_FLEET_MODES), min_size=1,
                          max_size=4, unique=True))
    sites = draw(st.lists(st.sampled_from(_SITES), min_size=1, max_size=4,
                          unique=True))
    streams = {}
    for site in sites:
        n = draw(st.integers(1, 8))
        streams[site] = {m: [draw(_DURATION) for _ in range(n)]
                         for m in modes}
    order = draw(st.permutations(sites))
    return modes, sites, streams, order


@settings(max_examples=200, deadline=None)
@given(case=_per_site())
def test_aggregator_matches_frozen(case):
    modes, sites, streams, order = case
    frozen, live = FrozenAggregator(modes), FleetAggregator(modes)
    for site in order:
        assert live.fold_site(site, {m: iter(streams[site][m])
                                     for m in modes}) == \
            frozen.fold_site(site, streams[site])
    assert live.records_folded == frozen._records
    assert live.state_cells == len(frozen._cells) + len(frozen._oracle)
    assert _as_tuple(live.score(sites)) == frozen.score(sites)


@st.composite
def _sweeps(draw):
    """A sweep spec (modes may repeat) and a stored record per cell."""
    spec = BrokerSweepSpec(
        sites=tuple(draw(st.lists(st.sampled_from(_SITES), min_size=1,
                                  max_size=3, unique=True))),
        modes=tuple(draw(st.lists(st.sampled_from(_FLEET_MODES),
                                  min_size=1, max_size=4))),
        n_uploads_per_site=draw(st.integers(1, 5)),
        seeds=tuple(draw(st.lists(st.integers(0, 9), min_size=1, max_size=3,
                                  unique=True))))
    n = spec.n_uploads_per_site * len(spec.sites)
    records = [SimpleNamespace(ok=True, cell=cell, measurement=SimpleNamespace(
        all_durations_s=tuple(draw(_DURATION) for _ in range(n))))
        for cell in spec.expand()]
    return spec, records


@settings(max_examples=200, deadline=None)
@given(sweep=_sweeps())
def test_score_sweep_matches_frozen(sweep):
    spec, records = sweep
    summary = score_sweep(spec, records)
    assert (summary.n_uploads, summary.seeds, summary.by_mode) == \
        frozen_score_sweep(spec, records)


# -- stored duration counts -------------------------------------------------

SPEC = BrokerSweepSpec(sites=("ubc",), modes=("direct", "broker"),
                       n_uploads_per_site=3, mean_interarrival_s=60.0,
                       mean_size_mb=20.0, seeds=(0,), cross_traffic=False)

FLEET_ARGS = ["--sites", "ubc", "--uploads-per-site", "3", "--size-mb", "20",
              "--no-cross-traffic", "--modes", "direct;broker"]


def _rewrite_durations(store, cell, keep):
    """Rewrite *cell*'s stored durations through *keep*."""
    rec = store.get(cell)
    durations = keep(rec.measurement.all_durations_s)
    store.put(dataclasses.replace(rec, measurement=dataclasses.replace(
        rec.measurement, all_durations_s=durations)))


class TestSweepDurationCounts:
    @pytest.mark.parametrize("keep,got", [
        (lambda d: d[:-1], 2),           # cut short: used to raise IndexError
        (lambda d: d + (1.0,), 4),       # padded: used to score silently
    ], ids=["short", "long"])
    def test_stored_count_must_match_the_workload(self, tmp_path, keep, got):
        store = ResultStore(tmp_path / "cells")
        CampaignRunner(SPEC, store).run()
        broker = [c for c in SPEC.expand() if c.mode == "broker"][0]
        _rewrite_durations(store, broker, keep)
        with pytest.raises(BrokerError) as exc:
            score_sweep(SPEC, store.records())
        assert str(exc.value) == (
            f"stored cell {broker.describe()!r} has {got} durations, "
            f"expected 3 (1 sites x 3)")

    def test_cli_eval_reports_it_as_one_error_line(self, tmp_path, capsys):
        store = tmp_path / "cells"
        assert main(["broker", "eval", *FLEET_ARGS,
                     "--cache-dir", str(store)]) == 0
        capsys.readouterr()
        broker = [c for c in SPEC.expand() if c.mode == "broker"][0]
        _rewrite_durations(ResultStore(store), broker, lambda d: d[:1])
        assert main(["broker", "eval", *FLEET_ARGS,
                     "--cache-dir", str(store)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("repro: error: stored cell ")
        assert "has 1 durations, expected 3" in err


# -- the shard site unit is run_fleet -----------------------------------------

FLEET_KW = dict(provider="gdrive", n_uploads_per_site=3,
                mean_interarrival_s=60.0, mean_size_mb=20.0,
                cross_traffic=False)


class TestSiteUnitIsRunFleet:
    def test_unknown_shard_site_raises_run_fleets_error(self):
        cell = ShardCell(sites=("atlantis",), mode="direct", **FLEET_KW)
        with pytest.raises(BrokerError,
                           match=r"^fleet sites not in the world's host map: "
                                 r"\['atlantis'\]"):
            cell.run_measurement()

    def test_result_carries_directory_counters_but_not_in_to_dict(self):
        cold = run_fleet(4, ("ubc",), mode="broker", **FLEET_KW)
        assert cold.snapshot is not None and len(cold.snapshot) > 0
        assert cold.directory_warm_hits == 0
        warm = run_fleet(4, ("ubc",), mode="broker", warm=cold.snapshot,
                         **FLEET_KW)
        assert warm.directory_warm_hits > 0
        direct = run_fleet(4, ("ubc",), mode="direct", **FLEET_KW)
        assert direct.snapshot is None
        assert (direct.directory_warm_hits, direct.invalidations) == (0, 0)
        for result in (cold, warm, direct):
            doc = result.to_dict()
            assert not {"directory_warm_hits", "invalidations",
                        "snapshot"} & set(doc)
