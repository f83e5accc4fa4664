"""Content-addressed on-disk result store — what makes campaigns resumable.

Layout: one JSON document per cell under the store root, named by the
cell's content hash (``<key>.json``).  Writes are atomic (temp file +
``os.replace``), so a campaign killed mid-write never leaves a torn
record; a re-run simply recomputes the one missing cell.

A record stores the cell's full :meth:`~repro.campaign.spec.CampaignCell.identity`
next to the result, and ``get`` verifies it against the requesting cell,
so a truncated-hash collision (or a hand-edited file) surfaces as a
:class:`~repro.errors.CampaignError` instead of silently returning the
wrong experiment.

Measurements are persisted as their raw per-run durations; the kept-run
summary is *recomputed* on load.  JSON round-trips floats exactly, so a
loaded measurement is bit-identical to the freshly computed one (the
per-run payload objects are not persisted — ``Measurement.results`` is
empty on load).
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.campaign.spec import CampaignCell
from repro.core.atomic import atomic_write_json, read_json_object
from repro.errors import CampaignError
from repro.measure.harness import Measurement
from repro.measure.stats import summarize

__all__ = ["CellError", "CellRecord", "ResultStore", "register_cell_type",
           "measurement_to_dict", "measurement_from_dict"]

STORE_FORMAT_VERSION = 1

#: ``CellError.kind`` values the pool itself produces (as opposed to the
#: class name of a model exception).
TIMEOUT_KIND = "timeout"
CRASH_KIND = "worker-crash"

#: Registered cell types: the ``cell_type`` field of a stored identity
#: names the class that rebuilds it.  Identities *without* the field are
#: the original paper cells, so pre-registry stores keep loading.
_CELL_TYPES: Dict[str, type] = {}

#: Lazily imported providers of non-default cell types (importing the
#: module runs its ``register_cell_type`` call).
_CELL_TYPE_MODULES: Dict[str, str] = {
    "broker-fleet": "repro.broker.campaign",
    "shard-fleet": "repro.shard.plan",
}


def register_cell_type(name: str, cls: type) -> None:
    """Make stored identities with ``cell_type == name`` loadable as *cls*.

    *cls* must provide the cell protocol the engine duck-types:
    ``identity()`` / ``key`` / ``label`` / ``describe()`` / ``protocol``,
    a ``from_identity`` classmethod, and either the paper-cell fields
    (run through :func:`~repro.campaign.worker.run_cell`) or a
    ``run_measurement(metrics=...)`` method.
    """
    _CELL_TYPES[name] = cls


register_cell_type("paper", CampaignCell)


def _cell_from_identity(ident: Dict[str, object]):
    name = str(ident.get("cell_type", "paper"))
    cls = _CELL_TYPES.get(name)
    if cls is None and name in _CELL_TYPE_MODULES:
        importlib.import_module(_CELL_TYPE_MODULES[name])
        cls = _CELL_TYPES.get(name)
    if cls is None:
        raise CampaignError(
            f"unknown campaign cell type {name!r}; registered: "
            f"{sorted(_CELL_TYPES)}")
    return cls.from_identity(ident)


@dataclass(frozen=True)
class CellError:
    """Why a quarantined cell failed (an error record, not an exception)."""

    kind: str  # exception class name, or "timeout" / "worker-crash"
    message: str

    def describe(self) -> str:
        return f"{self.kind}: {self.message}" if self.message else self.kind


@dataclass(frozen=True)
class CellRecord:
    """One stored campaign outcome: a measurement or a quarantined error."""

    cell: CampaignCell
    status: str  # "ok" | "error"
    measurement: Optional[Measurement] = None
    error: Optional[CellError] = None
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.status == "ok" and self.measurement is None:
            raise CampaignError("ok record must carry a measurement")
        if self.status == "error" and self.error is None:
            raise CampaignError("error record must carry an error")
        if self.status not in ("ok", "error"):
            raise CampaignError(f"unknown record status {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def measurement_to_dict(m: Measurement, discard_runs: int) -> Dict[str, object]:
    """Losslessly serializable view of a measurement (payloads dropped)."""
    return {
        "label": m.label,
        "all_durations_s": list(m.all_durations_s),
        "discard_runs": discard_runs,
    }


def measurement_from_dict(d: Dict[str, object]) -> Measurement:
    """Rebuild a measurement; the kept summary is recomputed bit-exactly."""
    durations = tuple(float(x) for x in d["all_durations_s"])
    discard = int(d["discard_runs"])
    return Measurement(
        label=d["label"],
        all_durations_s=durations,
        kept=summarize(list(durations[discard:])),
        results=(),
    )


def record_to_dict(rec: CellRecord) -> Dict[str, object]:
    """The on-disk (and export) JSON shape of one record."""
    return {
        "version": STORE_FORMAT_VERSION,
        "key": rec.cell.key,
        "identity": rec.cell.identity(),
        "status": rec.status,
        "attempts": rec.attempts,
        "measurement": (None if rec.measurement is None else
                        measurement_to_dict(rec.measurement,
                                            rec.cell.protocol.discard_runs)),
        "error": (None if rec.error is None else
                  {"kind": rec.error.kind, "message": rec.error.message}),
    }


def record_from_dict(d: Dict[str, object]) -> CellRecord:
    """Inverse of :func:`record_to_dict`."""
    version = d.get("version")
    if version != STORE_FORMAT_VERSION:
        raise CampaignError(f"unsupported store record version {version!r}")
    cell = _cell_from_identity(d["identity"])
    measurement = d.get("measurement")
    error = d.get("error")
    return CellRecord(
        cell=cell,
        status=d["status"],
        measurement=None if measurement is None else measurement_from_dict(measurement),
        error=None if error is None else CellError(error["kind"], error["message"]),
        attempts=int(d.get("attempts", 1)),
    )


class ResultStore:
    """Directory of per-cell JSON records, keyed by content hash."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    def path_for(self, cell: CampaignCell) -> Path:
        return self.root / f"{cell.key}.json"

    @staticmethod
    def _read(path: Path) -> Optional[CellRecord]:
        try:
            payload = read_json_object(path)
            return None if payload is None else record_from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise CampaignError(f"corrupt store record {path}: {exc}") from exc

    def get(self, cell: CampaignCell) -> Optional[CellRecord]:
        """The stored record for *cell*, or None if not yet computed."""
        path = self.path_for(cell)
        rec = self._read(path)
        if rec is None:
            return None
        if rec.cell.identity() != cell.identity():
            raise CampaignError(
                f"store record {path} does not match the requesting cell "
                f"(key collision or edited file): stored "
                f"{rec.cell.describe()!r}, requested {cell.describe()!r}"
            )
        return rec

    def put(self, rec: CellRecord) -> Path:
        """Atomically persist one record; returns its path."""
        return atomic_write_json(self.path_for(rec.cell), record_to_dict(rec),
                                 sort_keys=True, indent=1, mkdir=True)

    def discard(self, cell: CampaignCell) -> bool:
        """Drop one cell's record (e.g. to force recomputation)."""
        path = self.path_for(cell)
        if path.is_file():
            path.unlink()
            return True
        return False

    def __contains__(self, cell: CampaignCell) -> bool:
        return self.path_for(cell).is_file()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def records(self) -> List[CellRecord]:
        """Every stored record, in deterministic cell-identity order."""
        records = (self._read(p) for p in sorted(self.root.glob("*.json")))
        return sorted((r for r in records if r is not None), key=_record_order)


def _record_order(rec: CellRecord):
    """Deterministic listing order; stable for stores mixing cell types."""
    cell = rec.cell
    if isinstance(cell, CampaignCell):
        return (0, cell.seed, cell.client, cell.provider, cell.route,
                cell.size_mb)
    return (1, json.dumps(cell.identity(), sort_keys=True))
