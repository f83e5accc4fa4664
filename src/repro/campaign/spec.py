"""Declarative campaign specifications.

A :class:`CampaignSpec` is the (clients x providers x routes x sizes x
seeds) matrix behind every table and figure of the paper.  ``expand()``
flattens it — in a fixed, documented order — into :class:`CampaignCell`
records, each of which is one `(client, provider, route, size)` world
that the measurement harness knows how to run.

Two contracts make campaigns trustworthy:

* **bit-identity** — a cell's world seed is
  ``experiment_seed(cell.seed, cell.label)``, exactly what
  :class:`~repro.measure.harness.ExperimentRunner` derives for the same
  label, so a campaign cell reproduces a direct harness run bit for bit;
* **stable keys** — ``cell.key`` is a content hash of every field that
  can influence the measured numbers (and nothing else), so on-disk
  results can be reused across processes without ever aliasing two
  different experiments (see ``docs/CAMPAIGNS.md``).
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.identity import content_key
from repro.core.routes import DetourRoute, DirectRoute, Route
from repro.errors import CampaignError
from repro.measure.harness import ExperimentProtocol, experiment_seed
from repro.testbed.params import CaseStudyParams
from repro.testbed.scenarios import (
    CLIENTS,
    PAPER_SIZES_MB,
    PROVIDERS,
    experiment_label,
    paper_route_set,
)
from repro.transfer.dtn import RelayMode

__all__ = ["CampaignCell", "CampaignSpec", "route_from_string"]

#: Version stamped into every cell identity; bump when a change to the
#: execution path invalidates previously stored results.
CELL_KEY_VERSION = 1

_ROUTE_RE = re.compile(r"via (\S+)(?: \(([a-z_]+)\))?")


def route_from_string(text: str) -> Route:
    """Parse a canonical route descriptor back into a :class:`Route`.

    The inverse of ``Route.describe()``: ``"direct"``,
    ``"via ualberta"``, ``"via umich (pipelined)"``.
    """
    text = text.strip()
    if text == "direct":
        return DirectRoute()
    m = _ROUTE_RE.fullmatch(text)
    if m is None:
        raise CampaignError(
            f"unparseable route {text!r}; expected 'direct', 'via <site>', "
            f"or 'via <site> (<mode>)'"
        )
    site, mode = m.group(1), m.group(2)
    if mode is None:
        return DetourRoute(site)
    try:
        return DetourRoute(site, RelayMode(mode))
    except ValueError:
        raise CampaignError(
            f"unknown relay mode {mode!r} in route {text!r}; "
            f"have: {sorted(m.value for m in RelayMode)}"
        ) from None


@dataclass(frozen=True)
class CampaignCell:
    """One `(client, provider, route, size)` experiment at one seed.

    ``route`` is the canonical ``describe()`` string, not a route
    object, so cells stay trivially hashable, picklable, and JSON-able;
    :func:`route_from_string` rebuilds the object at execution time.
    """

    client: str
    provider: str
    route: str
    size_mb: float
    seed: int = 0
    protocol: ExperimentProtocol = field(default_factory=ExperimentProtocol)
    cross_traffic: bool = True
    params: Optional[CaseStudyParams] = None

    @property
    def label(self) -> str:
        """The harness experiment label (drives the derived world seed)."""
        return experiment_label(self.client, self.provider, self.route, self.size_mb)

    @property
    def world_seed(self) -> int:
        """Seed of the world this cell builds — the bit-identity contract."""
        return experiment_seed(self.seed, self.label)

    def identity(self) -> Dict[str, object]:
        """Canonical dict of every result-shaping field (drives ``key``)."""
        return {
            "version": CELL_KEY_VERSION,
            "client": self.client,
            "provider": self.provider,
            "route": self.route,
            "size_mb": float(self.size_mb),
            "seed": int(self.seed),
            "protocol": [self.protocol.total_runs, self.protocol.discard_runs,
                         self.protocol.inter_run_gap_s],
            "cross_traffic": bool(self.cross_traffic),
            "params": None if self.params is None else asdict(self.params),
        }

    @property
    def key(self) -> str:
        """Content-addressed store key: a stable hash of :meth:`identity`."""
        return content_key(self.identity(), 24)

    @classmethod
    def from_identity(cls, ident: Dict[str, object]) -> "CampaignCell":
        """Rebuild a cell from a stored :meth:`identity` dict."""
        version = ident.get("version")
        if version != CELL_KEY_VERSION:
            raise CampaignError(
                f"cell identity version {version!r} is not the supported "
                f"{CELL_KEY_VERSION}"
            )
        total, discard, gap = ident["protocol"]
        params = ident["params"]
        return cls(
            client=ident["client"],
            provider=ident["provider"],
            route=ident["route"],
            size_mb=float(ident["size_mb"]),
            seed=int(ident["seed"]),
            protocol=ExperimentProtocol(int(total), int(discard), float(gap)),
            cross_traffic=bool(ident["cross_traffic"]),
            params=None if params is None else CaseStudyParams(**params),
        )

    def describe(self) -> str:
        return f"{self.label} seed={self.seed}"


@dataclass(frozen=True)
class CampaignSpec:
    """The declarative experiment matrix.

    ``routes=None`` means the paper's route set for each client (direct
    plus both detours, minus the self-detour); an explicit tuple of
    canonical route strings applies to every client, with self-detours
    skipped per client.  Expansion order is fixed:
    ``seed > client > provider > route > size`` — campaigns return
    results in this order no matter how cells were scheduled.
    """

    clients: Tuple[str, ...] = tuple(CLIENTS)
    providers: Tuple[str, ...] = tuple(PROVIDERS)
    routes: Optional[Tuple[str, ...]] = None
    sizes_mb: Tuple[float, ...] = tuple(PAPER_SIZES_MB)
    seeds: Tuple[int, ...] = (0,)
    protocol: ExperimentProtocol = field(default_factory=ExperimentProtocol)
    cross_traffic: bool = True
    params: Optional[CaseStudyParams] = None

    def __post_init__(self) -> None:
        for name in ("clients", "providers", "sizes_mb", "seeds"):
            if not getattr(self, name):
                raise CampaignError(f"campaign spec has an empty {name} axis")
        if self.routes is not None:
            for r in self.routes:
                route_from_string(r)  # fail fast on unparseable descriptors

    def routes_for(self, client: str) -> Tuple[str, ...]:
        """Canonical route descriptors for one client (self-detours dropped)."""
        if self.routes is None:
            return tuple(r.describe() for r in paper_route_set(client))
        return tuple(r for r in self.routes
                     if route_from_string(r).via != client)

    def expand(self) -> List[CampaignCell]:
        """Every cell of the matrix, in the documented deterministic order."""
        cells: List[CampaignCell] = []
        for seed in self.seeds:
            for client in self.clients:
                for provider in self.providers:
                    for route in self.routes_for(client):
                        for size in self.sizes_mb:
                            cells.append(CampaignCell(
                                client=client, provider=provider, route=route,
                                size_mb=size, seed=seed, protocol=self.protocol,
                                cross_traffic=self.cross_traffic,
                                params=self.params,
                            ))
        if not cells:
            raise CampaignError("campaign spec expands to zero cells "
                                "(every route was a self-detour?)")
        return cells

    def describe(self) -> str:
        n = len(self.expand())
        return (f"{len(self.clients)} client(s) x {len(self.providers)} "
                f"provider(s) x {len(self.sizes_mb)} size(s) x "
                f"{len(self.seeds)} seed(s) = {n} cells")
