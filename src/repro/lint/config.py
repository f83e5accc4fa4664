"""Linter configuration: which packages are "model code", whitelists."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Mapping, Tuple

__all__ = ["LintConfig", "DEFAULT_CONFIG", "DEFAULT_LAYERS",
           "DEFAULT_WORKER_ENTRYPOINTS"]

#: The architecture layer DAG, lowest layer first.  Packages in the same
#: inner tuple may import each other; a package may import any package
#: in a *lower* layer, never a higher one (SL901).  Packages absent from
#: the DAG are unconstrained.
DEFAULT_LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("units", "errors", "_version"),
    ("sim", "geo"),
    ("obs", "measure"),
    ("net",),
    ("cloud",),
    ("transfer",),
    ("workloads", "core"),
    ("topo",),
    ("overlay", "testbed"),
    ("campaign",),
    ("broker",),
    ("shard",),
    ("analysis",),
    ("lint",),
    ("cli",),
)

#: Cross-process worker entrypoints for the SL10xx concurrency-safety
#: rules: everything reachable from these runs inside a pool child or a
#: shard worker, where mutated module/class state silently diverges from
#: the serial run.  Entries are dotted paths relative to the scanned root
#: package (``campaign.worker.child_main`` matches
#: ``repro.campaign.worker.child_main``).
DEFAULT_WORKER_ENTRYPOINTS: Tuple[str, ...] = (
    "campaign.worker.child_main",
    "campaign.worker.run_cell_payload",
    "shard.plan.ShardCell.run_measurement",
)


@dataclass(frozen=True)
class LintConfig:
    """Knobs for a lint run.

    ``model_packages`` are the top-level sub-packages of ``repro`` whose
    code participates in simulation results — the determinism and unit
    rules apply there.  Kernel-safety rules (SL3xx) apply everywhere.

    ``rng_entrypoints`` are the few files allowed to call
    ``np.random.default_rng``: the seed→generator conversion points.
    Everywhere else a generator must be parameter-injected or come from
    ``RngRegistry.stream(...)``.
    """

    model_packages: FrozenSet[str] = frozenset(
        {"sim", "net", "core", "transfer", "overlay", "cloud", "broker",
         "topo", "shard"}
    )
    #: Files (relative to the scanned root) that may construct generators
    #: directly: the RngRegistry itself derives streams there.
    rng_entrypoints: FrozenSet[str] = frozenset({"sim/rng.py"})
    #: Files exempt from the magic-constant rules — the module that
    #: *defines* the unit constants obviously spells them out.
    units_definition_files: FrozenSet[str] = frozenset({"units.py"})
    #: The one file allowed to emit raw ``span_begin``/``span_end`` trace
    #: events: the SpanTracer implementation itself.  Everywhere else the
    #: paired-emission guarantee comes from the context manager.
    span_emitter_files: FrozenSet[str] = frozenset({"obs/spans.py"})
    #: The one observability file allowed to read a wall clock (SL403):
    #: the kernel profiler.  Every other obs module must stay sim-time
    #: pure so that instrumented runs remain deterministic.
    profiler_files: FrozenSet[str] = frozenset({"obs/profile.py"})
    #: The packages allowed to import ``multiprocessing`` /
    #: ``concurrent.futures`` (SL501): the campaign worker-pool engine.
    parallelism_packages: FrozenSet[str] = frozenset({"campaign"})
    #: Architecture layer DAG for SL901 (lowest layer first); empty
    #: disables the layering rules entirely.
    layers: Tuple[Tuple[str, ...], ...] = DEFAULT_LAYERS
    #: package -> the only packages allowed to import it (besides itself
    #: and tests, which are never scanned).  Enforced by SL901.
    restricted_imports: Mapping[str, FrozenSet[str]] = field(
        default_factory=lambda: {"lint": frozenset({"cli"})})
    #: Call-graph roots of the cross-process worker set for SL10xx.
    worker_entrypoints: Tuple[str, ...] = DEFAULT_WORKER_ENTRYPOINTS
    #: Files (relative to the scanned root) implementing the sanctioned
    #: atomic-rename write protocol — the only places SL1002 permits raw
    #: durable writes and hand-rolled ``os.replace`` publishing.
    atomic_write_files: FrozenSet[str] = frozenset({"core/atomic.py"})

    def layer_index(self) -> Mapping[str, int]:
        """package -> layer number (0 = lowest), from ``layers``."""
        index = {}
        for i, layer in enumerate(self.layers):
            for pkg in layer:
                index[pkg] = i
        return index

    def validate(self) -> List[str]:
        """Structural configuration errors (reported as SL001, exit 2).

        The checks are tree-independent: they validate the declaration's
        internal consistency, not its fit to any particular scan root.
        """
        errors: List[str] = []
        seen: set = set()
        for layer in self.layers:
            for pkg in layer:
                if pkg in seen:
                    errors.append(
                        f"layer DAG declares package {pkg!r} in more than "
                        f"one layer")
                seen.add(pkg)
        if self.layers:
            for target in sorted(self.restricted_imports):
                if target not in seen:
                    errors.append(
                        f"restricted_imports names unknown package "
                        f"{target!r} (not in the layer DAG)")
                for importer in sorted(self.restricted_imports[target]):
                    if importer not in seen:
                        errors.append(
                            f"restricted_imports allows unknown package "
                            f"{importer!r} to import {target!r} (not in "
                            f"the layer DAG)")
        for entry in self.worker_entrypoints:
            parts = entry.split(".")
            if len(parts) < 2 or not all(parts):
                errors.append(
                    f"worker entrypoint {entry!r} must be a dotted path "
                    f"(package.module.function)")
            elif self.layers and parts[0] not in seen:
                errors.append(
                    f"worker entrypoint {entry!r} names unknown package "
                    f"{parts[0]!r} (not in the layer DAG)")
        for rel in sorted(self.atomic_write_files):
            if not rel.endswith(".py") or rel.startswith("/") or "\\" in rel:
                errors.append(
                    f"atomic_write_files entry {rel!r} must be a relative "
                    f"posix path to a python file (e.g. 'core/atomic.py')")
        return errors


DEFAULT_CONFIG = LintConfig()
