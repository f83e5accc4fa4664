"""Shipped rule families — importing this package registers every rule.

* :mod:`repro.lint.rules.determinism` — SL1xx, seeded-randomness discipline
* :mod:`repro.lint.rules.units` — SL2xx, unit-constant discipline
* :mod:`repro.lint.rules.kernel` — SL3xx, kernel-safety
* :mod:`repro.lint.rules.observability` — SL4xx, metric naming and span pairing
* :mod:`repro.lint.rules.parallel` — SL5xx, parallelism containment
* :mod:`repro.lint.rules.taint` — SL6xx, transitive-determinism taint
  (whole-program, over the project call graph)
* :mod:`repro.lint.rules.layering` — SL9xx, architecture layering
  (whole-program, over the project call graph)
* :mod:`repro.lint.rules.conc` — SL10xx, cross-process concurrency
  safety (whole-program, over the project call graph)
"""

from repro.lint.rules import (  # noqa: F401
    conc,
    determinism,
    kernel,
    layering,
    observability,
    parallel,
    taint,
    units,
)
