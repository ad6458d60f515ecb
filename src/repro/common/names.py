"""Names of the design space, as plain tuples.

Parsing CLI flags and describing points need only these names; keeping
them apart from the components they select lets that code run without
importing the simulator.  :mod:`repro.sim.scenarios` builds the schemes,
and :data:`repro.prefetchers.l1d.L1D_PREFETCHERS` maps the prefetcher
names to their classes.
"""

from __future__ import annotations

#: All recognised scheme names (see :mod:`repro.sim.scenarios`).
SCHEMES = (
    "baseline",
    "ppf",
    "hermes",
    "hermes_ppf",
    "tlp",
    "flp",
    "slp",
    "tsp",
    "delayed_tsp",
    "selective_tsp",
    "hermes_7kb",
    "prefetcher_7kb",
)

#: The L1D prefetchers by name ("none" runs without one).
L1D_PREFETCHER_NAMES = ("ipcp", "berti")
