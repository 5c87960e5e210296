"""Host-speed calibration: a fixed piece of work timed around each repetition.

The benchmark runs on a shared host whose speed drifts by tens of
percent over tens of seconds.  rep.py times the calibration just before
and just after the workload's timed part, in the same process; the mean
of the two is the repetition's ``calib_s``.  run.py scales each wall time
to the reference host speed:

    wall_norm_s = wall_s * REFERENCE_S / calib_s

The calibration enumerates the subgroup lattices of a few small groups
with ``reference/``, a frozen copy of the package's group and lattice
modules.  It slows with the host exactly as the package's own
enumeration does, which no synthetic loop did: a pure-Python loop with
numpy gathers cancelled less than half of the drift.  The copy never
changes, so a change to ``src/`` moves ``wall_norm_s`` as it moves
``wall_s`` at a fixed host speed.
"""

from __future__ import annotations

import gc
import time

from reference.groups import construct
from reference.lattice import all_subgroups

# median calibration time on the reference host (2-vCPU Intel Xeon VM, KVM)
REFERENCE_S = 0.17

# two abelian 2-groups (index-2 and product shortcuts) and four non-abelian
# tables (the join path); 4,228 subgroups in all
SPECS = (
    "abelian:2,2,2,2,2,2",
    "abelian:4,2,2,2,2",
    "sdp:31,5,2",
    "dihedral:60",
    "dihedral:120",
    "product:(dihedral:15)x(cyclic:4)",
)


def measure() -> float:
    """Seconds the calibration takes now, on this host.

    The collector is off, so that the time does not depend on how many
    objects the workload has left alive.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        for spec in SPECS:
            all_subgroups(construct(spec))
        return time.perf_counter() - start
    finally:
        gc.enable()
