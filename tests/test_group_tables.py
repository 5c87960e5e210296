"""Tables of the non-abelian families, each built as a cyclic extension
N<y>, against the frozen whole-table formulas in ``perfbench/reference/``,
and the memory a build takes beside its table."""

import tracemalloc

import pytest

from grouptotient import construct
from naive_oracles import reference_groups

EDGE_SPECS = ["dihedral:2", "quaternion:8", "semidihedral:16", "modular:2,4", "heisenberg:3", "sdp:3,2,2"]
LARGE_SPECS = [
    "dihedral:1000",
    "quaternion:2048",
    "modular:3,6",
    "heisenberg:11",
    "sdp:1001,2,1000",
    "sdp:91,3,9",
]


@pytest.mark.parametrize("spec", EDGE_SPECS + LARGE_SPECS)
def test_tables_are_byte_identical_to_the_frozen_formulas(spec):
    table = construct(spec).table
    expected = reference_groups.construct(spec).table
    assert (table.dtype, table.shape) == (expected.dtype, expected.shape)
    assert table.tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", ["dihedral:1000", "quaternion:2048", "sdp:1001,2,1000", "heisenberg:11"])
def test_construct_peaks_near_its_table(spec):
    # tables of 3.4-8 MiB; whole-table int64 formulas peak at 71-105 MiB on these
    tracemalloc.start()
    try:
        G = construct(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20, (peak, G.table.nbytes)
