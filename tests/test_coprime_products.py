"""Lattices of coprime product specs, built from their factors' lattices,
against the sweep over the product's own table, byte for byte.

prop1 and cor2 read these lattices, so their suite checks hold by
construction; this differential test is where those corpora are still
checked against brute-force enumeration."""

import pytest

import grouptotient.lattice as lattice_mod
from grouptotient import Group, LatticeOverflowError, all_subgroups, construct, gauss_sum
from grouptotient.lattice import DEFAULT_MAX_SUBGROUPS, _sweep
from grouptotient.verify import COR2_CORPUS_DEFAULT, PROP1_PAIRS_DEFAULT
from naive_oracles import relabel

COPRIME_PRODUCTS = sorted(
    {f"product:({left})x({right})" for left, right in PROP1_PAIRS_DEFAULT}
    | {spec for spec in COR2_CORPUS_DEFAULT if spec.startswith("product:")}
) + [
    "product:(cyclic:4)x(cyclic:9)x(cyclic:5)",  # three factors
    "product:(product:(cyclic:2)x(cyclic:3))x(cyclic:5)",  # nested
    "product:(cyclic:255)x(cyclic:2)",  # uint8 factors, uint16 product
    "product:(cyclic:1)x(dihedral:5)",
    "product:(quaternion:8)x(cyclic:1)x(cyclic:3)",
    "product:(cyclic:1)x(cyclic:256)",  # |Q| = 256 does not fit the uint8 labels
    "product:(cyclic:1)x(dihedral:128)",
    "product:(cyclic:1)x(cyclic:1)",
]


def _swept_groups(monkeypatch):
    """The groups `_sweep` is called on from now on, in call order."""
    swept = []
    sweep = lattice_mod._sweep

    def recording(G, max_subgroups):
        swept.append(G)
        return sweep(G, max_subgroups)

    monkeypatch.setattr(lattice_mod, "_sweep", recording)
    return swept


@pytest.mark.parametrize("spec", COPRIME_PRODUCTS)
def test_coprime_product_lattice_equals_the_sweep(spec, monkeypatch):
    G = construct(spec)
    swept = _swept_groups(monkeypatch)
    built = all_subgroups(G)
    monkeypatch.undo()
    assert swept and all(H is not G and G.order % H.order == 0 for H in swept)
    expected = _sweep(G, DEFAULT_MAX_SUBGROUPS)
    assert built.group is G
    assert list(built.levels) == list(expected.levels)
    for k, level in expected.levels.items():
        assert built.levels[k].dtype == level.dtype, (spec, k)
        assert built.levels[k].shape == level.shape, (spec, k)
        assert built.levels[k].tobytes() == level.tobytes(), (spec, k)
    assert built.totients.dtype == expected.totients.dtype
    assert built.totients.tobytes() == expected.totients.tobytes()
    assert type(built.cyclic_sum) is int and built.cyclic_sum == expected.cyclic_sum == G.order


@pytest.mark.parametrize("spec", ["product:(dihedral:4)x(cyclic:2)", "product:(dihedral:15)x(cyclic:4)"])
def test_products_of_orders_with_a_common_factor_take_the_sweep(spec, monkeypatch):
    G = construct(spec)
    swept = _swept_groups(monkeypatch)
    all_subgroups(G)
    assert swept == [G]


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_a_product_spec_given_to_group_takes_the_sweep(seed, monkeypatch):
    """Only construct vouches for direct_product's labels: a caller's table
    under a product spec, as construct laid it out or relabelled, is swept."""
    built = construct("product:(dihedral:3)x(cyclic:5)")
    H = Group(built.table if seed is None else relabel(built.table, seed), spec=built.spec)
    swept = _swept_groups(monkeypatch)
    L = all_subgroups(H)
    assert swept == [H]
    monkeypatch.undo()
    expected = all_subgroups(built)
    assert len(L) == len(expected) and gauss_sum(L) == gauss_sum(expected)


def test_an_over_cap_product_is_refused_before_any_level_is_built(monkeypatch):
    """2^3 has 16 subgroups and Z9 has 3: each fits under a cap of 47, their
    product's 48 do not, and the refusal reads as the sweep's."""
    G = construct("product:(abelian:2,2,2)x(cyclic:9)")
    with pytest.raises(LatticeOverflowError) as swept:
        _sweep(G, 47)

    def no_level(*args):
        raise AssertionError("a product level was built")

    monkeypatch.setattr(lattice_mod, "_product_lattice", no_level)
    with pytest.raises(LatticeOverflowError) as built:
        all_subgroups(G, max_subgroups=47)
    assert str(built.value) == str(swept.value)
    assert (built.value.count, built.value.cap) == (swept.value.count, swept.value.cap) == (48, 47)
    monkeypatch.undo()
    assert len(all_subgroups(G, max_subgroups=48)) == 48
