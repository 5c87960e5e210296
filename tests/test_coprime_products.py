"""Lattices of coprime direct products, built from their factors' lattices,
against the sweep over the product's own table, byte for byte.

prop1 and cor2 read these lattices, so their suite checks hold by
construction; this differential test is where those corpora are still
checked against brute-force enumeration."""

import pytest

import grouptotient.groups as groups_mod
import grouptotient.lattice as lattice_mod
from grouptotient import Group, LatticeOverflowError, all_subgroups, construct, direct_product, gauss_sum
from grouptotient.catalogue import read_permutation_generators
from grouptotient.lattice import DEFAULT_MAX_SUBGROUPS, _sweep
from grouptotient.verify import COR2_CORPUS_DEFAULT, PROP1_PAIRS_DEFAULT
from naive_oracles import relabel

COPRIME_PRODUCTS = sorted(
    {f"product:({left})x({right})" for left, right in PROP1_PAIRS_DEFAULT}
    | {spec for spec in COR2_CORPUS_DEFAULT if spec.startswith("product:")}
) + [
    "product:(cyclic:4)x(cyclic:9)x(cyclic:5)",  # three factors
    "product:(product:(cyclic:2)x(cyclic:3))x(cyclic:5)",  # nested
    "product:(product:(cyclic:2)x(cyclic:2))x(cyclic:3)",  # nested, the inner one swept
    "product:(cyclic:255)x(cyclic:2)",  # uint8 factors, uint16 product
    "product:(cyclic:1)x(dihedral:5)",
    "product:(quaternion:8)x(cyclic:1)x(cyclic:3)",
    "product:(cyclic:1)x(cyclic:256)",  # |Q| = 256 does not fit the uint8 labels
    "product:(cyclic:1)x(dihedral:128)",
]

# permutation generators, one line each, of groups read from .gens files
GENS = {
    "a5": (5, ["1 2 3 4 0", "1 2 0 3 4"]),
    "a6": (6, ["1 2 0 3 4 5", "0 2 3 4 5 1"]),
    "s3": (3, ["1 2 0", "1 0 2"]),
}

# direct products of factors with no spec, named as in `_group`
SPECLESS_COPRIME_PRODUCTS = [
    "a5 x cyclic:7",
    "cyclic:7 x a5",
    "a6 x cyclic:7",
    "cyclic:7 x a6",
    "relabelled dihedral:3 x cyclic:5",
]


def _group(name, tmp_path):
    """A group named by its spec, by a key of GENS (read from a .gens
    file), by "relabelled SPEC" (construct's table with its elements
    renamed, and no spec), or by such names joined by " x " (their
    direct_product)."""
    if " x " in name:
        return direct_product([_group(part, tmp_path) for part in name.split(" x ")])
    if name in GENS:
        degree, gens = GENS[name]
        path = tmp_path / f"{name}.gens"
        path.write_text(f"{degree}\n" + "\n".join(gens) + "\n")
        return read_permutation_generators(path)
    if name.startswith("relabelled "):
        return Group(relabel(construct(name.removeprefix("relabelled ")).table, 1))
    return construct(name)


def _factor_groups(G):
    """Every factor group reachable from G through the recorded factors."""
    for F in G._factors:
        yield F
        yield from _factor_groups(F)


def _swept_groups(monkeypatch):
    """The groups `_sweep` is called on from now on, in call order."""
    swept = []
    sweep = lattice_mod._sweep

    def recording(G, max_subgroups):
        swept.append(G)
        return sweep(G, max_subgroups)

    monkeypatch.setattr(lattice_mod, "_sweep", recording)
    return swept


def _no_construct(*args, **kwargs):
    raise AssertionError("a factor was built again")


@pytest.mark.parametrize("spec", COPRIME_PRODUCTS + SPECLESS_COPRIME_PRODUCTS)
def test_coprime_product_lattice_equals_the_sweep(spec, monkeypatch, tmp_path):
    """Folded from the very factor groups the product recorded, none of
    them trivial nor built again, and byte for byte the sweep over the
    product's own table."""
    G = _group(spec, tmp_path)
    factors = list(_factor_groups(G))
    assert all(F.order > 1 for F in factors)
    swept = _swept_groups(monkeypatch)
    monkeypatch.setattr(groups_mod, "construct", _no_construct)
    built = all_subgroups(G)
    monkeypatch.undo()
    assert swept and all(any(H is F for F in factors) for H in swept)
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


@pytest.mark.parametrize(
    "spec",
    [
        "product:(dihedral:4)x(cyclic:2)",
        "product:(dihedral:15)x(cyclic:4)",
        "s3 x cyclic:2",
        "product:(cyclic:1)x(cyclic:1)",  # no factor of order > 1 to fold
    ],
)
def test_products_of_orders_with_a_common_factor_take_the_sweep(spec, monkeypatch, tmp_path):
    G = _group(spec, tmp_path)
    assert G._factors == ()
    swept = _swept_groups(monkeypatch)
    all_subgroups(G)
    assert swept == [G]


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_a_product_spec_given_to_group_takes_the_sweep(seed, monkeypatch):
    """Only direct_product records factors, as it writes their labels: a
    caller's table under a product spec, as construct laid it out or
    relabelled, has none recorded and is swept."""
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
