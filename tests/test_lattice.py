"""Subgroup lattice enumeration against the pairwise-join fixed-point oracle."""

import numpy as np
import pytest

from grouptotient import (
    IndexOutOfRangeError,
    InvalidParameterError,
    LatticeOverflowError,
    NotNormalError,
    NotPrimePowerError,
    all_subgroups,
    complements,
    construct,
    cyclic_subgroups,
    divisors,
    euler_phi,
    frattini,
    generated_subgroup,
    is_nilpotent,
    is_normal,
    large_abelian_subgroup_witness,
    maximal_subgroups,
    read_permutation_generators,
    subgroup_is_cyclic,
    sylow_subgroups,
)
from grouptotient.cli import main
from naive_oracles import as_group, naive_all_subgroups, naive_cyclic_subgroups
from test_lattice_batching import _bits

ORACLE_SPECS = [
    "cyclic:12",
    "cyclic:16",
    "abelian:2,2",
    "abelian:2,4",
    "abelian:2,2,2",
    "abelian:3,3",
    "dihedral:3",
    "dihedral:4",
    "dihedral:6",
    "dihedral:9",
    "quaternion:8",
    "quaternion:16",
    "semidihedral:16",
    "modular:2,4",
    "modular:3,3",
    "heisenberg:3",
    "sdp:7,3,2",
    "product:(dihedral:3)x(cyclic:2)",
]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_all_subgroups_matches_pairwise_join_oracle(spec):
    G = construct(spec)
    L = all_subgroups(G)
    got = {frozenset(int(m) for m in H.members) for H in L.subgroups}
    assert got == naive_all_subgroups(G.table.tolist())


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_cyclic_subgroups_match_oracle(spec):
    G = construct(spec)
    got = {frozenset(int(m) for m in C.members) for C in cyclic_subgroups(G)}
    assert got == naive_cyclic_subgroups(G.table.tolist())


def test_cyclic_subgroup_counts():
    assert len(cyclic_subgroups(construct("cyclic:6"))) == 4
    assert len(cyclic_subgroups(construct("abelian:2,2"))) == 4
    assert len(cyclic_subgroups(construct("dihedral:3"))) == 5


def test_cyclic_subgroups_cover_group():
    for spec in ("dihedral:6", "quaternion:8", "heisenberg:3"):
        G = construct(spec)
        covered = set()
        for C in cyclic_subgroups(G):
            covered.update(int(m) for m in C.members)
        assert covered == set(range(G.order))


def test_generated_subgroup_examples():
    Z12 = construct("cyclic:12")
    triv = generated_subgroup(Z12, [])
    assert triv.order == 1 and 0 in triv
    H = generated_subgroup(Z12, {2})
    assert sorted(int(m) for m in H.members) == [0, 2, 4, 6, 8, 10]
    # Klein four-subgroup of the order-8 dihedral group: central rotation + reflection
    D8 = construct("dihedral:4")
    K = generated_subgroup(D8, {2, 4})  # x^2 and y
    assert K.order == 4
    assert max(D8.element_order(int(m)) for m in K.members) == 2


def test_generated_subgroup_of_members_is_that_subgroup(tmp_path):
    path = tmp_path / "a5.gens"
    path.write_text("5\n1 2 3 4 0\n1 2 0 3 4\n")
    for G in (read_permutation_generators(path), construct("dihedral:12")):
        for H in all_subgroups(G).subgroups:
            K = generated_subgroup(G, H.members)
            assert K == H and K.members.tolist() == H.members.tolist(), H
            assert K.members.dtype == G.table.dtype


def test_generated_subgroup_in_a_large_cyclic_group():
    H = generated_subgroup(construct("cyclic:2000"), [2])
    assert H.members.tolist() == list(range(0, 2000, 2))


def test_generated_subgroup_bad_seed():
    with pytest.raises(IndexOutOfRangeError):
        generated_subgroup(construct("cyclic:6"), {6})


def test_lattice_of_cyclic_group_one_subgroup_per_divisor():
    for n in (1, 2, 12, 30, 36):
        G = construct(f"cyclic:{n}")
        L = all_subgroups(G)
        assert len(L) == len(divisors(n))
        assert sorted(H.order for H in L.subgroups) == divisors(n)
        assert all(subgroup_is_cyclic(H) for H in L.subgroups)


def test_lattice_counts_examples():
    assert len(all_subgroups(construct("abelian:2,2"))) == 5
    assert len(all_subgroups(construct("dihedral:6"))) == 16


def test_lattice_contains_bounds_and_orders_divide():
    for spec in ORACLE_SPECS:
        G = construct(spec)
        L = all_subgroups(G)
        assert L.subgroups[0].order == 1
        assert L.subgroups[-1].order == G.order
        assert all(G.order % H.order == 0 for H in L.subgroups)


def test_lattice_canonical_order_and_no_duplicates():
    for spec in ("dihedral:6", "quaternion:16"):
        L = all_subgroups(construct(spec))
        keys = [H.sort_key() for H in L.subgroups]
        assert keys == sorted(keys)
        assert len({_bits(H) for H in L.subgroups}) == len(L)


def test_lattice_intersection_closed():
    for spec in ("dihedral:6", "quaternion:16", "abelian:2,4", "sdp:7,3,2"):
        L = all_subgroups(construct(spec))
        masks = {_bits(H) for H in L.subgroups}
        for A in L.subgroups:
            for B in L.subgroups:
                assert (_bits(A) & _bits(B)) in masks


def test_lattice_join_closed():
    for spec in ("dihedral:6", "abelian:2,2,2", "modular:3,3"):
        G = construct(spec)
        L = all_subgroups(G)
        masks = {_bits(H) for H in L.subgroups}
        for A in L.subgroups:
            for B in L.subgroups:
                joined = generated_subgroup(
                    G, [int(m) for m in A.members] + [int(m) for m in B.members]
                )
                assert _bits(joined) in masks


def test_partition_identity_over_cyclic_subgroups():
    for spec in ORACLE_SPECS:
        G = construct(spec)
        assert sum(euler_phi(C.order) for C in cyclic_subgroups(G)) == G.order


def test_dihedral_subgroup_census():
    """For each divisor d of n: one cyclic subgroup of order d, plus n/d
    subgroups of order 2d generated by a rotation block and a reflection."""
    for n in (4, 6, 9, 12):
        G = construct(f"dihedral:{n}")
        L = all_subgroups(G)
        rotation_mask = (1 << n) - 1  # rotations occupy indices 0..n-1
        for d in divisors(n):
            inside = [H for H in L.subgroups if H.order == d and (_bits(H) & ~rotation_mask) == 0]
            assert len(inside) == 1, (n, d)
            mixed = [H for H in L.subgroups if H.order == 2 * d and (_bits(H) & ~rotation_mask) != 0]
            assert len(mixed) == n // d, (n, d)
        assert len(L) == sum(1 + n // d for d in divisors(n))


def test_maximal_subgroups_examples():
    assert len(maximal_subgroups(all_subgroups(construct("cyclic:16")))) == 1
    assert len(maximal_subgroups(all_subgroups(construct("abelian:2,2")))) == 3
    maxima = maximal_subgroups(all_subgroups(construct("dihedral:4")))
    assert len(maxima) == 3
    assert sorted(H.order for H in maxima) == [4, 4, 4]
    kinds = sorted(subgroup_is_cyclic(H) for H in maxima)
    assert kinds == [False, False, True]  # two Klein subgroups, one cyclic


def test_maximal_count_for_abelian_p_groups():
    # rank-r abelian p-group has (p^r - 1)/(p - 1) maximal subgroups
    cases = [("abelian:2,2", 3), ("abelian:2,2,2", 7), ("abelian:3,3", 4), ("abelian:2,4", 3), ("abelian:9,3", 4), ("cyclic:27", 1)]
    for spec, count in cases:
        assert len(maximal_subgroups(all_subgroups(construct(spec)))) == count


def test_frattini_examples():
    assert frattini(all_subgroups(construct("cyclic:5"))).order == 1
    assert frattini(all_subgroups(construct("abelian:2,2"))).order == 1
    # order-16 dihedral group: cyclic Frattini subgroup of order 4
    F = frattini(all_subgroups(construct("dihedral:8")))
    assert F.order == 4
    assert subgroup_is_cyclic(F)


def test_frattini_of_two_groups_is_cyclic_quarter_order():
    for spec in ("dihedral:8", "quaternion:16", "semidihedral:16", "dihedral:16", "quaternion:32", "semidihedral:32"):
        G = construct(spec)
        F = frattini(all_subgroups(G))
        assert F.order == G.order // 4
        assert subgroup_is_cyclic(F)


def test_is_normal_examples():
    G = construct("dihedral:3")
    L = all_subgroups(G)
    assert is_normal(G, L.subgroups[0])
    rot = next(H for H in L.subgroups if H.order == 3)
    assert is_normal(G, rot)
    refl = next(H for H in L.subgroups if H.order == 2)
    assert not is_normal(G, refl)


def test_complements_examples():
    Z6 = construct("cyclic:6")
    L6 = all_subgroups(Z6)
    N = next(H for H in L6.subgroups if H.order == 3)
    assert len(complements(Z6, N, L6)) == 1

    D6 = construct("dihedral:3")
    LD = all_subgroups(D6)
    rot = next(H for H in LD.subgroups if H.order == 3)
    assert len(complements(D6, rot, LD)) == 3

    G21 = construct("sdp:7,3,2")
    L21 = all_subgroups(G21)
    N7 = next(H for H in L21.subgroups if H.order == 7)
    assert len(complements(G21, N7, L21)) == 7


def test_complements_requires_normal():
    D6 = construct("dihedral:3")
    L = all_subgroups(D6)
    refl = next(H for H in L.subgroups if H.order == 2)
    with pytest.raises(NotNormalError):
        complements(D6, refl, L)


def test_is_nilpotent_examples():
    for spec in ("quaternion:16", "abelian:2,4", "cyclic:6", "heisenberg:3"):
        G = construct(spec)
        assert is_nilpotent(G, all_subgroups(G))
    for spec in ("dihedral:3", "dihedral:6", "sdp:7,3,2"):
        G = construct(spec)
        assert not is_nilpotent(G, all_subgroups(G))


def test_sylow_subgroups_partition():
    G = construct("product:(quaternion:8)x(cyclic:9)")
    L = all_subgroups(G)
    sylows = sylow_subgroups(G, L)
    assert sorted(sylows) == [2, 3]
    assert len(sylows[2]) == 1 and sylows[2][0].order == 8
    assert len(sylows[3]) == 1 and sylows[3][0].order == 9


def test_abelian_subgroup_witness_examples():
    D16 = construct("dihedral:8")
    assert large_abelian_subgroup_witness(D16, all_subgroups(D16)) is None

    # first witness in canonical order: a rank-3 subgroup of order 8 (3+3 >= 6);
    # the group itself (m=4, r=4) witnesses too but is visited later
    E16 = construct("abelian:2,2,2,2")
    m, r = large_abelian_subgroup_witness(E16, all_subgroups(E16))
    assert (m, r) == (3, 3) and m + r >= 4 + 2

    M27 = construct("modular:3,3")
    assert large_abelian_subgroup_witness(M27, all_subgroups(M27)) is None

    # the order-8 dihedral times a 2-cycle has an elementary abelian maximal subgroup
    G = construct("product:(dihedral:4)x(cyclic:2)")
    assert large_abelian_subgroup_witness(G, all_subgroups(G)) == (3, 3)


def test_abelian_subgroup_witness_requires_prime_power():
    G = construct("cyclic:6")
    with pytest.raises(NotPrimePowerError):
        large_abelian_subgroup_witness(G, all_subgroups(G))


def test_lattice_overflow():
    G = construct("abelian:2,2,2")
    with pytest.raises(LatticeOverflowError):
        all_subgroups(G, max_subgroups=5)


def test_subgroup_cap_below_one_is_rejected(capsys):
    for cap in (0, -3):
        with pytest.raises(InvalidParameterError, match=f"got {cap}"):
            all_subgroups(construct("cyclic:1"), max_subgroups=cap)
    assert main(["--max-subgroups", "0", "summarize", "--spec", "cyclic:1"]) == 2
    assert "max_subgroups must be at least 1, got 0" in capsys.readouterr().err
    assert main(["--max-subgroups", "-3", "summarize", "--spec", "cyclic:4"]) == 2
    assert "got -3" in capsys.readouterr().err
    argv = ["--max-subgroups", "0", "scan", "--family", "cyclic", "--scan-max-order", "4"]
    assert main(argv) == 2
    assert "got 0" in capsys.readouterr().err


def test_subgroup_as_group_induces_consistent_orders():
    G = construct("dihedral:6")
    L = all_subgroups(G)
    for H in L.subgroups:
        induced = as_group(H)
        parent_orders = sorted(G.element_order(int(m)) for m in H.members)
        assert sorted(induced.element_orders().tolist()) == parent_orders


def test_large_elementary_abelian_lattice_count():
    # rank-6: gaussian binomial sums give 1+63+651+1395+651+63+1
    G = construct("abelian:2,2,2,2,2,2")
    assert len(all_subgroups(G)) == 2825


def test_whole_group_as_group_is_parent_table():
    G = construct("dihedral:5")
    whole = all_subgroups(G).subgroups[-1]
    assert as_group(whole).table.tolist() == G.table.tolist()


def test_fallback_coset_scan_matches_batch(monkeypatch):
    """Budget 0 walks every subgroup's cosets (the path of very large
    subgroups): the walked minima must reproduce the gathered ones exactly."""
    import grouptotient.lattice as lattice_mod

    specs = ["cyclic:24", "dihedral:6", "quaternion:16", "abelian:2,2,4", "heisenberg:3", "sdp:7,3,2"]
    expected = {}
    for spec in specs:
        G = construct(spec)
        expected[spec] = [(H.order, _bits(H)) for H in all_subgroups(G).subgroups]
    monkeypatch.setattr(lattice_mod, "_BATCH_LIMIT", 0)
    for spec in specs:
        G = construct(spec)
        got = [(H.order, _bits(H)) for H in all_subgroups(G).subgroups]
        assert got == expected[spec], spec


def test_fallback_coset_scan_matches_batch_on_permutation_groups(tmp_path, monkeypatch):
    """The same check of walked against gathered coset minima on
    non-abelian groups ingested from .gens, where every extension is a join."""
    import grouptotient.lattice as lattice_mod

    # PSL(2,7) on the projective line over F_7 (point 7 is infinity): x -> x + 1, x -> -1/x
    psl = [[(x + 1) % 7 for x in range(7)] + [7], [7] + [(-pow(x, 5, 7)) % 7 for x in range(1, 7)] + [0]]
    groups = {
        "a5": _group_from_generators(tmp_path, 5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]),
        "psl2_7": _group_from_generators(tmp_path, 8, psl),
    }
    expected = {name: [(H.order, _bits(H)) for H in all_subgroups(G).subgroups] for name, G in groups.items()}
    assert [len(expected["a5"]), len(expected["psl2_7"])] == [59, 179]
    monkeypatch.setattr(lattice_mod, "_BATCH_LIMIT", 0)
    for name, G in groups.items():
        got = [(H.order, _bits(H)) for H in all_subgroups(G).subgroups]
        assert got == expected[name], name


def _group_from_generators(tmp_path, degree, gens):
    from grouptotient import read_permutation_generators

    path = tmp_path / "gens.gens"
    path.write_text(f"{degree}\n" + "\n".join(" ".join(map(str, g)) for g in gens) + "\n")
    return read_permutation_generators(path)


def test_alternating_group_4(tmp_path):
    # census: trivial + 3xZ2 + 4xZ3 + V4 + itself; totients 1+3+8+3+0
    G = _group_from_generators(tmp_path, 4, [(1, 2, 0, 3), (1, 0, 3, 2)])
    assert G.order == 12
    L = all_subgroups(G)
    assert len(L) == 10
    assert sorted(H.order for H in L.subgroups) == [1, 2, 2, 2, 3, 3, 3, 3, 4, 12]
    from grouptotient import gauss_sum

    assert gauss_sum(G, L) == 15
    got = {frozenset(int(m) for m in H.members) for H in L.subgroups}
    assert got == naive_all_subgroups(G.table.tolist())


def test_symmetric_group_4(tmp_path):
    # 30 subgroups; totients: 1 + 9*1 + 4*2 + 3*2 + 4*3 + 3*2 and zeros
    G = _group_from_generators(tmp_path, 4, [(1, 2, 3, 0), (1, 0, 2, 3)])
    assert G.order == 24
    L = all_subgroups(G)
    assert len(L) == 30
    from grouptotient import gauss_sum

    assert gauss_sum(G, L) == 42
    got = {frozenset(int(m) for m in H.members) for H in L.subgroups}
    assert got == naive_all_subgroups(G.table.tolist())


def test_alternating_group_5(tmp_path):
    """Non-solvable check: 59 subgroups (15xZ2, 10xZ3, 5xV4, 6xZ5, 10 of
    order 6, 6 of order 10, 5xA4, trivial, itself); only the cyclic ones
    carry nonzero totients: 1 + 15 + 10*2 + 5*3 + 6*4 = 75."""
    G = _group_from_generators(tmp_path, 5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
    assert G.order == 60
    L = all_subgroups(G)
    assert len(L) == 59
    by_order = {}
    for H in L.subgroups:
        by_order[H.order] = by_order.get(H.order, 0) + 1
    assert by_order == {1: 1, 2: 15, 3: 10, 4: 5, 5: 6, 6: 10, 10: 6, 12: 5, 60: 1}
    from grouptotient import gauss_sum, is_nilpotent

    assert gauss_sum(G, L) == 75
    assert not is_nilpotent(G, L)


def test_elementary_abelian_gaussian_binomial_counts():
    # subspace counts: sums of Gaussian binomial coefficients
    for spec, count in [("abelian:3,3,3", 28), ("abelian:5,5", 8), ("abelian:3,3,3,3", 212), ("abelian:7,7", 10)]:
        assert len(all_subgroups(construct(spec))) == count, spec
