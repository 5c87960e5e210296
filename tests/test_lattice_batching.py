"""The level-by-level lattice sweep: chunking, cap and the batched Gauss sum."""

import numpy as np
import pytest

import grouptotient.lattice as lattice_mod
from grouptotient import (
    Group,
    LatticeOverflowError,
    all_subgroups,
    construct,
    cyclic_subgroups,
    euler_phi,
    gauss_sum,
    read_permutation_generators,
    subgroup_totient,
)
from naive_oracles import relabel


def _relabelled(spec, seed):
    """The Cayley table of `spec` with its non-identity elements shuffled."""
    return Group(relabel(construct(spec).table, seed))


def _from_gens(tmp_path, degree, gens):
    path = tmp_path / "gens.gens"
    path.write_text(f"{degree}\n" + "\n".join(" ".join(map(str, g)) for g in gens) + "\n")
    return read_permutation_generators(path)


def _groups(tmp_path):
    return {
        "abelian:2,2,2,2,2": construct("abelian:2,2,2,2,2"),
        "abelian:4,4,2": construct("abelian:4,4,2"),
        "abelian:3,3,3": construct("abelian:3,3,3"),
        "relabelled abelian:2,2,2,2,4": _relabelled("abelian:2,2,2,2,4", seed=7),
        "dihedral:12": construct("dihedral:12"),
        "a5": _from_gens(tmp_path, 5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]),
    }


def _bits(H):
    """The subgroup's members as an int bitset (bit a set iff a is a member)."""
    return sum(1 << int(x) for x in H.members)


def _records(L):
    return [
        (H.order, H.members.tolist(), _bits(H), t) for H, t in zip(L.subgroups, L.totients.tolist())
    ]


def test_level_sweep_independent_of_chunk_budget(tmp_path, monkeypatch):
    """The default budget, one parent per chunk (4 * |G|: order-4 parents
    one at a time, larger ones through the coset walk), and budget 0 (the
    coset minima of every parent walked, not gathered, and the totient pass
    one row per block) give the same subgroups, members, bitsets and
    totients, in sort_key order."""
    groups = _groups(tmp_path)
    expected = {name: _records(all_subgroups(G)) for name, G in groups.items()}
    assert len(expected["abelian:2,2,2,2,2"]) == 374
    assert len(expected["a5"]) == 59
    for name, G in groups.items():
        L = all_subgroups(G)
        keys = [H.sort_key() for H in L.subgroups]
        assert keys == sorted(keys), name
        assert len({_bits(H) for H in L.subgroups}) == len(L), name
        for H in L.subgroups:
            assert H.members.dtype == G.table.dtype, name
        for budget in (4 * G.order, 0):
            monkeypatch.setattr(lattice_mod, "_BATCH_LIMIT", budget)
            assert _records(all_subgroups(G)) == expected[name], (name, budget)
        monkeypatch.undo()


def test_cap_counts_the_first_child_past_it():
    G = construct("abelian:2,2,2,2,2,2")
    with pytest.raises(LatticeOverflowError) as exc:
        all_subgroups(G, max_subgroups=100)
    assert (exc.value.count, exc.value.cap) == (101, 100)
    # the Galois number for rank 6 over F_2: exactly at the cap succeeds
    assert len(all_subgroups(G, max_subgroups=2825)) == 2825
    with pytest.raises(LatticeOverflowError) as exc:
        all_subgroups(G, max_subgroups=2824)
    assert (exc.value.count, exc.value.cap) == (2825, 2824)


def test_batched_gauss_sum_matches_per_subgroup_totients(tmp_path):
    groups = list(_groups(tmp_path).values()) + [
        construct(spec) for spec in ("cyclic:360", "quaternion:32", "sdp:7,3,2", "heisenberg:3")
    ]
    for G in groups:
        L = all_subgroups(G)
        assert L.totients.dtype == np.int64, G
        assert L.totients.tolist() == [subgroup_totient(H) for H in L.subgroups], G
        assert gauss_sum(G, L) == sum(subgroup_totient(H) for H in L.subgroups), G


def test_cyclic_sum_is_read_off_the_lattice(tmp_path):
    """The totient pass sums phi over the subgroups whose exponent is their
    order; on relabelled non-abelian tables, where a cyclic subgroup's least
    generator need not be its least non-identity element, that sum equals
    the sum over the independently built cyclic_subgroups, and |G|."""
    groups = [
        _relabelled(spec, seed)
        for spec in ("dihedral:6", "quaternion:16", "sdp:7,3,2", "heisenberg:3", "product:(dihedral:3)x(cyclic:4)")
        for seed in (1, 2)
    ] + [_groups(tmp_path)["a5"]]
    for G in groups:
        L = all_subgroups(G)
        assert L.cyclic_sum == sum(euler_phi(C.order) for C in cyclic_subgroups(G)) == G.order, G


def test_gauss_sum_pins_benchmark_oracle_values():
    for spec, s in (("abelian:2,2,2,2,2,2,2", 358776), ("abelian:4,4,4", 876)):
        G = construct(spec)
        assert gauss_sum(G, all_subgroups(G)) == s


def _joins(monkeypatch, G):
    """(joins run, joins abandoned) while enumerating G's lattice."""
    counts = [0, 0]
    join = lattice_mod._join_with_element

    def counting(*args, **kwargs):
        joined = join(*args, **kwargs)
        counts[0] += 1
        counts[1] += joined is None
        return joined

    monkeypatch.setattr(lattice_mod, "_join_with_element", counting)
    all_subgroups(G)
    monkeypatch.undo()
    return tuple(counts)


def test_candidates_that_cannot_be_canonical_are_never_joined(tmp_path, monkeypatch):
    """The H*a^-1, H*a^2 and HaH minima drop candidates before any join:
    testing only H*a, A6 ran 3,997 joins and abandoned 3,497, and
    product:(dihedral:15)x(cyclic:4) ran 164 and abandoned 33.  Level 1
    is read off the least-generator walk, so the cyclic subgroups are
    never joined (with level-1 joins, A6 ran 818 and abandoned 318, the
    product 140 and 9).  Walked coset minima (budget 0) go through the
    same filters as gathered ones, HaH included, so they start and
    abandon the same joins."""
    a6 = _from_gens(tmp_path, 6, [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)])
    assert a6.order == 360
    assert _joins(monkeypatch, a6) == (662, 318)
    assert _joins(monkeypatch, construct("product:(dihedral:15)x(cyclic:4)")) == (99, 3)
    monkeypatch.setattr(lattice_mod, "_BATCH_LIMIT", 0)
    assert _joins(monkeypatch, a6) == (662, 318)


def test_coset_walk_at_its_natural_scale(monkeypatch):
    """dihedral:400 (order 800) walks the cosets of its subgroups of order
    400 and 800 at the default budget (|H| * |G| > 2^18); it has
    tau(400) + sigma(400) = 15 + 961 = 976 subgroups, and every level and
    totient equals the budget-0 lattice, where every parent but the
    trivial subgroup (level 1 comes from the least-generator walk) is walked."""
    G = construct("dihedral:400")
    walked, walk = [], lattice_mod._coset_minima

    def counting(table, members):
        walked.append(len(members))
        return walk(table, members)

    monkeypatch.setattr(lattice_mod, "_coset_minima", counting)
    L = all_subgroups(G)
    assert len(L) == 976
    assert sorted(walked) == [400, 400, 400, 800]
    monkeypatch.setattr(lattice_mod, "_BATCH_LIMIT", 0)
    walked.clear()
    L0 = all_subgroups(G)
    assert len(walked) == 975
    assert L0.levels.keys() == L.levels.keys()
    for k, level in L.levels.items():
        assert L0.levels[k].dtype == level.dtype and np.array_equal(L0.levels[k], level), k
    assert np.array_equal(L0.totients, L.totients)
