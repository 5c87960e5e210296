"""Subgroups stored as member arrays, and lattice queries read off the lattice."""

import tracemalloc
from functools import reduce
from operator import and_

import pytest

import grouptotient.lattice as lattice_mod
import grouptotient.verify as verify_mod
from grouptotient import (
    all_subgroups,
    complements,
    construct,
    cyclic_subgroups,
    frattini,
    gauss_sum,
    inclusion_exclusion_residual,
    is_normal,
    maximal_subgroups,
)
from grouptotient.verify import (
    CLOSING_CORPUS_DEFAULT,
    _summary,
    class_subgroup_closure,
    subgroup_gauss_sum_from_lattice,
)
from naive_oracles import as_group, naive_is_normal
from test_lattice_batching import _bits, _from_gens, _groups, _relabelled


def test_contained_in_is_set_containment(tmp_path):
    for name, G in _groups(tmp_path).items():
        L = all_subgroups(G)
        sets = [set(H.members.tolist()) for H in L.subgroups]
        for H, h in zip(L.subgroups, sets):
            inside = L.contained_in(H.members)
            assert inside.dtype == bool and len(inside) == len(L), name
            assert inside.tolist() == [k <= h for k in sets], name
            assert all((a in H) == (a in h) for a in range(G.order)), name


def test_subgroups_compare_by_members_across_constructors(tmp_path):
    """Equal member sets have equal bytes whichever routine built them, so
    cyclic subgroups hash and compare equal to lattice rows."""
    for name, G in _groups(tmp_path).items():
        L = all_subgroups(G)
        position = {H: i for i, H in enumerate(L.subgroups)}
        for H in cyclic_subgroups(G):
            assert L.subgroups[position[H]] == H, name
        assert len(position) == len(L), name


def test_summary_path_builds_no_subgroup_objects(tmp_path):
    """Gauss sum, lattice size and nilpotency are read off the levels."""
    for name, G in _groups(tmp_path).items():
        L = all_subgroups(G)
        _summary(G, L)
        assert L._subgroups is None, name
        assert L.subgroups is L.subgroups, name


def test_down_set_gauss_sum_matches_each_subgroups_own_lattice(tmp_path):
    """Oracle sharing no containment code: H's own lattice, built from
    as_group(H), gives the Gauss sum read off the parent lattice."""
    groups = _groups(tmp_path)
    for name in ("abelian:2,2,4", "dihedral:12", "sdp:7,3,2", "a5"):
        G = groups[name] if name in groups else construct(name)
        L = all_subgroups(G)
        for H in L.subgroups:
            Q = as_group(H)
            assert subgroup_gauss_sum_from_lattice(L, H) == gauss_sum(Q, all_subgroups(Q)), name


def test_rank_7_lattice_is_held_as_level_matrices():
    """The 29,212 subgroups of 2^7 are held in under 2 MiB."""
    G = construct("abelian:2,2,2,2,2,2,2")
    G.element_orders()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        L = all_subgroups(G)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(L) == 29212
    assert held < 2 << 20, held


def test_of_order_matches_a_linear_filter(tmp_path):
    """of_order builds its level's views alone, leaving `subgroups` unbuilt."""
    for name, G in _groups(tmp_path).items():
        L = all_subgroups(G)
        levels = {k: [H.members.tobytes() for H in L.of_order(k)] for k in range(1, G.order + 2)}
        assert L._subgroups is None, name
        for k, rows in levels.items():
            expected = [H.members.tobytes() for H in L.subgroups if H.order == k]
            assert rows == expected, (name, k)


def test_maximal_subgroups_are_read_off_the_lattice(tmp_path, monkeypatch):
    def no_join(*args, **kwargs):
        raise AssertionError("maximal_subgroups ran a join")

    for name, G in _groups(tmp_path).items():
        L = all_subgroups(G)
        position = {id(H): i for i, H in enumerate(L.subgroups)}
        proper = [(id(H), _bits(H)) for H in L.subgroups[:-1]]
        by_definition = [
            i for i, h in proper if not any(j != i and (h & k) == h for j, k in proper)
        ]
        monkeypatch.setattr(lattice_mod, "_join_with_element", no_join)
        first = maximal_subgroups(L)
        expected = [id(H) for H in first]
        assert expected == by_definition and expected, name
        assert [position[i] for i in expected] == sorted(position[i] for i in expected), name
        first.clear()
        assert [id(H) for H in maximal_subgroups(L)] == expected, name
        monkeypatch.undo()


def test_frattini_is_the_lattice_member_cut_out_by_the_maxima(tmp_path):
    for name, G in _groups(tmp_path).items():
        L = all_subgroups(G)
        F = frattini(L)
        assert any(F is H for H in L.subgroups), name
        assert _bits(F) == reduce(and_, (_bits(M) for M in maximal_subgroups(L))), name


def test_is_normal_matches_the_naive_conjugation_test(tmp_path, monkeypatch):
    """Every subgroup of six non-abelian groups, at the default budget and
    at budget 0, where each member's conjugates are gathered alone."""
    groups = [construct(spec) for spec in ("dihedral:6", "quaternion:16", "heisenberg:3", "sdp:7,3,2")]
    groups.append(_from_gens(tmp_path, 4, [(1, 2, 3, 0), (1, 0, 2, 3)]))  # S4
    groups.append(_groups(tmp_path)["a5"])
    groups.append(_relabelled("dihedral:12", seed=3))
    for G in groups:
        table = G.table.tolist()
        subgroups = all_subgroups(G).subgroups
        expected = [naive_is_normal(table, H.members.tolist()) for H in subgroups]
        assert 2 < sum(expected) < len(subgroups) or G.order == 60, G
        for budget in (lattice_mod._BATCH_LIMIT, 0):
            monkeypatch.setattr(lattice_mod, "_BATCH_LIMIT", budget)
            assert [is_normal(G, H) for H in subgroups] == expected, (G, budget)


def test_is_normal_gathers_in_bounded_memory():
    """The three index-2 subgroups of dihedral:2000 (order 4000) are normal,
    and testing each peaks under 4 MiB traced, not at |G| * |H| products."""
    G = construct("dihedral:2000")
    halves = all_subgroups(G).of_order(2000)
    G.inverses()
    assert len(halves) == 3
    for H in halves:
        tracemalloc.start()
        try:
            assert is_normal(G, H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak


def _by_sets(L):
    """Each subgroup's member set, and S(x): the totients summed over the
    subgroups whose member sets lie inside the set x."""
    sets = [frozenset(H.members.tolist()) for H in L.subgroups]
    totients = L.totients.tolist()
    return sets, lambda x: sum(t for k, t in zip(sets, totients) if k <= x)


def test_subgroup_closure_matches_set_containment(monkeypatch):
    """The closing-equality corpus, 2^4 and dihedral:12, at the default
    budget, at one that splits levels into chunks both ways, and at 0."""
    specs = [*CLOSING_CORPUS_DEFAULT, "abelian:2,2,2,2", "dihedral:12"]
    lattices = [(G, all_subgroups(G)) for G in map(construct, specs)]
    expected = []
    for _, L in lattices:
        sets, s = _by_sets(L)
        expected.append([(len(h), s(h) == len(h)) for h in sets])
    assert any(not all(m for _, m in e) for e in expected)
    for budget in (verify_mod._BATCH_LIMIT, 64, 0):
        monkeypatch.setattr(verify_mod, "_BATCH_LIMIT", budget)
        for spec, (G, L), e in zip(specs, lattices, expected):
            assert class_subgroup_closure(G, L) == e, (spec, budget)


def test_subgroup_closure_gathers_in_bounded_memory():
    """The 2,825 subgroups of 2^6 (64 members) peak under 4 MiB traced."""
    G = construct("abelian:2,2,2,2,2,2")
    L = all_subgroups(G)
    tracemalloc.start()
    try:
        closure = class_subgroup_closure(G, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(closure) == 2825 and sum(m for _, m in closure) == 64
    assert peak < 4 << 20, peak


@pytest.mark.parametrize(
    "spec, p",
    [
        *((f"dihedral:{2 ** (n - 1)}", 2) for n in range(3, 8)),
        *((f"quaternion:{2 ** n}", 2) for n in range(3, 8)),
        *((f"semidihedral:{2 ** n}", 2) for n in range(4, 8)),
        ("modular:2,4", 2), ("modular:2,5", 2), ("modular:3,3", 3), ("modular:3,4", 3),
        ("abelian:2,2,2", 2), ("abelian:3,9", 3), ("heisenberg:3", 3),
    ],
)
def test_inclusion_exclusion_matches_set_containment(spec, p):
    """thm5's 18 groups, and three p-groups with more than p + 1 maxima,
    where the identity fails and only the two sides must agree."""
    G = construct(spec)
    L = all_subgroups(G)
    sets, s = _by_sets(L)
    maxima = [m for m in sets[:-1] if not any(m < x for x in sets[:-1])]
    phi = s(frozenset.intersection(*maxima))
    expected = (s(sets[-1]), int(L.totients[-1]) + sum(map(s, maxima)) - p * phi)
    assert inclusion_exclusion_residual(G, L) == expected
    assert subgroup_gauss_sum_from_lattice(L, frattini(L)) == phi


def _sl23(tmp_path):
    """SL(2, 3) acting on the eight non-zero vectors of F_3^2."""
    vectors = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]

    def perm(m):
        return [vectors.index(((m[0] * a + m[1] * b) % 3, (m[2] * a + m[3] * b) % 3)) for a, b in vectors]

    return _from_gens(tmp_path, 8, [perm((1, 1, 0, 1)), perm((0, 2, 1, 0))])


def test_complements_match_a_filter_of_every_subgroup(tmp_path):
    """Every normal N of seven groups; SL(2, 3)'s centre has index 12, an
    order no subgroup has."""
    groups = [construct(spec) for spec in ("dihedral:6", "dihedral:9", "sdp:7,3,2", "quaternion:16", "cyclic:12")]
    groups += [_from_gens(tmp_path, 4, [(1, 2, 3, 0), (1, 0, 2, 3)]), _sl23(tmp_path)]
    assert groups[-1].order == 24
    for G in groups:
        L = all_subgroups(G)
        table = G.table.tolist()
        sets = [set(H.members.tolist()) for H in L.subgroups]
        for N, n in zip(L.subgroups, sets):
            if not naive_is_normal(table, sorted(n)):
                continue
            expected = [k for k in sets if len(k) * len(n) == G.order and k & n == {0}]
            assert [set(K.members.tolist()) for K in complements(G, N, L)] == expected, (G, len(n))
