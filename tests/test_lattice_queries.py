"""Subgroups stored as member arrays, and lattice queries read off the lattice."""

from functools import reduce
from operator import and_

import pytest

import grouptotient.lattice as lattice_mod
from grouptotient import (
    all_subgroups,
    cyclic_subgroups,
    frattini,
    generated_subgroup,
    maximal_subgroups,
)
from test_lattice_batching import _groups


def _bits(H):
    return sum(1 << int(x) for x in H.members)


def test_enumeration_builds_no_masks(tmp_path):
    for name, G in _groups(tmp_path).items():
        assert all(H._mask is None for H in all_subgroups(G).subgroups), name


def test_mask_is_the_bitset_of_the_members(tmp_path):
    for name, G in _groups(tmp_path).items():
        subs = (
            all_subgroups(G).subgroups
            + cyclic_subgroups(G)
            + [generated_subgroup(G, [1]), generated_subgroup(G, [1, G.order - 1])]
        )
        for H in subs:
            assert H.mask == _bits(H), name
            assert H._mask == H.mask, name
        with pytest.raises(AttributeError):
            subs[0].mask = 0


def test_of_order_matches_a_linear_filter(tmp_path):
    for name, G in _groups(tmp_path).items():
        L = all_subgroups(G)
        for k in range(1, G.order + 2):
            expected = [id(H) for H in L.subgroups if H.order == k]
            assert [id(H) for H in L.of_order(k)] == expected, (name, k)


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
        assert F.mask == reduce(and_, (M.mask for M in maximal_subgroups(L))), name
