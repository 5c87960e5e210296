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
)
from naive_oracles import naive_all_subgroups, naive_closure, naive_subgroup_phi, relabel


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


def _subgroups(L):
    """Every subgroup of L in canonical order, one Subgroup per level row."""
    return [H for k in L.levels for H in L.of_order(k)]


def _records(L):
    return [
        (H.order, H.members.tolist(), _bits(H), t) for H, t in zip(_subgroups(L), L.totients.tolist())
    ]


def test_level_sweep_independent_of_chunk_budget(tmp_path, monkeypatch):
    """The default budget, one parent per chunk (4 * |G|: order-4 parents
    one at a time, larger ones over slices of their members), and budget 0
    (the coset minima of every parent reduced one member at a time, and
    the totient pass one row per block) give the same subgroups, members,
    bitsets and totients, in sort_key order.  dihedral:150 (order 300) has
    a uint16 table, whose rows are sorted as big-endian pairs of bytes."""
    groups = {**_groups(tmp_path), "dihedral:150": construct("dihedral:150")}
    expected = {name: _records(all_subgroups(G)) for name, G in groups.items()}
    assert len(expected["abelian:2,2,2,2,2"]) == 374
    assert len(expected["a5"]) == 59
    assert len(expected["dihedral:150"]) == 384  # tau(150) + sigma(150)
    assert groups["dihedral:150"].table.dtype == np.uint16
    for name, G in groups.items():
        for budget in (lattice_mod._BATCH_LIMIT, 4 * G.order, 0):
            monkeypatch.setattr(lattice_mod, "_BATCH_LIMIT", budget)
            L = all_subgroups(G)
            subgroups = _subgroups(L)
            keys = [H.sort_key() for H in subgroups]
            assert keys == sorted(keys), (name, budget)
            assert len({_bits(H) for H in subgroups}) == len(L), (name, budget)
            for H in subgroups:
                assert H.members.dtype == G.table.dtype, (name, budget)
            assert _records(L) == expected[name], (name, budget)
        monkeypatch.undo()


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_level_order_is_the_lexicographic_order_of_rows(dtype):
    """A level is sorted by one argsort of its rows as big-endian byte
    strings; that is np.lexsort's order of the rows, first column most
    significant, here on random rows with repeats, ties in every leading
    column, and int64 entries above 2^32 (no order-2^32 group is built)."""
    rng = np.random.default_rng(5)
    high = min(np.iinfo(dtype).max, 1 << 40)
    rows = np.sort(rng.integers(0, high, size=(500, 6), dtype=np.int64), axis=1).astype(dtype)
    rows[100:200, :3] = rows[100, :3]  # a shared prefix of three columns
    rows[200:220] = rows[200]  # repeated rows
    rows[300:, 0] = rng.integers(0, 4, size=200)  # few values in the first column
    order = lattice_mod._canonical_order(rows)
    assert sorted(order.tolist()) == list(range(len(rows)))
    assert np.array_equal(rows[order], rows[np.lexsort(rows.T[::-1])])


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


def _last_step(table):
    """(length, index of the last proper subgroup) of G's canonical chain,
    walked with the naive closure: c_(i+1) is the least element outside
    <c_1.. c_i>, so the sweep can reach G only from that last subgroup."""
    H, length = frozenset([0]), 0
    while len(H) < len(table):
        last = H
        H = naive_closure(table, H | {min(set(range(len(table))) - H)})
        length += 1
    return length, len(table) // len(last)


def _skip_cases(tmp_path):
    """Where G's chain ends: after a prime-index level, which is not swept,
    so G is appended after the loop; after a composite-index level, whose
    sweep finds G; at level 1 (a cyclic G read off the walk); and prime
    order, where level 1 itself has prime index."""
    return {
        "appended": [construct(spec) for spec in ("dihedral:3", "abelian:3,3", "quaternion:8", "sdp:7,3,2")],
        "swept": [
            _from_gens(tmp_path, 4, [(1, 2, 0, 3), (0, 2, 3, 1)]),
            _from_gens(tmp_path, 4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
            _from_gens(tmp_path, 5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]),
        ],
        "level 1": [construct("cyclic:12")],
        "prime order": [construct("cyclic:7")],
    }


@pytest.mark.parametrize("budget", ["default", 0])
def test_prime_index_levels_are_not_swept(tmp_path, monkeypatch, budget):
    """A subgroup of prime index has no proper overgroup but G (Lagrange),
    so its level is recorded but not swept, and G is appended after the
    loop when no sweep found it.  Each case's lattice, in canonical order
    and with its totients, matches the naive pairwise-join closure."""
    if budget == 0:
        monkeypatch.setattr(lattice_mod, "_BATCH_LIMIT", 0)
    cases = _skip_cases(tmp_path)
    assert [G.order for G in cases["swept"]] == [12, 24, 60]
    for case, groups in cases.items():
        for G in groups:
            table = G.table.tolist()
            length, index = _last_step(table)
            assert (length == 1) == (case in ("level 1", "prime order")), (case, G)
            prime = all(index % p for p in range(2, index))  # index > 1
            assert prime == (case in ("appended", "prime order")), (case, G)
            L = all_subgroups(G)
            assert list(L.levels) == sorted(L.levels) and L.levels[G.order].shape == (1, G.order), G
            assert np.array_equal(L.levels[G.order][0], np.arange(G.order)), G
            subgroups = _subgroups(L)
            keys = [H.sort_key() for H in subgroups]
            assert keys == sorted(keys), G
            naive = naive_all_subgroups(table)
            assert len(L) == len(naive) and {frozenset(H.members.tolist()) for H in subgroups} == naive, G
            assert L.totients.tolist() == [naive_subgroup_phi(table, H.members.tolist()) for H in subgroups], G
            assert L.cyclic_sum == G.order, G
    assert len(all_subgroups(construct("cyclic:7"))) == 2


def test_a_prime_index_level_starts_no_join(monkeypatch):
    """abelian:3,3 and sdp:7,3,2 reach G only from a subgroup of prime
    index, whose sweep would run one join, finding G."""
    for spec in ("abelian:3,3", "sdp:7,3,2"):
        assert _joins(monkeypatch, construct(spec)) == (0, 0), spec


@pytest.mark.parametrize("case", ["appended", "swept"])
def test_cap_counts_g_wherever_it_is_found(tmp_path, case):
    """The cap counts G whether a sweep finds it or it is appended after
    the loop: exactly at the cap succeeds, one below raises."""
    for G in _skip_cases(tmp_path)[case]:
        count = len(all_subgroups(G))
        assert len(all_subgroups(G, max_subgroups=count)) == count
        with pytest.raises(LatticeOverflowError) as exc:
            all_subgroups(G, max_subgroups=count - 1)
        assert (exc.value.count, exc.value.cap) == (count, count - 1), G


def test_batched_gauss_sum_matches_per_subgroup_totients(tmp_path):
    groups = list(_groups(tmp_path).values()) + [
        construct(spec) for spec in ("cyclic:360", "quaternion:32", "sdp:7,3,2", "heisenberg:3")
    ]
    for G in groups:
        L = all_subgroups(G)
        table = G.table.tolist()
        naive = [naive_subgroup_phi(table, H.members.tolist()) for H in _subgroups(L)]
        assert L.totients.dtype == np.int64, G
        assert L.totients.tolist() == naive, G
        assert gauss_sum(L) == sum(naive), G


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
        assert gauss_sum(all_subgroups(G)) == s


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
    product 140 and 9).  A candidate a that normalizes H with a^2 in H
    (every entry of its HaH row is a) is an index-2 step, built without a
    join (joining them too, A6 ran 662 and the product 99); such steps are
    always accepted, so the abandoned joins stay the same.  Walked coset
    minima (budget 0) go through the same filters as gathered ones, HaH
    included, so they start and abandon the same joins."""
    a6 = _from_gens(tmp_path, 6, [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)])
    assert a6.order == 360
    assert _joins(monkeypatch, a6) == (486, 318)
    assert _joins(monkeypatch, construct("product:(dihedral:15)x(cyclic:4)")) == (9, 3)
    monkeypatch.setattr(lattice_mod, "_BATCH_LIMIT", 0)
    assert _joins(monkeypatch, a6) == (486, 318)


def test_join_is_the_closure_when_a_is_its_least_new_element(tmp_path):
    """The join contract outside the sweep's filters: for every subgroup H
    and every a outside H with min(H*a) = a, joining by H's members and a
    gives the naive closure K of H u {a} when a = min(K \\ H), and None
    otherwise; when a normalizes H, joining by no members, a alone, gives
    the same.  In the abelian groups every a normalizes H, so the walk by
    a alone is checked for every candidate."""
    groups = {
        "a5": _groups(tmp_path)["a5"],
        "s4": _from_gens(tmp_path, 4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
        "dihedral:12": construct("dihedral:12"),
        "cyclic:12": construct("cyclic:12"),
        "abelian:2,4,8": construct("abelian:2,4,8"),
        "abelian:3,9": construct("abelian:3,9"),
        "heisenberg:3": construct("heisenberg:3"),
        "relabelled sdp:7,3,2": _relabelled("sdp:7,3,2", seed=5),
    }
    for name, G in groups.items():
        table, rows = G.table, G.table.tolist()
        inverses = [row.index(0) for row in rows]
        outcomes = set()
        for H in _subgroups(all_subgroups(G)):
            inside = set(H.members.tolist())
            minima = table[H.members].min(axis=0)  # minima[x] = min(H*x)
            for a in range(len(rows)):
                if a in inside or min(rows[h][a] for h in inside) != a:
                    continue
                K = naive_closure(rows, inside | {a})
                expected = sorted(K) if min(K - inside) == a else None
                joined = lattice_mod._join_with_element(table, minima, H.members, a)
                assert (None if joined is None else joined.tolist()) == expected, (name, H, a)
                if {rows[rows[a][h]][inverses[a]] for h in inside} == inside:
                    joined = lattice_mod._join_with_element(table, minima, (), a)
                    assert (None if joined is None else joined.tolist()) == expected, (name, H, a)
                outcomes.add(expected is None)
        assert outcomes == {False, True}, name


def test_member_slices_at_their_natural_scale(monkeypatch):
    """dihedral:520 (order 1040) reduces the coset minima of its subgroups
    of order 260 over slices of their members at the default budget
    (|H| * |G| > 2^18).  Their index 4 is the least composite index, so
    they are the largest swept subgroups: a subgroup of prime index, such
    as those of order 520, has no child but G and is not swept, nor is G.
    It has tau(520) + sigma(520) = 16 + 1260 = 1276 subgroups, and every
    level and totient equals the budget-0 lattice, where every parent is
    reduced one member at a time."""
    G = construct("dihedral:520")
    L = all_subgroups(G)
    assert len(L) == 1276
    assert len(L.levels[260]) == 5 and 260 * G.order > lattice_mod._BATCH_LIMIT
    monkeypatch.setattr(lattice_mod, "_BATCH_LIMIT", 0)
    L0 = all_subgroups(G)
    assert L0.levels.keys() == L.levels.keys()
    for k, level in L.levels.items():
        assert L0.levels[k].dtype == level.dtype and np.array_equal(L0.levels[k], level), k
    assert np.array_equal(L0.totients, L.totients)


@pytest.mark.parametrize("budget", [1, 5, 64])
def test_totient_pass_independent_of_its_batches(tmp_path, monkeypatch, budget):
    """One totient pass reads every level, batching consecutive rows of
    different widths up to _BATCH_LIMIT gathered orders; budgets of 1, 5
    and 64 split it differently (one row per batch, rows of several
    levels in one batch) and give the default budget's totients and cyclic
    sum.  cyclic:256 and abelian:2,128 hold elements of order 256 and 128,
    gathered in a dtype that holds 256, not the table's uint8."""
    groups = {
        "abelian:2,2,2,2,2": construct("abelian:2,2,2,2,2"),
        "dihedral:12": construct("dihedral:12"),
        "a5": _groups(tmp_path)["a5"],
        "abelian:2,128": construct("abelian:2,128"),
        "cyclic:256": construct("cyclic:256"),
    }
    expected = {}
    for name, G in groups.items():
        L = all_subgroups(G)
        expected[name] = (L.totients.tolist(), L.cyclic_sum)
    assert expected["cyclic:256"][0][-1] == 128 and expected["cyclic:256"][1] == 256
    monkeypatch.setattr(lattice_mod, "_BATCH_LIMIT", budget)
    for name, G in groups.items():
        L = all_subgroups(G)
        assert L.totients.dtype == np.int64, name
        assert (L.totients.tolist(), L.cyclic_sum) == expected[name], name
