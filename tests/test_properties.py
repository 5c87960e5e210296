"""Property-based invariants over randomly drawn small groups."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptotient import (
    Group,
    GroupSpec,
    IdentityNotZeroError,
    NotAGroupError,
    all_subgroups,
    construct,
    cyclic_totient_sum,
    euler_phi,
    gauss_sum,
    group_totient,
    read_cayley_table,
    summarize,
    validate_table,
    write_cayley_table,
)
from naive_oracles import (
    abelian_expected,
    naive_all_subgroups,
    naive_closure,
    naive_is_associative,
    naive_orders,
    naive_permutation_table,
    relabel,
    row_sweep_associativity,
    summary_fields,
)
from test_lattice_batching import _subgroups

SMALL_SPECS = (
    [f"cyclic:{n}" for n in range(1, 25)]
    + ["abelian:2,2", "abelian:2,4", "abelian:2,2,2", "abelian:3,3", "abelian:2,2,4", "abelian:4,4", "abelian:2,3", "abelian:9,3"]
    + [f"dihedral:{n}" for n in range(2, 13)]
    + ["quaternion:8", "quaternion:16", "semidihedral:16", "modular:2,4", "modular:3,3", "heisenberg:3"]
    + ["sdp:7,3,2", "sdp:5,2,4", "sdp:13,3,3", "sdp:11,5,3"]
    + ["product:(dihedral:3)x(cyclic:5)", "product:(quaternion:8)x(cyclic:3)", "product:(cyclic:4)x(cyclic:9)"]
)

spec_strategy = st.sampled_from(SMALL_SPECS)

TINY_SPECS = [s for s in SMALL_SPECS if construct(s).order <= 16]


@given(spec_strategy)
@settings(deadline=None, max_examples=60)
def test_partition_identity(spec):
    G = construct(spec)
    assert cyclic_totient_sum(G) == G.order


@given(spec_strategy)
@settings(deadline=None, max_examples=40)
def test_gauss_sum_lower_bound_and_lagrange(spec):
    G = construct(spec)
    L = all_subgroups(G)
    assert gauss_sum(L) >= G.order
    subgroups = _subgroups(L)
    assert all(G.order % H.order == 0 for H in subgroups)
    assert subgroups[0].order == 1 and subgroups[-1].order == G.order


@given(spec_strategy)
@settings(deadline=None, max_examples=40)
def test_exponent_and_order_statistics(spec):
    G = construct(spec)
    orders = G.element_orders().tolist()
    exp = G.exponent()
    assert G.order % exp == 0
    assert all(exp % o == 0 for o in orders)
    for d in set(orders):
        assert orders.count(d) % euler_phi(d) == 0
    assert summarize(G).cyclic == (G.order in naive_orders(G.table.tolist()))


# every non-abelian group of order <= 24 that a spec builds, plus A4 and S4
NONABELIAN_TABLES = [
    construct(s).table for s in SMALL_SPECS if construct(s).order <= 24 and not construct(s).is_abelian()
] + [
    np.array(naive_permutation_table(4, [(1, 2, 0, 3), (1, 0, 3, 2)])),
    np.array(naive_permutation_table(4, [(1, 2, 3, 0), (1, 0, 2, 3)])),
]


@given(st.sampled_from(NONABELIAN_TABLES), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_lattice_matches_naive_on_relabelled_nonabelian_tables(table, seed):
    """The candidate tests compare coset minima, so they depend on the labels."""
    relabelled = relabel(table, seed)
    got = {frozenset(int(m) for m in H.members) for H in _subgroups(all_subgroups(Group(relabelled)))}
    assert got == naive_all_subgroups(relabelled.tolist())


@given(st.sampled_from(TINY_SPECS))
@settings(deadline=None, max_examples=25)
def test_lattice_matches_naive_on_tiny_groups(spec):
    G = construct(spec)
    got = {frozenset(int(m) for m in H.members) for H in _subgroups(all_subgroups(G))}
    assert got == naive_all_subgroups(G.table.tolist())


@given(
    st.lists(
        st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27]), min_size=1, max_size=3
    ).filter(lambda parts: int(np.prod(parts)) <= 200)
)
@settings(deadline=None, max_examples=40)
def test_abelian_invariants_round_trip(parts):
    """Summaries of abelian groups up to order 200 equal Birkhoff's closed forms."""
    G = construct(GroupSpec("abelian", tuple(parts)))
    assert summary_fields(summarize(G)) == abelian_expected(tuple(parts))


@given(
    st.sampled_from(["cyclic:4", "cyclic:8", "abelian:2,2", "dihedral:4", "quaternion:8", "dihedral:2"]),
    st.sampled_from(["cyclic:3", "cyclic:9", "abelian:3,3", "cyclic:5", "cyclic:7", "sdp:7,3,2"]),
)
@settings(deadline=None, max_examples=25)
def test_multiplicativity_coprime_products(left, right):
    a, b = construct(left), construct(right)
    assert np.gcd(a.order, b.order) == 1
    prod = construct(f"product:({left})x({right})")
    sa = gauss_sum(all_subgroups(a))
    sb = gauss_sum(all_subgroups(b))
    assert gauss_sum(all_subgroups(prod)) == sa * sb
    assert group_totient(prod) == group_totient(a) * group_totient(b)


@given(spec_strategy, st.data())
@settings(deadline=None, max_examples=30)
def test_generated_subgroup_is_smallest_closed_superset(spec, data):
    """The first lattice subgroup holding a random seed, in canonical order
    (smallest first), is the seed's closure under products."""
    G = construct(spec)
    seed = data.draw(
        st.lists(st.integers(0, G.order - 1), min_size=0, max_size=3)
    )
    L = all_subgroups(G)
    holding = [H for H in _subgroups(L) if set(seed) <= set(H.members.tolist())]
    assert set(holding[0].members.tolist()) == naive_closure(G.table.tolist(), seed)


@given(spec=spec_strategy)
@settings(deadline=None, max_examples=20)
def test_cayley_file_round_trip(tmp_path_factory, spec):
    G = construct(spec)
    path = tmp_path_factory.mktemp("cayley") / "g.cayley"
    write_cayley_table(G, path)
    assert read_cayley_table(path).table.tolist() == G.table.tolist()


@given(
    st.sampled_from([5, 6, 8, 9, 10]),
    st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=4),
)
@settings(deadline=None, max_examples=60)
def test_validator_agrees_with_naive_associativity(n, flips):
    """Random quasigroups built by flipping intercalates of the cyclic
    table (rows/cols >= 1, so the identity stays intact) are accepted
    iff they are associative."""
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    for r1, r2, c1, c2 in flips:
        r1, r2, c1, c2 = (r1 % (n - 1)) + 1, (r2 % (n - 1)) + 1, (c1 % (n - 1)) + 1, (c2 % (n - 1)) + 1
        if r1 == r2 or c1 == c2:
            continue
        # flip only genuine intercalates so the Latin property is kept
        if table[r1, c1] == table[r2, c2] and table[r1, c2] == table[r2, c1]:
            table[r1, c1], table[r1, c2] = table[r1, c2], table[r1, c1]
            table[r2, c1], table[r2, c2] = table[r2, c2], table[r2, c1]
    associative, witness = naive_is_associative(table.tolist())
    if associative:
        validate_table(table)
    else:
        try:
            validate_table(table)
            raise AssertionError(f"non-associative table accepted, witness {witness}")
        except NotAGroupError as err:
            assert err.axiom == "associativity"
            a, b, c = err.witness
            assert table[table[a, b], c] != table[a, table[b, c]]


@given(
    st.integers(12, 64),
    st.booleans(),
    st.lists(st.tuples(st.integers(1, 63), st.integers(1, 63), st.integers(1, 63)), max_size=3),
)
@settings(deadline=None, max_examples=40)
def test_light_test_agrees_with_the_row_sweep(n, dihedral, flips):
    """Cyclic or dihedral tables of order 12..64 with up to three flipped
    intercalates: Light's test accepts exactly the tables the O(n^3) row
    sweep accepts, and every rejection names a failing triple."""
    spec = f"dihedral:{n // 2}" if dihedral else f"cyclic:{n}"
    table = construct(spec).table.astype(np.int64)
    n = len(table)
    for r1, r2, c1 in flips:
        r1, r2, c1 = r1 % (n - 1) + 1, r2 % (n - 1) + 1, c1 % (n - 1) + 1
        # the column that completes an intercalate on rows r1, r2 and column
        # c1; column 0 must stay the identity's
        c2 = int(np.flatnonzero(table[r2] == table[r1, c1])[0])
        if r1 != r2 and c2 not in (0, c1) and table[r1, c2] == table[r2, c1]:
            table[[r1, r1, r2, r2], [c1, c2, c1, c2]] = table[[r1, r1, r2, r2], [c2, c1, c2, c1]]
    if row_sweep_associativity(table) is None:
        validate_table(table)
    else:
        try:
            validate_table(table)
            raise AssertionError("non-associative table accepted")
        except NotAGroupError as err:
            assert err.axiom == "associativity"
            x, a, y = err.witness
            assert table[table[x, a], y] != table[x, table[a, y]]


@given(st.integers(2, 12))
@settings(deadline=None, max_examples=11)
def test_validator_rejects_shifted_identity(n):
    table = (np.add.outer(np.arange(n), np.arange(n)) + 1) % n
    try:
        validate_table(table)
        raise AssertionError("table without identity at 0 accepted")
    except (IdentityNotZeroError, NotAGroupError):
        pass
