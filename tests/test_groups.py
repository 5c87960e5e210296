"""Construction, element orders, exponents, and abelian summaries against Birkhoff's counts."""

import math

import numpy as np
import pytest

from grouptotient import (
    AbelianType,
    Group,
    GroupSpec,
    InvalidParameterError,
    NotAGroupError,
    OrderOverflowError,
    construct,
    direct_product,
    divisors,
    parse_spec,
    summarize,
    validate_table,
)
from grouptotient import groups
from grouptotient.groups import _product_table
from grouptotient.numtheory import integer_log
from grouptotient.verify import abelian_type_specs
from naive_oracles import (
    abelian_expected,
    naive_order,
    naive_orders,
    power_map_orders,
    relabel,
    summary_fields,
)
from test_lattice import ORACLE_SPECS
from test_properties import SMALL_SPECS

ALL_FAMILY_SPECS = [
    "cyclic:1",
    "cyclic:6",
    "cyclic:12",
    "abelian:2,2",
    "abelian:2,4",
    "abelian:2,4,8",
    "abelian:3,9",
    "dihedral:2",
    "dihedral:3",
    "dihedral:6",
    "dihedral:8",
    "quaternion:8",
    "quaternion:16",
    "semidihedral:16",
    "semidihedral:32",
    "modular:2,4",
    "modular:3,3",
    "modular:5,3",
    "heisenberg:3",
    "sdp:7,3,2",
    "sdp:5,2,4",
    "product:(cyclic:4)x(cyclic:9)",
    "product:(dihedral:3)x(cyclic:5)",
]


def test_is_abelian_matches_the_transpose_check():
    """Cyclic and abelian specs are known abelian at construction; every
    family spec still answers as the transpose comparison does."""
    for spec in ALL_FAMILY_SPECS + list(SMALL_SPECS) + ORACLE_SPECS:
        G = construct(spec)
        t = G.table
        if G.spec.family in ("cyclic", "abelian"):
            assert G._abelian is True, spec
        assert G.is_abelian() == bool(np.array_equal(t, t.T)), spec


@pytest.mark.parametrize(
    "left,right",
    [
        ("dihedral:3", "quaternion:8"),
        ("quaternion:8", "dihedral:3"),
        ("cyclic:16", "cyclic:16"),  # order 256, the last uint8 table
        ("cyclic:1", "abelian:2,2,2,2,2,2,2,2"),  # offset 256 only multiplies index 0
        ("dihedral:64", "cyclic:2"),
        ("cyclic:1", "cyclic:257"),  # order 257, the first uint16 table
        ("dihedral:3", "cyclic:43"),
        ("heisenberg:3", "dihedral:5"),
    ],
)
def test_product_table_in_its_final_dtype(left, right):
    """The product table is written straight into its index dtype and equals
    the int64 formula t1[a1, b1] * n2 + t2[a2, b2]."""
    t1, t2 = construct(left).table, construct(right).table
    n1, n2 = len(t1), len(t2)
    wide = t1.astype(np.int64)[:, None, :, None] * n2 + t2.astype(np.int64)[None, :, None, :]
    table = _product_table(t1, t2)
    assert table.dtype == (np.uint8 if n1 * n2 <= 256 else np.uint16)
    assert np.array_equal(table, wide.reshape(n1 * n2, n1 * n2))


@pytest.mark.parametrize("spec", ALL_FAMILY_SPECS)
def test_constructors_satisfy_group_axioms(spec):
    G = construct(spec)
    validate_table(np.asarray(G.table, dtype=np.int64))


@pytest.mark.parametrize("spec", ["dihedral:500", "cyclic:1000"])
def test_validate_table_accepts_order_1000(spec):
    validate_table(construct(spec).table)


def _assert_associativity_witness(table, err):
    assert err.axiom == "associativity"
    x, a, y = err.witness
    assert table[table[x, a], y] != table[x, table[a, y]]


def test_validate_table_rejects_one_flipped_intercalate_at_order_1000():
    table = construct("cyclic:1000").table.astype(np.int64)
    rows, cols = [1, 501], [2, 502]  # entries 3, 503 / 503, 3: an intercalate
    table[np.ix_(rows, cols)] = table[np.ix_(rows, cols[::-1])]
    with pytest.raises(NotAGroupError) as info:
        validate_table(table)
    _assert_associativity_witness(table, info.value)


def test_validate_table_looks_past_an_associative_generator():
    """Z2 x L for a non-associative loop L of order 5, indexed z + 2q.
    The first greedy generator, 1 = (1, e), is associative and closes only
    to {0, 1}, so the search must go on to a later generator."""
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]
    table = np.array(
        [[((i % 2) ^ (j % 2)) + 2 * loop[i // 2][j // 2] for j in range(10)] for i in range(10)]
    )
    assert all(table[table[x, 1], y] == table[x, table[1, y]] for x in range(10) for y in range(10))
    with pytest.raises(NotAGroupError) as info:
        validate_table(table)
    _assert_associativity_witness(table, info.value)
    assert info.value.witness[1] != 1


@pytest.mark.parametrize(
    "rows,axiom,witness",
    [
        # row 1 and column 1 both repeat: the row is named first
        ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], "latin-square-row", (1, 0, 1)),
        # column 1 and row 2 both repeat: the lower index is named first
        ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 2, 0, 1], [3, 0, 1, 2]], "latin-square-column", (1, 1, 2)),
        # checks before the Latin square: the shape, then each entry's range
        ([[0, 1, 2], [1, 0, 2]], "shape", (2, 3)),
        ([[0, 1, 2], [1, 2, 0], [2, 0, 7]], "entry-range", (2, 2, 7)),
        ([[0, 1, 2], [1, 2, 0], [2, 0, -1]], "entry-range", (2, 2, -1)),
    ],
)
def test_validate_table_names_the_first_latin_square_failure(rows, axiom, witness):
    with pytest.raises(NotAGroupError) as info:
        validate_table(np.array(rows))
    assert (info.value.axiom, info.value.witness) == (axiom, witness)


def _first_latin_failure(rows):
    """Brute-force witness: for a = 0, 1, ... the first repeat in row a,
    then in column a, as (row, col, col) or (row, row, col)."""
    n = len(rows)
    for a in range(n):
        for line, kind in ((rows[a], "row"), ([r[a] for r in rows], "column")):
            for j in range(n):
                if line[j] in line[:j]:
                    i = line.index(line[j])
                    return f"latin-square-{kind}", (a, i, j) if kind == "row" else (i, a, j)
    return None


@pytest.mark.parametrize("rows_per_block", [1, 3, 12])
@pytest.mark.parametrize(
    "edit",
    [
        "first-row-of-block",
        "last-row-of-block",
        "column-only",
        "row-and-column-at-one-index",
    ],
)
def test_latin_square_witness_at_block_edges(monkeypatch, rows_per_block, edit):
    """The Latin test marks rows (and columns) in blocks; a duplicate at a
    block's first or last row, in a column alone, or in both a row and the
    column of the same index gets the brute-force scan's kind and witness."""
    n = 12
    monkeypatch.setattr(groups, "_BATCH_LIMIT", 8 * n * rows_per_block)
    rows = [[(a + b) % n for b in range(n)] for a in range(n)]
    if edit == "first-row-of-block":
        rows[3][7] = rows[3][2]
    elif edit == "last-row-of-block":
        rows[5][9] = rows[5][10]
    elif edit == "column-only":  # row 4 stays a permutation; columns 6 and 9 repeat
        rows[4][6], rows[4][9] = rows[4][9], rows[4][6]
    else:  # row 8 repeats, and so does column 8, which held rows[8][9] elsewhere
        rows[8][8] = rows[8][9]
    expected = _first_latin_failure(rows)
    assert expected[0] == ("latin-square-column" if edit == "column-only" else "latin-square-row")
    with pytest.raises(NotAGroupError) as info:
        validate_table(np.array(rows, dtype=np.uint8))
    assert (info.value.axiom, info.value.witness) == expected
    with pytest.raises(NotAGroupError) as info:
        validate_table(np.array(rows, dtype=np.uint8).T)
    assert (info.value.axiom, info.value.witness) == _first_latin_failure([list(c) for c in zip(*rows)])


def test_cyclic_table_is_addition_mod_n():
    G = construct("cyclic:6")
    expected = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    assert G.table.tolist() == expected


def test_dihedral3_order_count():
    G = construct("dihedral:3")
    assert G.order == 6
    assert not G.is_abelian()
    assert naive_orders(G.table.tolist()).count(2) == 3


def test_quaternion8_unique_involution():
    G = construct("quaternion:8")
    orders = naive_orders(G.table.tolist())
    assert orders.count(2) == 1
    non_central = [a for a in range(1, 8) if orders[a] == 4]
    assert len(non_central) == 6
    assert all(G.element_orders()[a] == 4 for a in non_central)


def test_pq_group_is_nonabelian_order_21():
    G = construct("sdp:7,3,2")
    assert G.order == 21
    assert not G.is_abelian()


def test_element_order_examples():
    Z12 = construct("cyclic:12")
    assert Z12.element_orders()[[0, 4]].tolist() == [1, 3]
    assert naive_order(Z12.table.tolist(), 4) == 3
    D6 = construct("dihedral:3")
    assert D6.element_orders()[0] == 1


def test_element_order_matches_naive_oracle():
    for spec in ("dihedral:6", "quaternion:16", "heisenberg:3", "sdp:7,3,2"):
        G = construct(spec)
        assert G.element_orders().tolist() == naive_orders(G.table.tolist())


def test_element_orders_match_the_power_map_sweep():
    """Orders read off the least-generator walk equal the power-map sweep on
    relabelled tables, on a large exponent and on many small cyclic subgroups."""
    groups = [
        Group(relabel(construct(spec).table, seed))
        for spec in ("dihedral:12", "sdp:7,3,2", "quaternion:16", "heisenberg:3", "abelian:2,4,8")
        for seed in range(3)
    ]
    groups += [construct("dihedral:1000"), construct("abelian:2,2,2,2,2,2,2,2")]
    for G in groups:
        orders = G.element_orders()
        assert orders.dtype == np.int64 and not orders.flags.writeable
        assert np.array_equal(orders, power_map_orders(G.table)), G


def test_inverses_read_off_the_walk():
    """Every a times its inverse read off the least-generator walk is the
    identity, in the table's dtype and read-only, on relabelled tables too."""
    groups = [
        Group(relabel(construct(spec).table, seed))
        for spec in ("cyclic:1", "dihedral:12", "sdp:7,3,2", "quaternion:16", "abelian:2,4,8")
        for seed in range(2)
    ]
    groups += [construct("cyclic:300"), construct("product:(dihedral:15)x(cyclic:4)")]
    for G in groups:
        inv = G.inverses()
        assert inv.dtype == G.table.dtype and not inv.flags.writeable
        assert not G.table[np.arange(G.order), inv].any(), G


@pytest.mark.parametrize("first", ["least_generators", "element_orders", "inverses"])
def test_one_walk_serves_generators_orders_and_inverses(first, monkeypatch):
    """Whichever of the three readers a fresh group meets first, they all read
    one least-generator walk."""
    walk, walks = groups._least_generators, []

    def counting(table):
        walks.append(table)
        return walk(table)

    monkeypatch.setattr(groups, "_least_generators", counting)
    G = construct("dihedral:6")
    getattr(G, first)()
    G.least_generators(), G.element_orders(), G.inverses()
    assert len(walks) == 1


def test_element_order_divides_group_order():
    for spec in ALL_FAMILY_SPECS:
        G = construct(spec)
        assert all(G.order % int(o) == 0 for o in G.element_orders())


def test_exponent_examples():
    assert construct("cyclic:15").exponent() == 15
    assert construct("abelian:2,2").exponent() == 2
    D6 = construct("dihedral:3")
    assert D6.exponent() == 6
    assert 6 not in D6.element_orders()


def test_is_cyclic_examples():
    """The summary's cyclic flag, read off the lattice, against an element of order |G|."""
    for spec, cyclic in [("cyclic:6", True), ("abelian:2,2", False), ("dihedral:3", False)]:
        G = construct(spec)
        assert summarize(G).cyclic == (G.order in naive_orders(G.table.tolist())) == cyclic, spec
    # exponent equals the order here, yet no element of order 6 exists
    assert construct("dihedral:3").exponent() == 6


def test_is_abelian_examples():
    assert construct("cyclic:8").is_abelian()
    assert not construct("dihedral:4").is_abelian()
    H = construct("heisenberg:3")
    assert not H.is_abelian()
    # the two generating translations do not commute
    x, y = 9, 3  # (a,b,c) = (1,0,0) and (0,1,0) at p = 3
    assert H.table[x, y] != H.table[y, x]


@pytest.mark.parametrize(
    "spec", ["cyclic:1500", "dihedral:300", "product:(dihedral:3)x(cyclic:200)"]
)
def test_is_abelian_above_one_tile(spec):
    t = construct(spec).table
    assert len(t) > 512
    assert construct(spec).is_abelian() == bool(np.array_equal(t, t.T))


@pytest.mark.parametrize("row,col", [(1098, 1099), (1, 1099), (1099, 600)])
def test_is_abelian_sees_one_asymmetric_entry(row, col):
    # not a group table: 512-tiles at 0, 512 and 1024, and one entry off
    # the symmetric pattern, in a diagonal or an off-diagonal tile
    n = 1100
    t = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    assert Group(t).is_abelian()
    t[row, col] = (t[row, col] + 1) % n
    assert not Group(t).is_abelian()


def test_abelian_invariants_examples():
    """Summaries of abelian groups built three ways equal Birkhoff's counts
    for their primary parts (perfbench/oracles.py)."""
    for spec, parts in [("cyclic:12", (3, 4)), ("abelian:2,2", (2, 2)), ("abelian:2,4,8", (2, 4, 8))]:
        assert summary_fields(summarize(construct(spec))) == abelian_expected(parts), spec
    P = construct("product:(cyclic:4)x(cyclic:2)")
    assert summary_fields(summarize(P)) == abelian_expected((2, 4))
    assert AbelianType((2, 2)).max_rank() == 2


@pytest.mark.parametrize(
    "parts",
    [(2,), (4,), (2, 2), (2, 4), (8, 8), (2, 2, 2, 4), (3, 3), (9, 27), (2, 3), (4, 3, 5), (2, 2, 9)],
)
def test_abelian_invariants_round_trip(parts):
    G = construct(GroupSpec("abelian", tuple(parts)))
    assert summary_fields(summarize(G)) == abelian_expected(tuple(parts))


def test_every_abelian_type_to_order_256_matches_birkhoff():
    """All seven summary fields of every abelian type of order 2..256 equal
    Birkhoff's closed forms, which share no code with the enumerator.  The
    rank-8 elementary abelian group (417199 subgroups) is the largest."""
    specs = abelian_type_specs(256)
    assert len(specs) == 515
    for spec in specs:
        assert summary_fields(summarize(construct(spec))) == abelian_expected(spec.params), spec


@pytest.mark.parametrize("m,n,count", [(2, 2, 5), (4, 6, 16), (12, 18, 80), (8, 8, 37), (9, 15, 20)])
def test_subgroups_of_two_cyclic_factors_are_a_gcd_sum(m, n, count):
    """Z_m x Z_n has sum_{a | m, b | n} gcd(a, b) subgroups (Hampejs,
    Holighaus, Toth and Wiesmeyr, 2014)."""
    G = construct(f"product:(cyclic:{m})x(cyclic:{n})")
    assert sum(math.gcd(a, b) for a in divisors(m) for b in divisors(n)) == count
    assert summarize(G).subgroup_count == count


def test_integer_log_is_exact_on_large_powers():
    assert integer_log(2**60, 2) == 60
    assert integer_log(3**40, 3) == 40
    assert integer_log(1, 7) == 0


# round(math.log(3**40 - 1, 3)) is 40: a float logarithm cannot tell these apart
@pytest.mark.parametrize("n,p", [(2**60 + 1, 2), (3**40 - 1, 3), (12, 2), (6, 3), (0, 2), (8, 1)])
def test_integer_log_rejects_non_powers(n, p):
    with pytest.raises(ValueError):
        integer_log(n, p)


def test_direct_product_identity_factor():
    G = construct("dihedral:3")
    P = direct_product([construct("cyclic:1"), G])
    assert P.order == G.order
    assert P.table.tolist() == G.table.tolist()


def test_direct_product_klein():
    P = direct_product([construct("cyclic:2"), construct("cyclic:2")])
    assert P.order == 4
    assert P.exponent() == 2


def test_direct_product_coprime_cyclic_is_cyclic():
    P = direct_product([construct("cyclic:4"), construct("cyclic:9")])
    assert P.order == 36
    assert 36 in naive_orders(P.table.tolist())
    assert P.exponent() == 36


def test_direct_product_empty_rejected():
    with pytest.raises(InvalidParameterError):
        direct_product([])


def test_order_cap_enforced():
    with pytest.raises(OrderOverflowError):
        construct("cyclic:100", max_order=99)
    with pytest.raises(OrderOverflowError):
        direct_product([construct("cyclic:50"), construct("cyclic:50")], max_order=100)


@pytest.mark.parametrize(
    "bad",
    [
        "dihedral:1",
        "quaternion:4",
        "quaternion:12",
        "semidihedral:8",
        "modular:2,3",  # coincides with the order-8 dihedral group: excluded
        "modular:4,3",
        "heisenberg:2",
        "heisenberg:4",
        "sdp:6,2,5",  # gcd(n, p) != 1
        "sdp:7,3,3",  # t**p != 1 mod n
        "sdp:7,3,1",  # trivial action
        "abelian:6",  # 6 is not a prime power
        "cyclic:0",
        "modular:3",  # too few parameters: the count is checked before the order is read
        "sdp:7",
        "product:(modular:3)x(cyclic:2)",
    ],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(InvalidParameterError):
        construct(bad)


def test_spec_string_round_trip():
    for text in ALL_FAMILY_SPECS:
        spec = parse_spec(text)
        assert parse_spec(str(spec)) == spec
        assert construct(spec).order == spec.order()


def test_spec_string_canonicalizes_abelian_parts():
    assert str(parse_spec("abelian:4,2,2")) == "abelian:2,2,4"


def test_nested_product_spec():
    spec = parse_spec("product:(product:(cyclic:2)x(cyclic:3))x(cyclic:5)")
    assert construct(spec).order == 30


@pytest.mark.parametrize(
    "bad",
    [
        "nosuch:3",
        "cyclic",
        "cyclic:x",
        "product:(cyclic:2",
        "product:",
        "product:(cyclic:2)x",
        "product:(cyclic:2)x(cyclic:3)x",
    ],
)
def test_malformed_specs_rejected(bad):
    with pytest.raises(InvalidParameterError):
        parse_spec(bad)


def test_order_count_divisible_by_integer_totient():
    from grouptotient import euler_phi

    for spec in ("cyclic:24", "dihedral:9", "quaternion:16", "sdp:7,3,2", "heisenberg:3"):
        G = construct(spec)
        orders = G.element_orders().tolist()
        for d in set(orders):
            assert orders.count(d) % euler_phi(d) == 0


def test_dihedral_coincides_with_inverting_semidirect_action():
    """For odd n the dihedral group is the semidirect product of its
    rotation subgroup by the inverting involution, with identical
    canonical indexing."""
    for n in (3, 9, 15):
        A = construct(f"sdp:{n},2,{n - 1}")
        B = construct(f"dihedral:{n}")
        assert A.table.tolist() == B.table.tolist()


def test_group_rejects_non_square_table():
    with pytest.raises(InvalidParameterError):
        Group(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(InvalidParameterError, match="element indices"):
        Group(np.array([[0, 1], [1, 5]]))


@pytest.mark.parametrize(
    "table",
    [np.array([[0, 1], [1, 0.5]]), np.array([[False, True], [True, False]])],
    ids=["float64", "bool"],
)
def test_non_integer_tables_are_rejected(table):
    """0.5 would be truncated to index 0, making Z2 of this float table, and
    a bool table would be read as indices 0 and 1."""
    for check in (validate_table, Group):
        with pytest.raises(InvalidParameterError, match=f"got dtype {table.dtype}"):
            check(table)


def test_abelian_type_validation():
    with pytest.raises(InvalidParameterError):
        AbelianType((6,))
    t = AbelianType((9, 2, 3))
    assert t.parts == (2, 3, 9)
    assert t.max_rank() == 2
    assert AbelianType((2, 3)).max_rank() == 1
    assert AbelianType((2, 4, 3, 9, 27)).max_rank() == 3
