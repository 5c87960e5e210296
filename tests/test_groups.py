"""Construction, element orders, exponents, and abelian invariants."""

import numpy as np
import pytest

from grouptotient import (
    AbelianType,
    Group,
    GroupSpec,
    IndexOutOfRangeError,
    InvalidParameterError,
    NotAbelianError,
    NotAGroupError,
    OrderOverflowError,
    construct,
    direct_product,
    parse_spec,
    validate_table,
)
from grouptotient.groups import _product_table
from grouptotient.numtheory import integer_log
from naive_oracles import naive_orders, power_map_orders, relabel
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
    ],
)
def test_validate_table_names_the_first_latin_square_failure(rows, axiom, witness):
    with pytest.raises(NotAGroupError) as info:
        validate_table(np.array(rows))
    assert (info.value.axiom, info.value.witness) == (axiom, witness)


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
    assert all(G.element_order(a) == 4 for a in non_central)


def test_pq_group_is_nonabelian_order_21():
    G = construct("sdp:7,3,2")
    assert G.order == 21
    assert not G.is_abelian()


def test_element_order_examples():
    Z12 = construct("cyclic:12")
    assert Z12.element_order(0) == 1
    assert Z12.element_order(4) == 3
    D6 = construct("dihedral:3")
    assert D6.element_order(0) == 1


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


def test_element_order_divides_group_order():
    for spec in ALL_FAMILY_SPECS:
        G = construct(spec)
        assert all(G.order % int(o) == 0 for o in G.element_orders())


def test_element_order_index_error():
    G = construct("cyclic:6")
    with pytest.raises(IndexOutOfRangeError):
        G.element_order(6)
    with pytest.raises(IndexOutOfRangeError):
        G.element_order(-1)


def test_exponent_examples():
    assert construct("cyclic:15").exponent() == 15
    assert construct("abelian:2,2").exponent() == 2
    D6 = construct("dihedral:3")
    assert D6.exponent() == 6
    assert 6 not in D6.element_orders()


def test_is_cyclic_examples():
    assert construct("cyclic:6").is_cyclic()
    assert not construct("abelian:2,2").is_cyclic()
    # exponent equals the order here, yet no element of order 6 exists
    assert not construct("dihedral:3").is_cyclic()


def test_is_abelian_examples():
    assert construct("cyclic:8").is_abelian()
    assert not construct("dihedral:4").is_abelian()
    H = construct("heisenberg:3")
    assert not H.is_abelian()
    # the two generating translations do not commute
    x, y = 9, 3  # (a,b,c) = (1,0,0) and (0,1,0) at p = 3
    assert H.mult(x, y) != H.mult(y, x)


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
    assert construct("cyclic:12").abelian_invariants().parts == (3, 4)
    K = construct("abelian:2,2")
    t = K.abelian_invariants()
    assert t.parts == (2, 2)
    assert t.rank(2) == 2
    assert construct("abelian:2,4,8").abelian_invariants().parts == (2, 4, 8)


@pytest.mark.parametrize(
    "parts",
    [(2,), (4,), (2, 2), (2, 4), (8, 8), (2, 2, 2, 4), (3, 3), (9, 27), (2, 3), (4, 3, 5), (2, 2, 9)],
)
def test_abelian_invariants_round_trip(parts):
    spec = GroupSpec("abelian", tuple(parts))
    G = construct(spec)
    assert G.abelian_invariants().parts == tuple(sorted(parts))


def test_abelian_invariants_rejects_nonabelian():
    with pytest.raises(NotAbelianError):
        construct("dihedral:3").abelian_invariants()


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
    assert P.is_cyclic()
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


def test_abelian_type_validation():
    with pytest.raises(InvalidParameterError):
        AbelianType((6,))
    t = AbelianType((9, 2, 3))
    assert t.parts == (2, 3, 9)
    assert t.order() == 54
    assert t.rank(3) == 2
    assert not t.is_cyclic()
    assert AbelianType((2, 3)).is_cyclic()


def test_power_including_negative_exponents():
    G = construct("dihedral:6")
    for a in range(G.order):
        o = G.element_order(a)
        assert G.power(a, 0) == 0
        assert G.power(a, o) == 0
        assert G.power(a, 5) == G.power(a, 5 % o) if o <= 5 else True
        assert G.mult(G.power(a, -1), a) == 0
        assert G.power(a, -3) == G.power(G.inverse(a), 3)
