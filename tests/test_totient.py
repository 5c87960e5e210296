"""Group totients, Gauss sums, closed forms, and the decomposition search."""

import pytest

from grouptotient import (
    InvalidParameterError,
    MixedPrimesError,
    abelian_p_group_totient,
    all_subgroups,
    complements,
    construct,
    cyclic_totient_sum,
    dihedral_gauss_sum,
    dihedral_totient,
    euler_phi,
    factorize,
    fixed_point_free_decomposition,
    gauss_sum,
    group_totient,
    semidirect_gauss_sum,
    summarize,
    two_group_gauss_sum,
)
from grouptotient.lattice import DEFAULT_MAX_SUBGROUPS, _sweep
from naive_oracles import as_group, naive_gauss_sum, naive_phi, naive_subgroup_phi
from test_lattice_batching import _subgroups


def s_of(spec):
    G = construct(spec)
    return gauss_sum(all_subgroups(G))


def test_group_totient_examples():
    assert group_totient(construct("cyclic:12")) == euler_phi(12) == 4
    assert group_totient(construct("dihedral:3")) == 0
    assert group_totient(construct("abelian:2,2")) == 3


def test_group_totient_equals_classical_on_cyclic():
    for n in (1, 2, 7, 12, 36, 100):
        assert group_totient(construct(f"cyclic:{n}")) == euler_phi(n)


def test_group_totient_matches_naive():
    for spec in ("quaternion:16", "semidihedral:16", "heisenberg:3", "sdp:7,3,2", "modular:3,3"):
        G = construct(spec)
        assert group_totient(G) == naive_phi(G.table.tolist())


def test_subgroup_totient_uses_parent_orders():
    """The lattice's totients, counted from the parent's element orders,
    equal direct counts on each subgroup as a group of its own."""
    G = construct("dihedral:6")
    L = all_subgroups(G)
    for H, t in zip(_subgroups(L), L.totients.tolist()):
        induced = as_group(H)
        assert t == naive_phi(induced.table.tolist())
    assert summarize(G).phi == L.totients[-1] == naive_phi(G.table.tolist())


def test_gauss_sum_golden_values():
    assert s_of("abelian:2,2") == 7
    assert s_of("dihedral:6") == 23
    assert s_of("quaternion:8") == 14
    assert s_of("dihedral:4") == 16
    assert s_of("semidihedral:16") == 34
    assert s_of("sdp:7,3,2") == 21


def test_gauss_sum_cyclic_equals_order():
    for n in (1, 2, 5, 12, 30, 64, 100):
        assert s_of(f"cyclic:{n}") == n


def test_gauss_sum_matches_naive():
    for spec in ("dihedral:6", "quaternion:16", "modular:2,4", "heisenberg:3", "abelian:2,4"):
        G = construct(spec)
        assert gauss_sum(all_subgroups(G)) == naive_gauss_sum(G.table.tolist())


def test_cyclic_sum_equals_order():
    for spec in ("cyclic:10", "dihedral:4", "quaternion:8", "heisenberg:3", "sdp:7,3,2"):
        G = construct(spec)
        assert cyclic_totient_sum(G) == G.order


def test_gauss_sum_lower_bound():
    for spec in ("abelian:2,2", "dihedral:5", "quaternion:32", "modular:3,4", "heisenberg:5"):
        G = construct(spec)
        assert gauss_sum(all_subgroups(G)) >= cyclic_totient_sum(G) == G.order


def test_abelian_p_group_totient_closed_form():
    assert abelian_p_group_totient((8,)) == euler_phi(8)
    assert abelian_p_group_totient((2, 2)) == 3
    assert abelian_p_group_totient((2, 4)) == 4
    for parts in [(2, 2), (2, 4), (2, 2, 2), (4, 4), (3, 3), (3, 9), (2, 2, 4), (9, 9, 3)]:
        G = construct("abelian:" + ",".join(map(str, parts)))
        assert abelian_p_group_totient(parts) == group_totient(G), parts


def test_abelian_p_group_totient_rejects_mixed_primes():
    with pytest.raises(MixedPrimesError):
        abelian_p_group_totient((2, 3))


def test_dihedral_totient_closed_form():
    assert dihedral_totient(1) == 1
    assert dihedral_totient(2) == 3  # direct count; see the recorded discrepancy note
    assert dihedral_totient(5) == 0
    assert dihedral_totient(6) == euler_phi(6) == 2
    for n in range(2, 30):
        assert dihedral_totient(n) == group_totient(construct(f"dihedral:{n}")), n


def test_dihedral_gauss_sum_closed_form():
    assert dihedral_gauss_sum(5) == 10
    assert dihedral_gauss_sum(6) == 23
    assert dihedral_gauss_sum(4) == 16
    assert dihedral_gauss_sum(2) == 7  # Klein four-group
    for n in range(2, 30):
        assert dihedral_gauss_sum(n) == s_of(f"dihedral:{n}"), n


def test_two_group_gauss_sum_closed_forms():
    assert two_group_gauss_sum("D", 4) == 36
    assert two_group_gauss_sum("Q", 3) == 14
    assert two_group_gauss_sum("SD", 4) == 34
    for n in range(3, 8):
        assert two_group_gauss_sum("D", n) == s_of(f"dihedral:{2 ** (n - 1)}"), n
        assert two_group_gauss_sum("Q", n) == s_of(f"quaternion:{2 ** n}"), n
        if n >= 4:
            assert two_group_gauss_sum("SD", n) == s_of(f"semidihedral:{2 ** n}"), n


def test_two_group_gauss_sum_domain():
    with pytest.raises(InvalidParameterError):
        two_group_gauss_sum("D", 2)
    with pytest.raises(InvalidParameterError):
        two_group_gauss_sum("Q", 2)
    with pytest.raises(InvalidParameterError):
        two_group_gauss_sum("SD", 3)
    with pytest.raises(InvalidParameterError):
        two_group_gauss_sum("X", 4)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: dihedral_totient(0), InvalidParameterError),
        (lambda: dihedral_gauss_sum(1), InvalidParameterError),
        (lambda: abelian_p_group_totient(()), InvalidParameterError),
        (lambda: factorize(0), ValueError),
        (lambda: euler_phi(0), ValueError),
    ],
)
def test_closed_forms_refuse_arguments_outside_their_domain(call, error):
    with pytest.raises(error):
        call()


def test_semidirect_gauss_sum():
    assert semidirect_gauss_sum(7, 3, 7) == 21
    assert semidirect_gauss_sum(5, 2, 5) == 10
    for n, p in [(7, 3), (5, 2), (13, 3)]:
        assert semidirect_gauss_sum(n, p, n) == n * p
    with pytest.raises(InvalidParameterError):
        semidirect_gauss_sum(6, 2, 6)  # gcd(n, p) != 1
    with pytest.raises(InvalidParameterError):
        semidirect_gauss_sum(5, 2, 0)  # no complement


def test_dihedral_gauss_sum_exact_rational_arithmetic():
    # n = 12 = 2^2 * 3: 3n + (kn/2)(a+1-a/p) = 36 + 12 * (5/3) = 56
    assert dihedral_gauss_sum(12) == 56
    assert s_of("dihedral:12") == 56


def test_dihedral_gauss_sum_equals_the_rational_product():
    """The integer evaluation equals 3n + (kn/2) * prod(a + 1 - a/p), taken
    in rationals, for every n from 2 to 5000 (2n for odd n)."""
    from fractions import Fraction

    for n in range(2, 5001):
        m, k = n, 0
        while m % 2 == 0:
            m, k = m // 2, k + 1
        product, p = Fraction(1), 3
        while m > 1:  # trial division of the odd part
            a = 0
            while m % p == 0:
                m, a = m // p, a + 1
            product *= a + 1 - Fraction(a, p)
            p = p + 2 if p * p <= m else m
        expected = 3 * n + Fraction(k * n, 2) * product if k else Fraction(2 * n)
        assert expected.denominator == 1 and dihedral_gauss_sum(n) == expected, n


def test_fixed_point_free_decomposition_examples():
    D18 = construct("dihedral:9")
    w = fixed_point_free_decomposition(all_subgroups(D18))
    assert w is not None
    N, H, p, _ = w
    assert (N.order, H.order, p) == (9, 2, 2)

    Z12 = construct("cyclic:12")
    assert fixed_point_free_decomposition(all_subgroups(Z12)) is None

    G21 = construct("sdp:7,3,2")
    w = fixed_point_free_decomposition(all_subgroups(G21))
    assert w is not None
    N, H, p, _ = w
    assert (N.order, H.order, p) == (7, 3, 3)


def test_fixed_point_free_decomposition_absent_for_even_dihedral():
    for n in (4, 6, 8):
        G = construct(f"dihedral:{n}")
        assert fixed_point_free_decomposition(all_subgroups(G)) is None


def test_theorem8_formula_and_criterion():
    for spec in ("dihedral:9", "dihedral:15", "sdp:7,3,2", "sdp:13,3,3"):
        G = construct(spec)
        L = all_subgroups(G)
        N, H, p, found = fixed_point_free_decomposition(L)
        assert found == complements(L, N) and H in found
        count = len(found)
        s = gauss_sum(L)
        assert s == semidirect_gauss_sum(N.order, p, count)
        assert (s == N.order * p) == (count == N.order)


def test_inclusion_exclusion_identity():
    from grouptotient import inclusion_exclusion_residual

    for spec in ("modular:2,4", "modular:3,3", "dihedral:8", "quaternion:16", "semidihedral:16"):
        G = construct(spec)
        lhs, rhs = inclusion_exclusion_residual(all_subgroups(G))
        assert lhs == rhs, spec


@pytest.mark.parametrize("spec", ["cyclic:6", "cyclic:1", "dihedral:3"])
def test_inclusion_exclusion_needs_a_prime_power_order(spec):
    from grouptotient import NotPrimePowerError, inclusion_exclusion_residual

    G = construct(spec)
    with pytest.raises(NotPrimePowerError, match="not a prime power"):
        inclusion_exclusion_residual(all_subgroups(G))


def test_summarize_golden_records():
    s = summarize(construct("abelian:2,2"))
    assert (s.group_order, s.phi, s.s_value, s.cyclic_sum, s.subgroup_count) == (4, 3, 7, 4, 5)
    assert not s.in_class_c and s.nilpotent and not s.cyclic

    s = summarize(construct("cyclic:6"))
    assert (s.group_order, s.phi, s.s_value, s.subgroup_count) == (6, 2, 6, 4)
    assert s.in_class_c and s.cyclic

    s = summarize(construct("sdp:7,3,2"))
    assert s.group_order == 21 and s.s_value == 21 and s.in_class_c
    assert s.phi == 0 and not s.nilpotent


def test_class_membership_vanishing_totient_characterization():
    """Membership is equivalent to the totient vanishing on every
    non-cyclic subgroup, both directions checked by enumeration."""
    from grouptotient import subgroup_is_cyclic

    for spec in ("cyclic:24", "dihedral:9", "dihedral:6", "abelian:2,2", "sdp:7,3,2", "quaternion:8"):
        G = construct(spec)
        L = all_subgroups(G)
        s = gauss_sum(L)
        table = G.table.tolist()
        vanishing = all(
            naive_subgroup_phi(table, H.members.tolist()) == 0
            for H in _subgroups(L)
            if not subgroup_is_cyclic(H)
        )
        assert (s == G.order) == vanishing, spec


def test_nonabelian_order_p_cubed_exceeds_order():
    # both isomorphism classes of non-abelian groups of order p^3, small p
    for spec in ("dihedral:4", "quaternion:8", "heisenberg:3", "modular:3,3", "heisenberg:5", "modular:5,3"):
        G = construct(spec)
        assert not G.is_abelian()
        assert gauss_sum(all_subgroups(G)) > G.order, spec


def test_multiplicativity_over_coprime_orders():
    pairs = [("cyclic:4", "cyclic:9"), ("abelian:2,2", "cyclic:3"), ("quaternion:8", "abelian:3,3"), ("dihedral:3", "cyclic:25")]
    for a, b in pairs:
        Ga, Gb = construct(a), construct(b)
        prod = construct(f"product:({a})x({b})")
        # the product's own sweep: all_subgroups would build its lattice from the factors'
        assert gauss_sum(_sweep(prod, DEFAULT_MAX_SUBGROUPS)) == s_of(a) * s_of(b)
        assert group_totient(prod) == group_totient(Ga) * group_totient(Gb)


def test_trivial_group_summary():
    s = summarize(construct("cyclic:1"))
    assert (s.group_order, s.phi, s.s_value, s.subgroup_count) == (1, 1, 1, 1)
    assert s.in_class_c and s.cyclic and s.nilpotent
