"""Lattice sizes and maximal-subgroup counts at the scale edge against
closed-form and published counts, and Gauss sums of A5 and S4 against
their subgroup classes.

The expected counts come from formulas evaluated here by trial division
and plain integer arithmetic; nothing is imported from the library's
number theory, so the oracle shares no code with the enumerator.
"""

import numpy as np
import pytest

from collections import Counter

from grouptotient import (
    Group,
    all_subgroups,
    construct,
    dihedral_gauss_sum,
    dihedral_totient,
    gauss_sum,
    maximal_subgroups,
    read_permutation_generators,
    summarize,
    two_group_gauss_sum,
)
from grouptotient.groups import _least_generators
from naive_oracles import naive_closure, relabel
from test_lattice_batching import _subgroups


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _prime_divisors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def _gaussian_binomial(r, k, p):
    num = den = 1
    for i in range(k):
        num *= p ** (r - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _galois_number(r, p):
    """Number of subspaces of F_p^r, i.e. subgroups of the elementary abelian p^r."""
    return sum(_gaussian_binomial(r, k, p) for k in range(r + 1))


def _cycle(degree, points):
    perm = list(range(degree))
    for i, a in enumerate(points):
        perm[a] = points[(i + 1) % len(points)]
    return perm


def _psl2_7():
    """PSL(2,7) on the projective line over F_7 (point 7 is infinity):
    x -> x + 1 and x -> -1/x."""
    t = [(x + 1) % 7 for x in range(7)] + [7]
    s = [7] + [(-pow(x, 5, 7)) % 7 for x in range(1, 7)] + [0]
    return [t, s]


PERMUTATION_GROUPS = {
    "a5": (5, [_cycle(5, [0, 1, 2, 3, 4]), _cycle(5, [0, 1, 2])]),
    "psl2_7": (8, _psl2_7()),
    "s6": (6, [_cycle(6, [0, 1, 2, 3, 4, 5]), _cycle(6, [0, 1])]),
    "s5": (5, [_cycle(5, [0, 1, 2, 3, 4]), _cycle(5, [0, 1])]),
    "s4": (4, [_cycle(4, [0, 1, 2, 3]), _cycle(4, [0, 1])]),
}


def permutation_group(tmp_path, name):
    degree, gens = PERMUTATION_GROUPS[name]
    path = tmp_path / f"{name}.gens"
    path.write_text(f"{degree}\n" + "\n".join(" ".join(map(str, g)) for g in gens) + "\n")
    return read_permutation_generators(path)


def test_formula_helpers():
    assert [len(_divisors(n)) for n in (1, 12, 300)] == [1, 6, 18]
    assert [_prime_divisors(n) for n in (1, 12, 300, 97)] == [[], [2, 3], [2, 3, 5], [97]]
    assert _galois_number(7, 2) == 29212
    assert _galois_number(4, 3) == 212
    assert _galois_number(8, 2) == 417199


def test_cyclic_lattice_sizes_are_divisor_counts():
    # Z_n has d(n) subgroups, and one maximal subgroup of index p per prime p | n
    for n in range(1, 301):
        L = all_subgroups(construct(f"cyclic:{n}"))
        assert len(L) == len(_divisors(n)), n
        assert len(maximal_subgroups(L)) == len(_prime_divisors(n)), n


def test_dihedral_lattice_sizes_follow_cavior():
    # the dihedral group of order 2n has d(n) + sigma(n) subgroups (Cavior 1975);
    # its maximal subgroups are the rotations and, for each prime p | n, the p
    # dihedral subgroups of index p; the family starts at n = 2
    for n in range(2, 201):
        divs = _divisors(n)
        L = all_subgroups(construct(f"dihedral:{n}"))
        assert len(L) == len(divs) + sum(divs), n
        assert len(maximal_subgroups(L)) == 1 + sum(_prime_divisors(n)), n


@pytest.mark.parametrize("n", [720, 999, 1000, 1024, 2000, 2310, 4000])
def test_dihedral_closed_forms_at_the_scale_edge(n):
    # orders 1440 to 8000: Cavior's count and the paper's closed forms for
    # the totient and the Gauss sum, against the enumerated lattice; the
    # group is in the class exactly for odd n (Theorem 7) and nilpotent
    # exactly when n is a power of 2, here n = 1024 alone
    divs = _divisors(n)
    summary = summarize(construct(f"dihedral:{n}"))
    assert summary.subgroup_count == len(divs) + sum(divs)
    assert summary.phi == dihedral_totient(n)
    assert summary.s_value == dihedral_gauss_sum(n)
    assert summary.in_class_c == (n % 2 == 1)
    assert summary.nilpotent == (n == 1024)


@pytest.mark.parametrize("family,spec", [("D", "dihedral:2048"), ("Q", "quaternion:4096"), ("SD", "semidihedral:4096")])
def test_two_group_gauss_sums_at_order_4096(family, spec):
    assert summarize(construct(spec)).s_value == two_group_gauss_sum(family, 12)


@pytest.mark.parametrize("p,r", [(2, 7), (3, 4)])
def test_elementary_abelian_lattice_sizes_are_galois_numbers(p, r):
    G = construct("abelian:" + ",".join([str(p)] * r))
    assert len(all_subgroups(G)) == _galois_number(r, p)


# maximal subgroups by order, from the ATLAS of Finite Groups (Conway et al.,
# 1985): A5 has 21, PSL(2,7) 22 and S6 53
ATLAS_MAXIMAL = {
    "a5": {12: 5, 10: 6, 6: 10},
    "psl2_7": {24: 14, 21: 8},
    "s6": {360: 1, 120: 12, 72: 10, 48: 30},
}


@pytest.mark.parametrize(
    "name,order,count", [("psl2_7", 168, 179), ("s6", 720, 1455), ("a5", 60, 59)]
)
def test_nonsolvable_lattice_sizes(tmp_path, name, order, count):
    G = permutation_group(tmp_path, name)
    assert G.order == order
    L = all_subgroups(G)
    assert len(L) == count
    assert Counter(M.order for M in maximal_subgroups(L)) == ATLAS_MAXIMAL[name]


@pytest.mark.parametrize(
    "spec",
    [
        "cyclic:12",
        "abelian:2,4",
        "dihedral:6",
        "quaternion:8",
        "heisenberg:3",
        "sdp:7,3,2",
        "dihedral:150",
        "relabelled heisenberg:3",
    ],
)
def test_least_generators_match_brute_force(spec):
    """dihedral:150 (order 300) walks a uint16 table; a relabelled table has
    least generators that are not the least non-identity members."""
    if spec.startswith("relabelled "):
        G = Group(relabel(construct(spec.split()[1]).table, seed=3))
    else:
        G = construct(spec)
    assert G.table.dtype == (np.uint16 if spec == "dihedral:150" else np.uint8)
    table = G.table.tolist()
    cyclic = [naive_closure(table, [a]) for a in range(len(table))]
    expected = {min(b for b in range(len(table)) if cyclic[b] == C) for C in cyclic}
    got = _least_generators(G.table)[0]
    assert set(got) == expected
    for a, powers in got.items():
        assert all(type(x) is int for x in powers), a
        assert powers == [a] + [table[x][a] for x in powers[:-1]], a
        assert powers[-1] == 0 and frozenset(powers) == cyclic[a]


# (order, subgroups, totient of each) by subgroup class, derived by hand.
# A5: trivial, 15 involutions, 10 C3, 5 V4, 6 C5, 10 S3, 6 D10, 5 A4, A5.
# S4: trivial, 9 C2, 4 C3, 3 C4, 4 V4 (the normal one and a class of 3),
# 4 S3, 3 D8, A4, S4.
# S5: trivial, 25 C2 (10 by transpositions, 15 by double transpositions),
# 10 C3, 15 C4, 20 V4 (5 normal in an S4, 15 such as <(12), (34)>), 6 C5,
# 10 C6 = <(123)(45)>, 20 S3 (10 on three points, 10 twisted such as
# <(123), (12)(45)>), 15 D8, 6 D10, 5 A4, 10 S3 x C2, 6 F20, 5 S4, A5, S5.
# PSL(2,7): trivial, 21 C2, 28 C3, 21 C4, 14 V4 (two classes of 7),
# 28 S3, 8 C7, 21 D8, 14 A4 (two classes of 7), 8 C7:C3, 14 S4 (two
# classes of 7), PSL(2,7).
# A totient counts the elements whose order is the exponent: 3 in V4, 2 in
# C6, D8 and S3 x C2, and none in S3, D10, A4, F20, C7:C3, S4 or a
# non-abelian simple group.  Classes of one order and totient share a row.
SUBGROUP_CLASS_TABLES = {
    "a5": [(1, 1, 1), (2, 15, 1), (3, 10, 2), (4, 5, 3), (5, 6, 4), (6, 10, 0), (10, 6, 0),
           (12, 5, 0), (60, 1, 0)],
    "s4": [(1, 1, 1), (2, 9, 1), (3, 4, 2), (4, 3, 2), (4, 4, 3), (6, 4, 0), (8, 3, 2),
           (12, 1, 0), (24, 1, 0)],
    "s5": [(1, 1, 1), (2, 25, 1), (3, 10, 2), (4, 15, 2), (4, 20, 3), (5, 6, 4), (6, 10, 2),
           (6, 20, 0), (8, 15, 2), (10, 6, 0), (12, 5, 0), (12, 10, 2), (20, 6, 0), (24, 5, 0),
           (60, 1, 0), (120, 1, 0)],
    "psl2_7": [(1, 1, 1), (2, 21, 1), (3, 28, 2), (4, 21, 2), (4, 14, 3), (6, 28, 0), (7, 8, 6),
               (8, 21, 2), (12, 14, 0), (21, 8, 0), (24, 14, 0), (168, 1, 0)],
}


@pytest.mark.parametrize(
    "name,count,s_value", [("a5", 59, 75), ("s4", 30, 42), ("s5", 156, 230), ("psl2_7", 179, 252)]
)
def test_nonabelian_gauss_sums_from_subgroup_class_tables(tmp_path, name, count, s_value):
    rows = SUBGROUP_CLASS_TABLES[name]
    assert sum(c for _, c, _ in rows) == count
    assert sum(c * phi for _, c, phi in rows) == s_value
    G = permutation_group(tmp_path, name)
    L = all_subgroups(G)
    assert Counter(zip((H.order for H in _subgroups(L)), L.totients.tolist())) == {
        (order, phi): c for order, c, phi in rows
    }
    summary = summarize(G)
    assert (len(L), gauss_sum(L)) == (summary.subgroup_count, summary.s_value) == (count, s_value)
    assert summary.phi == rows[-1][2] and not summary.cyclic
