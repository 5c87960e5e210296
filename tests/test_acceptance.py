"""Acceptance criteria: every numeric claim checked exactly, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
All comparisons are exact integer equalities; no tolerances anywhere.
"""

import numpy as np
import pytest

from grouptotient import (
    NotAGroupError,
    all_subgroups,
    complements,
    construct,
    cyclic_totient_sum,
    dihedral_gauss_sum,
    gauss_sum,
    inclusion_exclusion_residual,
    pq_group_spec,
    read_permutation_generators,
    run_scan,
    run_suite,
    subgroup_is_cyclic,
    two_group_gauss_sum,
    verify_classical_gauss,
    write_cayley_table,
    read_cayley_table,
)
from grouptotient.verify import SUITE_MAX_SUBGROUPS, family_specs
from naive_oracles import naive_all_subgroups, naive_subgroup_phi

MAX_ORDER = 20000


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_criterion_1_classical_gauss():
    result = verify_classical_gauss(1000)
    assert result.all_pass and len(result.cases) == 1000
    report(1, "divisor totient sum equals n for all n <= 1000")


def test_criterion_2_cyclic_groups():
    for n in range(1, 301):
        G = construct(f"cyclic:{n}")
        assert gauss_sum(G, all_subgroups(G)) == n, n
    report(2, "lattice-enumerated Gauss sum of every cyclic group of order <= 300 equals the order")


def test_criterion_3_golden_values():
    golden = {
        "abelian:2,2": 7,
        "dihedral:6": 23,
        "quaternion:8": 14,
        "dihedral:4": 16,
        "semidihedral:16": 34,
    }
    for spec, want in golden.items():
        G = construct(spec)
        assert gauss_sum(G, all_subgroups(G)) == want, spec
    assert two_group_gauss_sum("Q", 3) == 14
    assert two_group_gauss_sum("D", 3) == 16
    assert two_group_gauss_sum("SD", 4) == 34
    report(3, "golden Gauss sums 7/23/14/16/34 match closed forms and brute force")


def test_criterion_4_theorem_3_abelian():
    result = run_suite("thm3", {"max_order": 256}, max_subgroups=SUITE_MAX_SUBGROUPS)
    assert result.all_pass, result.failures()[:5]
    assert len(result.cases) == 515  # abelian types of order 2..256
    report(4, "all 515 abelian types of order <= 256: equality iff cyclic, S > |G|+1 at rank >= 2")


def test_criterion_5_theorem_5_two_groups():
    result = run_suite("thm5", {"n_max": 7})
    assert result.all_pass, result.failures()[:5]
    # independent oracle for the order-16 modular group: pairwise-join
    # lattice enumeration, and the hand-derived inclusion-exclusion value
    M = construct("modular:2,4")
    table = M.table.tolist()
    oracle_s = sum(naive_subgroup_phi(table, H) for H in naive_all_subgroups(table))
    assert oracle_s == 31  # phi(M16) + 2*S(Z8) + S(Z2xZ4) - 2*S(Z4) = 8+16+15-8
    L = all_subgroups(M)
    assert gauss_sum(M, L) == 31
    lhs, rhs = inclusion_exclusion_residual(M, L)
    assert lhs == rhs == 31
    report(5, "D/Q/SD orders 16..128 and M(16)/M(32)/M(27)/M(81): closed forms, identity (4), S > |G|")


def test_criterion_6_theorem_7_dihedral():
    result = run_suite("thm7", {"n_max": 60})
    assert result.all_pass, result.failures()[:5]
    for n in range(2, 61, 2):
        G = construct(f"dihedral:{n}")
        assert gauss_sum(G, all_subgroups(G)) == dihedral_gauss_sum(n), n
    report(6, "dihedral membership iff n odd for n <= 60; explicit even-n formula matches brute force")


def test_criterion_7_theorem_8_and_example():
    for p, q in ((2, 3), (3, 7), (2, 5), (5, 11), (3, 13)):
        assert (q - 1) % p == 0
        spec = pq_group_spec(p, q)
        G = construct(spec)
        L = all_subgroups(G)
        assert gauss_sum(G, L) == p * q, (p, q)
        N = next(H for H in L.subgroups if H.order == q)
        assert len(complements(G, N, L)) == q, (p, q)
    for n in range(3, 46, 2):
        G = construct(f"dihedral:{n}")
        L = all_subgroups(G)
        rotations = next(H for H in L.subgroups if H.order == n)
        assert subgroup_is_cyclic(rotations)
        assert len(complements(G, rotations, L)) == n, n
        assert gauss_sum(G, L) == 2 * n, n
    report(7, "all five pq groups have S = pq with q complements; odd dihedral: n complements, S = 2n")


def test_criterion_8_multiplicativity():
    prop1 = run_suite("prop1")
    assert prop1.all_pass and len(prop1.cases) == 20
    cor2 = run_suite("cor2", {"max_order": 500})
    assert cor2.all_pass, cor2.failures()[:5]
    report(8, "20 coprime pairs multiply exactly; Sylow factorization holds on nilpotent corpus <= 500")


PROPERTY_CORPUS = (
    [f"cyclic:{n}" for n in (1, 2, 6, 12, 24, 30)]
    + [f"dihedral:{n}" for n in range(2, 19)]
    + ["abelian:2,2", "abelian:2,4", "abelian:2,2,2", "abelian:3,3", "abelian:4,4"]
    + ["quaternion:8", "quaternion:16", "quaternion:32", "semidihedral:16", "semidihedral:32"]
    + ["modular:2,4", "modular:2,5", "modular:3,3", "modular:3,4", "heisenberg:3"]
    + ["sdp:7,3,2", "sdp:5,2,4", "sdp:13,3,3", "sdp:11,5,3"]
    + ["product:(dihedral:3)x(cyclic:5)", "product:(quaternion:8)x(cyclic:9)"]
)


def test_criterion_9_property_suite_and_scan():
    for spec in PROPERTY_CORPUS:
        G = construct(spec)
        L = all_subgroups(G)
        s = gauss_sum(G, L)
        assert cyclic_totient_sum(G) == G.order, spec
        table = G.table.tolist()
        vanishing = all(
            naive_subgroup_phi(table, H.members.tolist()) == 0
            for H in L.subgroups
            if not subgroup_is_cyclic(H)
        )
        assert (s == G.order) == vanishing, spec

    corpus = family_specs("nilpotent", 256)
    scan = run_scan(corpus, max_subgroups=SUITE_MAX_SUBGROUPS)
    assert scan.skipped == []
    assert scan.scanned == len(corpus)
    assert scan.nilpotent_noncyclic_members == []
    assert scan.inequality_failures == []
    report(
        9,
        f"partition identity and vanishing-totient characterization on {len(PROPERTY_CORPUS)} groups; "
        f"nilpotent scan of {scan.scanned} groups <= 256: zero violations, zero failures",
    )


def test_criterion_10_io(tmp_path):
    io_corpus = [
        "cyclic:1",
        "cyclic:12",
        "abelian:2,2",
        "abelian:2,4",
        "dihedral:3",
        "dihedral:6",
        "quaternion:8",
        "semidihedral:16",
        "modular:3,3",
        "sdp:7,3,2",
    ]
    assert len(io_corpus) == 10
    for i, spec in enumerate(io_corpus):
        G = construct(spec)
        path = tmp_path / f"g{i}.cayley"
        write_cayley_table(G, path)
        assert read_cayley_table(path).table.tolist() == G.table.tolist(), spec

    gens = tmp_path / "f21.gens"
    gens.write_text("7\n1 2 3 4 5 6 0\n0 2 4 6 1 3 5\n")
    G = read_permutation_generators(gens)
    assert G.order == 21
    assert gauss_sum(G, all_subgroups(G)) == 21

    bad = tmp_path / "loop5.cayley"
    bad.write_text("5\n0 1 2 3 4\n1 0 3 4 2\n2 3 4 0 1\n3 4 1 2 0\n4 2 0 1 3\n")
    with pytest.raises(NotAGroupError) as info:
        read_cayley_table(bad)
    assert info.value.axiom == "associativity"
    a, b, c = info.value.witness
    t = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]])
    assert t[t[a, b], c] != t[a, t[b, c]]
    report(10, "10 Cayley round trips; generator file ingests to order 21 with S = 21; "
               "non-associative order-5 square rejected with a witness triple")
