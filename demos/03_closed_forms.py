"""Closed forms versus brute force.

Every formula the library ships is double-checked here against full
lattice enumeration: the abelian p-group totient, the dihedral totient
and Gauss sum, the three 2-group Gauss sums, and the semidirect-product
formula n + n_p(p - 1).
"""

from grouptotient import (
    abelian_p_group_totient,
    all_subgroups,
    construct,
    dihedral_gauss_sum,
    dihedral_totient,
    fixed_point_free_decomposition,
    gauss_sum,
    group_totient,
    semidirect_gauss_sum,
    two_group_gauss_sum,
)

print("abelian p-group totient |G|(1 - p^-(r-s+1)):")
for parts in [(2, 2), (2, 4), (4, 4), (3, 3, 9)]:
    G = construct("abelian:" + ",".join(map(str, parts)))
    print(f"  type {parts}: closed form {abelian_p_group_totient(parts)}, count {group_totient(G)}")

print("\ndihedral groups (parameter n, order 2n):")
for n in (5, 6, 8, 12):
    G = construct(f"dihedral:{n}")
    s = gauss_sum(all_subgroups(G))
    print(
        f"  n={n:2d}: phi formula {dihedral_totient(n)} vs {group_totient(G)}; "
        f"S formula {dihedral_gauss_sum(n)} vs {s}"
    )

print("\n2-groups with a cyclic maximal subgroup (order 2^n):")
for family, spec_of in [("D", lambda n: f"dihedral:{2 ** (n - 1)}"),
                        ("Q", lambda n: f"quaternion:{2 ** n}"),
                        ("SD", lambda n: f"semidihedral:{2 ** n}")]:
    for n in (4, 5, 6):
        G = construct(spec_of(n))
        s = gauss_sum(all_subgroups(G))
        print(f"  {family}(2^{n}): formula {two_group_gauss_sum(family, n):4d}, brute force {s:4d}")

print("\nsemidirect products with a fixed-point-free prime-order complement:")
for spec in ("dihedral:9", "sdp:7,3,2", "sdp:13,3,3"):
    G = construct(spec)
    L = all_subgroups(G)
    N, H, p, found = fixed_point_free_decomposition(L)
    n_p = len(found)
    s = gauss_sum(L)
    print(
        f"  {spec}: |N|={N.order}, p={p}, {n_p} complements; "
        f"formula {semidirect_gauss_sum(N.order, p, n_p)}, brute force {s}, "
        f"in class iff n_p=|N|: {s == G.order}"
    )
