"""The classical divisor identity, and its group-theoretic restatement.

For every positive integer n, the totients of the divisors of n add up
to n.  Read over the subgroup lattice of a cyclic group, that says: the
subgroup totients of Z_n sum to exactly |Z_n|.  This script checks both
readings side by side.
"""

from grouptotient import all_subgroups, construct, divisors, euler_phi, gauss_sum

# the integer identity, by hand, for a few n
for n in (6, 12, 100):
    terms = {d: euler_phi(d) for d in divisors(n)}
    total = sum(terms.values())
    print(f"n = {n:3d}: " + " + ".join(f"phi({d})" for d in terms) + f" = {total}")
    assert total == n

print()

# the same identity via actual subgroup lattices of cyclic groups
for n in (6, 12, 100):
    G = construct(f"cyclic:{n}")
    L = all_subgroups(G)
    s = gauss_sum(L)
    print(f"Z_{n}: {len(L)} subgroups (one per divisor), Gauss sum = {s}")
    assert s == n and len(L) == len(divisors(n))

# the smallest group where the sum overshoots: the Klein four-group
K = construct("abelian:2,2")
LK = all_subgroups(K)
print(f"\nZ_2 x Z_2: {len(LK)} subgroups, Gauss sum = {gauss_sum(LK)} != 4")
