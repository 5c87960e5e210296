"""Group totients, Gauss sums over subgroup lattices, and their closed forms.

The group totient counts elements whose order equals the group exponent;
on a cyclic group it reduces to the classical totient.  The Gauss sum of
a group adds the totient of every subgroup; it equals the group order
exactly for the class of groups tracked by the summaries' `in_class_c`
flag, which for cyclic groups is the classical divisor identity.  The
per-subgroup totients are counted once, in the lattice pass
(`Lattice.totients`); the sums here read them rather than count again.
Every closed form is evaluated in integers.

The decomposition search reads a level of prime index p only when it
holds one subgroup: when p^2 does not divide |G|, a subgroup of index p
is a Hall subgroup, and a Hall subgroup is normal exactly when it is the
only subgroup of its order, so no normality test runs per subgroup.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError, MixedPrimesError
from .groups import Group
from .lattice import (
    Lattice,
    Subgroup,
    complements,
    cyclic_subgroups,
    is_normal,  # not called here; perfbench/spans.py wraps it in this namespace by name
)
from .numtheory import euler_phi, factorize, is_prime, prime_power, valuation


def group_totient(G: Group) -> int:
    """Count of elements of maximal achieved order (order = exponent)."""
    orders = G.element_orders()
    return int(np.count_nonzero(orders == G.exponent()))


def gauss_sum(L: Lattice) -> int:
    """Sum of subgroup totients over a complete lattice."""
    return int(L.totients.sum())


def cyclic_totient_sum(G: Group) -> int:
    """Sum of the classical totient over the orders of all cyclic subgroups.

    Every element generates exactly one cyclic subgroup, so this always
    equals |G| and is the sharp lower bound for the Gauss sum.
    """
    return sum(euler_phi(C.order) for C in cyclic_subgroups(G))


def subgroup_is_cyclic(H: Subgroup) -> bool:
    orders = H.parent.element_orders()[np.asarray(H.members, dtype=np.int64)]
    return bool((orders == len(H.members)).any())


# ---------------------------------------------------------------------------
# closed forms


def abelian_p_group_totient(parts) -> int:
    """Totient of an abelian p-group of type (p^a1 <= ... <= p^ar):
    |G| * (1 - p^-c) where c counts the parts attaining the maximal
    exponent."""
    parts = tuple(sorted(parts))
    if not parts:
        raise InvalidParameterError("abelian type needs at least one part")
    primes = {prime_power(q)[0] if prime_power(q) else 0 for q in parts}
    if 0 in primes or len(primes) != 1:
        raise MixedPrimesError(f"parts {parts} are not powers of a single prime")
    (p,) = primes
    order = math.prod(parts)
    return order - order // p ** parts.count(parts[-1])


def dihedral_totient(n: int) -> int:
    """Totient of the dihedral group with rotation part of size n.

    The published piecewise form lists the n = 2 value as 4, which is
    inconsistent with direct counting (the order-4 group here is the
    Klein four-group, whose three involutions all achieve the exponent)
    and with the explicit order-12 Gauss sum it is used to derive; the
    direct count of 3 is used.
    """
    if n < 1:
        raise InvalidParameterError(f"dihedral parameter must be >= 1, got {n}")
    if n == 1:
        return 1
    if n == 2:
        return 3
    return 0 if n % 2 else euler_phi(n)


def dihedral_gauss_sum(n: int) -> int:
    """Gauss sum of the dihedral group of order 2n: 2n for odd n, else
    3n + (k*n/2) * prod(a_i + 1 - a_i/p_i) over the odd part m = prod p_i^a_i
    of n = 2^k * m, evaluated in integers: each factor is
    ((a_i + 1)*p_i - a_i)/p_i, and prod p_i divides n/2."""
    if n < 2:
        raise InvalidParameterError(f"dihedral parameter must be >= 2, got {n}")
    k = valuation(n, 2)
    if k == 0:
        return 2 * n
    primes, numerator = 1, 1
    for p, a in factorize(n >> k).items():
        primes *= p
        numerator *= (a + 1) * p - a
    return 3 * n + k * (n // 2 // primes) * numerator


def two_group_gauss_sum(family: str, n: int) -> int:
    """Closed-form Gauss sums for the order-2^n groups with a cyclic
    maximal subgroup: dihedral (D), generalized quaternion (Q), and
    semidihedral (SD).

    The n = 3 base case is accepted for D and Q: the formulas reproduce
    the brute-force values there even though the derivation assumes
    n >= 4.
    """
    if family == "D":
        if n < 3:
            raise InvalidParameterError("D requires n >= 3")
        return 2 ** (n + 1) + (n - 3) * 2 ** (n - 2)
    if family == "Q":
        if n < 3:
            raise InvalidParameterError("Q requires n >= 3")
        return (n + 4) * 2 ** (n - 2)
    if family == "SD":
        if n < 4:
            raise InvalidParameterError("SD requires n >= 4")
        return (2 * n + 9) * 2 ** (n - 3)
    raise InvalidParameterError(f"unknown two-group family {family!r}; expected D, Q, or SD")


def semidirect_gauss_sum(n: int, p: int, complement_count: int) -> int:
    """Gauss sum n + n_p * (p - 1) of a semidirect product of a cyclic
    normal Hall subgroup of order n by a fixed-point-free prime-order
    complement, where n_p counts the complements."""
    if n < 1 or not is_prime(p) or math.gcd(n, p) != 1:
        raise InvalidParameterError(f"need n >= 1, p prime, gcd(n, p) = 1; got n={n}, p={p}")
    if complement_count < 1:
        raise InvalidParameterError("complement count must be positive")
    return n + complement_count * (p - 1)


# ---------------------------------------------------------------------------
# structure searches


def fixed_point_free_decomposition(L: Lattice) -> tuple[Subgroup, Subgroup, int, list[Subgroup]] | None:
    """Search for (N, H, p, complements): a nontrivial cyclic normal Hall
    subgroup N with a complement H of prime order p acting without
    nontrivial fixed points on N, and the list of N's complements H was
    found in, whose length is the n_p of `semidirect_gauss_sum`.  Returns
    the first witness in canonical order, or None.
    Only the levels of prime index p, p^2 not dividing n, are read, largest
    p (smallest N, first in canonical order) first.  Every subgroup of such
    a level is a Hall subgroup, and a Hall subgroup is normal exactly when
    it is the only subgroup of its order (M. Hall, The Theory of Groups,
    ch. 9), so a level is read only when it has one row.
    """
    G = L.group
    n = G.order
    table = G.table
    inv = G.inverses()
    for p in sorted(factorize(n), reverse=True):
        level = L.levels.get(n // p, ())
        if p == n or n % (p * p) == 0 or len(level) != 1:
            continue
        N = Subgroup(G, level[0])
        if not subgroup_is_cyclic(N):
            continue
        members = np.asarray(N.members, dtype=np.int64)
        found = complements(L, N)
        for H in found:
            h = int(H.members[1])
            conj = table[table[h, members], inv[h]]
            if int(np.count_nonzero(conj == members)) == 1:
                return (N, H, p, found)
    return None
