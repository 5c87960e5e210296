"""Closed-form oracles for the benchmark's correctness gate.

Nothing here imports grouptotient: every expected value comes from
number theory, never from the lattice enumerator.  Abelian groups get
subgroup counts by type from Birkhoff's formula for abelian p-groups
(which gives the Galois numbers on elementary abelian groups),
multiplied over Sylow parts; S and phi are multiplicative too.
"""

from __future__ import annotations

from math import prod


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def q_binomial(n: int, k: int, q: int) -> int:
    """Gaussian binomial [n choose k]_q, exactly."""
    if k < 0 or k > n:
        return 0
    num = prod(q ** (n - i) - 1 for i in range(k))
    den = prod(q ** (i + 1) - 1 for i in range(k))
    return num // den


def _conjugate(parts: tuple[int, ...], length: int) -> list[int]:
    """Conjugate partition, padded with zeros to `length` entries."""
    return [sum(1 for x in parts if x >= i) for i in range(1, length + 1)]


def _sub_partitions(parts: tuple[int, ...]):
    """Every partition mu (descending) with mu_i <= parts_i."""

    def extend(i, bound, prefix):
        if i == len(parts):
            yield tuple(x for x in prefix if x)
            return
        for x in range(min(bound, parts[i]), -1, -1):
            yield from extend(i + 1, x, prefix + (x,))

    yield from extend(0, parts[0] if parts else 0, ())


def birkhoff_count(lam: tuple[int, ...], mu: tuple[int, ...], p: int) -> int:
    """Number of subgroups of type mu in the abelian p-group of type lam."""
    top = lam[0] if lam else 0
    lc = _conjugate(lam, top + 1)
    mc = _conjugate(mu, top + 1)
    count = 1
    for i in range(top):
        count *= p ** (mc[i + 1] * (lc[i] - mc[i]))
        count *= q_binomial(lc[i] - mc[i + 1], mc[i] - mc[i + 1], p)
    return count


def p_group_totient(mu: tuple[int, ...], p: int) -> int:
    """Elements of order equal to the exponent in the abelian p-group of type mu."""
    if not mu:
        return 1
    e = max(mu)

    def dividing(k):  # elements of order dividing p^k
        return prod(p ** min(a, k) for a in mu)

    return dividing(e) - dividing(e - 1)


def abelian_expected(parts: tuple[int, ...]) -> dict:
    """Summary fields of the abelian group with prime-power invariants `parts`."""
    by_prime: dict[int, list[int]] = {}
    for q in parts:
        (p, a), = factorize(q).items()
        by_prime.setdefault(p, []).append(a)
    count = phi = s = 1
    for p, exps in by_prime.items():
        lam = tuple(sorted(exps, reverse=True))
        subs = [(mu, birkhoff_count(lam, mu, p)) for mu in _sub_partitions(lam)]
        count *= sum(c for _, c in subs)
        s *= sum(c * p_group_totient(mu, p) for mu, c in subs)
        phi *= p_group_totient(lam, p)
    order = prod(parts)
    cyclic = all(len(exps) == 1 for exps in by_prime.values())
    return {
        "order": order,
        "phi": phi,
        "s_value": s,
        "subgroup_count": count,
        "cyclic": cyclic,
        "nilpotent": True,
        "in_class_c": s == order,
    }

