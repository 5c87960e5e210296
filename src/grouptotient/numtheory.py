"""Integer number theory helpers: factorization, totient, divisors, logarithms."""

from __future__ import annotations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def euler_phi(n: int) -> int:
    """Classical totient: count of 1 <= k <= n coprime to n."""
    if n < 1:
        raise ValueError(f"totient undefined for {n}")
    result = n
    for p in factorize(n):
        result -= result // p
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p**k and k >= 1, or None if n is not a prime power."""
    if n < 2:
        return None
    factors = factorize(n)
    if len(factors) != 1:
        return None
    ((p, k),) = factors.items()
    return p, k


def valuation(n: int, p: int) -> int:
    """Largest k with p**k dividing n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def integer_log(n: int, p: int) -> int:
    """Exact k with p**k == n; ValueError when n is not a power of p."""
    if p < 2 or n < 1:
        raise ValueError(f"integer_log({n}, {p}) needs n >= 1 and p >= 2")
    k = valuation(n, p)
    if p**k != n:
        raise ValueError(f"{n} is not a power of {p}")
    return k
