"""Finite groups as Cayley tables over element indices 0..n-1.

The identity is always index 0.  Constructors emit a deterministic
canonical indexing per family, so derived artifacts (lattices, reports)
are byte-stable across runs.  Two-generator families with presentation
``<x, y | x^N = 1, y^m = x^s, y^-1 x y = x^t>`` index the normal form
``x^i y^j`` as ``i + N*j``, so the cyclic part <x> occupies indices
0..N-1 and y sits at index N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain

import numpy as np

from .errors import (
    IdentityNotZeroError,
    IndexOutOfRangeError,
    InvalidParameterError,
    NotAbelianError,
    NotAGroupError,
    OrderOverflowError,
)
from .numtheory import factorize, integer_log, is_prime, prime_power, valuation

DEFAULT_MAX_ORDER = 20000
_TILE = 512  # side of the square blocks Group.is_abelian compares

FAMILIES = (
    "cyclic",
    "abelian",
    "dihedral",
    "quaternion",
    "semidihedral",
    "modular",
    "heisenberg",
    "sdp",
    "product",
)


def _index_dtype(n: int):
    if n <= 256:
        return np.uint8
    if n <= 65536:
        return np.uint16
    return np.int64


@dataclass(frozen=True)
class GroupSpec:
    """Construction recipe: a family name plus its integer parameters.

    Products nest: ``GroupSpec("product", (spec1, spec2))``.  The string
    form (see :func:`parse_spec`) doubles as the canonical group id in
    reports.
    """

    family: str
    params: tuple

    def __str__(self) -> str:
        if self.family == "product":
            return "product:" + "x".join(f"({part})" for part in self.params)
        return f"{self.family}:" + ",".join(str(p) for p in self.params)

    def order(self) -> int:
        """Order of the group this spec builds, computed without building it."""
        fam, par = self.family, self.params
        if fam == "cyclic":
            return par[0]
        if fam == "abelian":
            return math.prod(par)
        if fam == "dihedral":
            return 2 * par[0]
        if fam in ("quaternion", "semidihedral"):
            return par[0]
        if fam == "modular":
            p, n = par
            return p**n
        if fam == "heisenberg":
            return par[0] ** 3
        if fam == "sdp":
            return par[0] * par[1]
        if fam == "product":
            return math.prod(part.order() for part in self.params)
        raise InvalidParameterError(f"unknown family {fam!r}")


def parse_spec(text: str) -> GroupSpec:
    """Parse a spec string such as ``cyclic:6``, ``abelian:2,2,4``,
    ``modular:3,4`` or ``product:(cyclic:4)x(cyclic:9)``."""
    text = text.strip()
    name, sep, rest = text.partition(":")
    if not sep or not rest:
        raise InvalidParameterError(f"malformed group spec {text!r}")
    if name == "product":
        return GroupSpec("product", tuple(_parse_product_args(rest, text)))
    if name not in FAMILIES:
        raise InvalidParameterError(f"unknown group family {name!r} in {text!r}")
    try:
        params = tuple(int(tok) for tok in rest.split(","))
    except ValueError:
        raise InvalidParameterError(f"non-integer parameter in {text!r}") from None
    if name == "abelian":
        params = tuple(sorted(params))
    return GroupSpec(name, params)


def _parse_product_args(rest: str, full: str) -> list[GroupSpec]:
    parts = []
    i = 0
    while i < len(rest):
        if rest[i] != "(":
            raise InvalidParameterError(f"expected '(' in product spec {full!r}")
        depth, j = 1, i + 1
        while j < len(rest) and depth:
            depth += {"(": 1, ")": -1}.get(rest[j], 0)
            j += 1
        if depth:
            raise InvalidParameterError(f"unbalanced parentheses in {full!r}")
        parts.append(parse_spec(rest[i + 1 : j - 1]))
        i = j
        if i < len(rest):
            if rest[i] != "x" or i + 1 == len(rest):
                raise InvalidParameterError(f"expected 'x' between factors in {full!r}")
            i += 1
    if not parts:
        raise InvalidParameterError(f"empty product spec {full!r}")
    return parts


class Group:
    """A finite group given by its n x n multiplication table.

    ``table[a][b]`` is the index of a*b; index 0 is the identity.
    Instances are immutable after construction and safe to share across
    threads; derived data (inverses, the cyclic-subgroup walk, element
    orders) is cached lazily.
    """

    __slots__ = ("order", "table", "spec", "_inverse", "_least", "_orders", "_abelian")

    def __init__(self, table: np.ndarray, spec: GroupSpec | None = None):
        table = np.ascontiguousarray(table)
        n = table.shape[0] if table.ndim else 0
        if n == 0 or table.shape != (n, n):
            raise InvalidParameterError(f"table must be square and non-empty, got {table.shape}")
        if int(table.min()) < 0 or int(table.max()) >= n:
            raise InvalidParameterError("table entries must be element indices in 0..n-1")
        self.order = int(n)
        self.table = table.astype(_index_dtype(n), copy=False)
        self.table.setflags(write=False)
        self.spec = spec
        self._inverse = None
        self._least = None
        self._orders = None
        self._abelian = None

    def __repr__(self) -> str:
        tag = str(self.spec) if self.spec is not None else "table"
        return f"Group({tag}, order={self.order})"

    def mult(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverses(self) -> np.ndarray:
        if self._inverse is None:
            inv = np.argmin(self.table, axis=1)
            self._inverse = inv.astype(self.table.dtype)
            self._inverse.setflags(write=False)
        return self._inverse

    def inverse(self, a: int) -> int:
        self._check_index(a)
        return int(self.inverses()[a])

    def power(self, a: int, k: int) -> int:
        """a**k by repeated squaring; k may be negative."""
        self._check_index(a)
        if k < 0:
            a, k = self.inverse(a), -k
        result, base = 0, a
        while k:
            if k & 1:
                result = int(self.table[result, base])
            base = int(self.table[base, base])
            k >>= 1
        return result

    def element_order(self, a: int) -> int:
        """Smallest k >= 1 with a**k = identity; divides the group order."""
        self._check_index(a)
        if self._orders is not None:
            return int(self._orders[a])
        k, x = 1, a
        while x != 0:
            x = int(self.table[x, a])
            k += 1
        return k

    def least_generators(self) -> dict[int, list[int]]:
        """The least generator of each cyclic subgroup, mapped to its powers
        (see :func:`_least_generators`); walked once per group."""
        if self._least is None:
            self._least = _least_generators(self.table)
        return self._least

    def element_orders(self) -> np.ndarray:
        """Orders of all elements, read off the least-generator walk: for a
        least generator a of order m, the power a^k has order m / gcd(k, m)."""
        if self._orders is None:
            walks = self.least_generators().values()
            lengths = np.fromiter(map(len, walks), dtype=np.int64, count=len(walks))
            powers = np.fromiter(chain.from_iterable(walks), dtype=np.int64, count=int(lengths.sum()))
            m = np.repeat(lengths, lengths)
            k = np.arange(1, len(powers) + 1) - np.repeat(np.cumsum(lengths) - lengths, lengths)
            orders = np.empty(self.order, dtype=np.int64)
            orders[powers] = m // np.gcd(k, m)
            orders.setflags(write=False)
            self._orders = orders
        return self._orders

    def exponent(self) -> int:
        """lcm of all element orders; divides the group order."""
        return int(np.lcm.reduce(self.element_orders()))

    def is_abelian(self) -> bool:
        # tile by tile: the whole strided transpose is slow and takes n^2 bools
        if self._abelian is None:
            t, k = self.table, _TILE
            self._abelian = all(
                np.array_equal(t[i : i + k, j : j + k], t[j : j + k, i : i + k].T)
                for i in range(0, self.order, k)
                for j in range(i, self.order, k)
            )
        return self._abelian

    def is_cyclic(self) -> bool:
        """True iff some element has full order (not merely exponent = order)."""
        return bool((self.element_orders() == self.order).any())

    def abelian_invariants(self) -> "AbelianType":
        """Primary decomposition of an abelian group from order statistics.

        For each prime p, the count of elements whose order divides p**k
        is p**m_k where m_k = sum_i min(alpha_i, k); the increments
        m_k - m_(k-1) are the conjugate of the exponent partition
        (alpha_1, ..., alpha_r), which is recovered by transposition.
        """
        if not self.is_abelian():
            raise NotAbelianError(f"{self!r} is not abelian")
        orders = [int(o) for o in self.element_orders()]
        parts: list[int] = []
        for p in sorted(factorize(self.order)):
            # v_p(x) for elements of pure p-power order, -1 for the rest
            vals = [valuation(o, p) if o == p ** valuation(o, p) else -1 for o in orders]
            kmax = max(vals)
            prev = 0
            conjugate = []
            for k in range(1, kmax + 1):
                count = sum(1 for v in vals if 0 <= v <= k)
                m = integer_log(count, p)
                conjugate.append(m - prev)
                prev = m
            rank = conjugate[0]
            for i in range(1, rank + 1):
                alpha = sum(1 for c in conjugate if c >= i)
                parts.append(p**alpha)
        return AbelianType(tuple(sorted(parts)))

    def _check_index(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise IndexOutOfRangeError(f"element index {a} not in 0..{self.order - 1}")


def _least_generators(table: np.ndarray) -> dict[int, list[int]]:
    """Map the least generator a of each cyclic subgroup to its powers
    a, a^2, ..., a^m = identity, in increasing order of a.

    The first element not yet marked is the least generator of its cyclic
    subgroup; one walk of its powers marks every generator a^k with
    gcd(k, m) = 1, so each distinct cyclic subgroup is walked once.
    """
    marked = np.zeros(len(table), dtype=bool)
    out: dict[int, list[int]] = {}
    for a in range(len(table)):
        if marked[a]:
            continue
        x, powers = a, [a]
        while x != 0:
            x = int(table[x, a])
            powers.append(x)
        m = len(powers)
        marked[[x for k, x in enumerate(powers, 1) if math.gcd(k, m) == 1]] = True
        out[a] = powers
    return out


@dataclass(frozen=True)
class AbelianType:
    """Multiset of prime powers from the primary decomposition of an abelian group."""

    parts: tuple[int, ...]

    def __post_init__(self):
        for part in self.parts:
            if prime_power(part) is None:
                raise InvalidParameterError(f"abelian type part {part} is not a prime power > 1")
        object.__setattr__(self, "parts", tuple(sorted(self.parts)))

    def order(self) -> int:
        return math.prod(self.parts) if self.parts else 1

    def primes(self) -> list[int]:
        return sorted({prime_power(part)[0] for part in self.parts})

    def rank(self, p: int) -> int:
        """Number of parts belonging to prime p."""
        return sum(1 for part in self.parts if part % p == 0)

    def max_rank(self) -> int:
        return max((self.rank(p) for p in self.primes()), default=0)

    def is_cyclic(self) -> bool:
        return all(self.rank(p) == 1 for p in self.primes())


# ---------------------------------------------------------------------------
# constructors


def construct(spec: GroupSpec | str, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """Build the Cayley table realizing `spec` with canonical element indexing."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    order = spec.order()
    if order > max_order:
        raise OrderOverflowError(order, max_order)
    fam, par = spec.family, spec.params
    if fam == "cyclic":
        table = _cyclic_table(*_expect_params(spec, 1))
    elif fam == "abelian":
        if not par:
            raise InvalidParameterError(f"{spec}: abelian type needs at least one part")
        atype = AbelianType(par)
        table = reduce(_product_table, [_cyclic_table(q) for q in atype.parts])
        spec = GroupSpec("abelian", atype.parts)
    elif fam == "dihedral":
        (n,) = _expect_params(spec, 1)
        if n < 2:
            raise InvalidParameterError(f"{spec}: dihedral parameter must be >= 2")
        table = _metacyclic_table(n, 2, n - 1, 0)
    elif fam == "quaternion":
        (o,) = _expect_params(spec, 1)
        pk = prime_power(o)
        if pk is None or pk[0] != 2 or pk[1] < 3:
            raise InvalidParameterError(f"{spec}: order must be 2**n with n >= 3")
        half = o // 2
        table = _metacyclic_table(half, 2, half - 1, half // 2)
    elif fam == "semidihedral":
        (o,) = _expect_params(spec, 1)
        pk = prime_power(o)
        if pk is None or pk[0] != 2 or pk[1] < 4:
            raise InvalidParameterError(f"{spec}: order must be 2**n with n >= 4")
        half = o // 2
        table = _metacyclic_table(half, 2, half // 2 - 1, 0)
    elif fam == "modular":
        p, n = _expect_params(spec, 2)
        if not is_prime(p):
            raise InvalidParameterError(f"{spec}: p must be prime")
        if n < 3 or (p == 2 and n < 4):
            # the order-8 case coincides with the dihedral group and is excluded
            raise InvalidParameterError(f"{spec}: need n >= 3, and n >= 4 when p = 2")
        table = _metacyclic_table(p ** (n - 1), p, p ** (n - 2) + 1, 0)
    elif fam == "heisenberg":
        (p,) = _expect_params(spec, 1)
        if not is_prime(p) or p == 2:
            raise InvalidParameterError(f"{spec}: parameter must be an odd prime")
        table = _heisenberg_table(p)
    elif fam == "sdp":
        n, p, t = _expect_params(spec, 3)
        if n < 1 or not is_prime(p):
            raise InvalidParameterError(f"{spec}: need n >= 1 and p prime")
        if math.gcd(n, p) != 1:
            raise InvalidParameterError(f"{spec}: need gcd(n, p) = 1")
        t %= n
        if pow(t, p, n) != 1 % n:
            raise InvalidParameterError(f"{spec}: need t**p = 1 (mod n)")
        if t == 1 % n:
            raise InvalidParameterError(f"{spec}: t = 1 (mod n) gives a direct product")
        table = _metacyclic_table(n, p, t, 0)
    elif fam == "product":
        factors = [construct(part, max_order=max_order) for part in par]
        return direct_product(factors, max_order=max_order)
    else:
        raise InvalidParameterError(f"unknown family {fam!r}")
    G = Group(table, spec=spec)
    if fam in ("cyclic", "abelian"):
        G._abelian = True  # known, so is_abelian need not compare the table with its transpose
    return G


def _expect_params(spec: GroupSpec, k: int) -> tuple:
    if len(spec.params) != k:
        raise InvalidParameterError(f"{spec}: expected {k} parameter(s)")
    return spec.params


def direct_product(factors: list[Group], max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """Componentwise product over tuples in lexicographic order.

    The identity tuple (0, ..., 0) gets index 0, so the convention that
    index 0 is the identity is preserved.
    """
    if not factors:
        raise InvalidParameterError("direct product needs at least one factor")
    order = math.prod(g.order for g in factors)
    if order > max_order:
        raise OrderOverflowError(order, max_order)
    table = reduce(_product_table, [g.table for g in factors])
    spec = None
    if all(g.spec is not None for g in factors):
        spec = GroupSpec("product", tuple(g.spec for g in factors))
    return Group(table, spec=spec)


def _cyclic_table(n: int) -> np.ndarray:
    """Row a is a, a+1, ..., a-1 (mod n): a read-only strided view of
    0..n-1 written twice, row a starting at entry a, so the n x n table is
    only allocated when Group copies it, already in its final dtype."""
    if n < 1:
        raise InvalidParameterError(f"cyclic group order must be >= 1, got {n}")
    r = np.arange(n, dtype=_index_dtype(n))
    twice = np.concatenate([r, r])
    return np.lib.stride_tricks.as_strided(twice, (n, n), twice.strides * 2, writeable=False)


def _product_table(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Table of the direct product on indices a1*n2 + a2, written straight
    into its final index dtype: every sum is below n1*n2, so no step needs a
    wider one."""
    n1, n2 = t1.shape[0], t2.shape[0]
    dtype = _index_dtype(n1 * n2)
    offsets = (np.arange(n1) * n2).astype(dtype)  # a1 -> a1*n2
    table = np.empty((n1, n2, n1, n2), dtype=dtype)
    np.add(offsets[t1][:, None, :, None], t2.astype(dtype)[None, :, None, :], out=table)
    return table.reshape(n1 * n2, n1 * n2)


def _metacyclic_table(big_n: int, m: int, t: int, s: int) -> np.ndarray:
    """Table of <x, y | x^N = 1, y^m = x^s, y^-1 x y = x^t> on indices i + N*j.

    Requires t**m = 1 (mod N) and s*(t - 1) = 0 (mod N); all families
    routed here satisfy both, which makes the normal-form product
    associative by the usual cyclic-extension argument.
    """
    t %= big_n
    if pow(t, m, big_n) != 1 % big_n or (s * (t - 1)) % big_n != 0:
        raise InvalidParameterError(
            f"inconsistent metacyclic data N={big_n}, m={m}, t={t}, s={s}"
        )
    n = big_n * m
    # u = t^-1 mod N moves x-powers leftward through y: y^j x^k = x^(k*u^j) y^j
    u = pow(t, m - 1, big_n)
    upow = np.array([pow(u, j, big_n) for j in range(m)], dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    i, j = idx % big_n, idx // big_n
    ii = (i[:, None] + i[None, :] * upow[j][:, None]) % big_n
    jj = j[:, None] + j[None, :]
    wrap = jj >= m
    ii[wrap] = (ii[wrap] + s) % big_n
    jj[wrap] -= m
    return ii + big_n * jj


def _heisenberg_table(p: int) -> np.ndarray:
    """Upper unitriangular 3x3 matrices over F_p: triples (a, b, c) with
    (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b'), indexed a*p^2 + b*p + c."""
    n = p**3
    idx = np.arange(n, dtype=np.int64)
    a, rest = idx // (p * p), idx % (p * p)
    b, c = rest // p, rest % p
    aa = (a[:, None] + a[None, :]) % p
    bb = (b[:, None] + b[None, :]) % p
    cc = (c[:, None] + c[None, :] + a[:, None] * b[None, :]) % p
    return aa * p * p + bb * p + cc


# ---------------------------------------------------------------------------
# table validation (for ingested tables; constructors guarantee the axioms)


def validate_table(table: np.ndarray) -> None:
    """Check identity-at-0, the Latin-square property, and associativity.

    Raises IdentityNotZeroError or NotAGroupError (with the failed axiom
    and a witness) on the first violation.  Associativity is Light's test
    (Clifford and Preston, *The Algebraic Theory of Semigroups*, 1961,
    section 1.2): the elements a with (x*a)*y = x*(a*y) for all x, y are
    closed under products, so testing a generating set decides the whole
    table.  Generators are picked greedily, each the least element outside
    the closure of those before.  A group needs at most log2(n) of them
    (each one at least doubles the subgroup), any other loop at most n.
    Each test is two n^2 gathers, so a group costs O(n^2 log n), not the
    O(n^3) of testing every triple; a failure names a triple (x, a, y)
    with (x*a)*y != x*(a*y).
    """
    n = table.shape[0]
    if table.shape != (n, n):
        raise NotAGroupError("shape", table.shape)
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise NotAGroupError("entry-range", (int(bad[0]), int(bad[1]), int(table[bad[0], bad[1]])))
    ident = np.arange(n)
    if not np.array_equal(table[0], ident) or not np.array_equal(table[:, 0], ident):
        raise IdentityNotZeroError("row/column 0 is not the identity")
    t = table.astype(_index_dtype(n), copy=False)
    bad_rows = (np.sort(t, axis=1) != ident).any(axis=1)
    bad_cols = (np.sort(t, axis=0) != ident[:, None]).any(axis=0)
    bad = np.flatnonzero(bad_rows | bad_cols)
    if bad.size:
        a = int(bad[0])
        if bad_rows[a]:
            dup = _first_duplicate(t[a])
            raise NotAGroupError("latin-square-row", (a, dup[0], dup[1]))
        dup = _first_duplicate(t[:, a])
        raise NotAGroupError("latin-square-column", (dup[0], a, dup[1]))
    closed = np.zeros(n, dtype=bool)  # the submagma generated so far
    closed[0] = True
    while not closed.all():
        a = int(np.argmin(closed))
        mismatch = t[t[:, a]] != t[:, t[a]]  # [x, y]: (x*a)*y != x*(a*y)
        if mismatch.any():
            x, y = map(int, np.argwhere(mismatch)[0])
            raise NotAGroupError("associativity", (x, a, y))
        _close_under_products(t, closed, a)


def _close_under_products(t: np.ndarray, closed: np.ndarray, a: int) -> None:
    """Add `a` to the product-closed set `closed` (a boolean vector) and
    close it again.  Each round multiplies only pairs with a factor new in
    that round, so all rounds together cost at most 2 n^2 products."""
    new = np.array([a])
    while new.size:
        closed[new] = True
        members = np.flatnonzero(closed)
        reached = np.zeros_like(closed)
        reached[t[np.ix_(members, new)]] = True
        reached[t[np.ix_(new, members)]] = True
        new = np.flatnonzero(reached & ~closed)


def _first_duplicate(row: np.ndarray) -> tuple[int, int]:
    seen: dict[int, int] = {}
    for pos, val in enumerate(row):
        v = int(val)
        if v in seen:
            return seen[v], pos
        seen[v] = pos
    raise AssertionError("no duplicate found in a non-Latin row")
