"""Finite groups as Cayley tables over element indices 0..n-1.

The identity is always index 0.  Constructors emit a deterministic
canonical indexing per family, so derived artifacts (lattices, reports)
are byte-stable across runs.  Every non-abelian family is a cyclic
extension N<y> of a normal subgroup N of order k by one element y; its
normal form ``x_i y^j`` sits at index ``i + k*j``, so N occupies indices
0..k-1 and y sits at index k.  The metacyclic families, with presentation
``<x, y | x^N = 1, y^m = x^s, y^-1 x y = x^t>`` (dihedral, quaternion,
semidihedral, modular, sdp), extend N = Z_N.  The Heisenberg group of
upper unitriangular 3x3 matrices (a, b, c) over F_p extends N = Z_p^2,
the matrices with a = 0, by y = (1, 0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    IdentityNotZeroError,
    InvalidParameterError,
    NotAGroupError,
    OrderOverflowError,
)
from .numtheory import is_prime, prime_power

DEFAULT_MAX_ORDER = 20000
# entries one numpy step touches at once: a lattice sweep's gather (0 gathers
# one member at a time), a block of table rows built, or is_abelian's square tile
_BATCH_LIMIT = 1 << 18

# family -> (its number of parameters, the group order they give); abelian
# and product take any number and are read by GroupSpec.order itself
_ORDERS = {
    "cyclic": (1, lambda n: n),
    "dihedral": (1, lambda n: 2 * n),
    "quaternion": (1, lambda order: order),
    "semidihedral": (1, lambda order: order),
    "modular": (2, lambda p, n: p**n),
    "heisenberg": (1, lambda p: p**3),
    "sdp": (3, lambda n, p, t: n * p),
}


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
        """Order of the group this spec builds, computed without building it,
        after checking that the spec has as many parameters as its family."""
        fam, par = self.family, self.params
        if fam == "abelian":
            return math.prod(par)
        if fam == "product":
            return math.prod(part.order() for part in par)
        if fam not in _ORDERS:
            raise InvalidParameterError(f"unknown family {fam!r}")
        count, order = _ORDERS[fam]
        if len(par) != count:
            raise InvalidParameterError(f"{self}: expected {count} parameter(s)")
        return order(*par)


def parse_spec(text: str) -> GroupSpec:
    """Parse a spec string such as ``cyclic:6``, ``abelian:2,2,4``,
    ``modular:3,4`` or ``product:(cyclic:4)x(cyclic:9)``."""
    text = text.strip()
    name, sep, rest = text.partition(":")
    if not sep or not rest:
        raise InvalidParameterError(f"malformed group spec {text!r}")
    if name == "product":
        return GroupSpec("product", tuple(_parse_product_args(rest, text)))
    if name != "abelian" and name not in _ORDERS:
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

    __slots__ = ("order", "table", "spec", "_walk", "_abelian")

    def __init__(self, table: np.ndarray, spec: GroupSpec | None = None):
        table = np.ascontiguousarray(table)
        n = table.shape[0] if table.ndim else 0
        if n == 0 or table.shape != (n, n):
            raise InvalidParameterError(f"table must be square and non-empty, got {table.shape}")
        if not np.issubdtype(table.dtype, np.integer):  # a float entry would be truncated
            raise InvalidParameterError(f"table entries must be integers, got dtype {table.dtype}")
        if int(table.min()) < 0 or int(table.max()) >= n:
            raise InvalidParameterError("table entries must be element indices in 0..n-1")
        self.order = int(n)
        self.table = table.astype(_index_dtype(n), copy=False)
        self.table.setflags(write=False)
        self.spec = spec
        self._walk = None
        self._abelian = None

    def __repr__(self) -> str:
        tag = str(self.spec) if self.spec is not None else "table"
        return f"Group({tag}, order={self.order})"

    def inverses(self) -> np.ndarray:
        """Inverses of all elements, in the table's dtype (see :func:`_least_generators`)."""
        return self._walked()[2]

    def least_generators(self) -> dict[int, list[int]]:
        """The least generator of each cyclic subgroup, mapped to its powers
        (see :func:`_least_generators`)."""
        return self._walked()[0]

    def element_orders(self) -> np.ndarray:
        """Orders of all elements, int64 (see :func:`_least_generators`)."""
        return self._walked()[1]

    def _walked(self) -> tuple[dict[int, list[int]], np.ndarray, np.ndarray]:
        # walked once per group, whichever of the three readers comes first
        if self._walk is None:
            self._walk = _least_generators(self.table)
        return self._walk

    def exponent(self) -> int:
        """lcm of all element orders; divides the group order."""
        return int(np.lcm.reduce(self.element_orders()))

    def is_abelian(self) -> bool:
        # tile by tile: the whole strided transpose is slow and takes n^2 bools
        if self._abelian is None:
            t, k = self.table, math.isqrt(_BATCH_LIMIT)
            self._abelian = all(
                np.array_equal(t[i : i + k, j : j + k], t[j : j + k, i : i + k].T)
                for i in range(0, self.order, k)
                for j in range(i, self.order, k)
            )
        return self._abelian


def _least_generators(table: np.ndarray) -> tuple[dict[int, list[int]], np.ndarray, np.ndarray]:
    """Map the least generator a of each cyclic subgroup to its powers
    a, a^2, ..., a^m = identity, in increasing order of a; beside that map,
    every element's order (int64) and inverse (in the table's dtype), both
    read-only.

    The first element not yet marked is the least generator of its cyclic
    subgroup; one walk of its powers marks every generator a^k with
    gcd(k, m) = 1, so each distinct cyclic subgroup is walked once.  Each
    element is marked exactly once, as a generator of order m, and its
    inverse a^(m-k) sits m - k - 1 places into the walk (-1, the last
    place, for the identity, walked alone).
    """
    n = len(table)
    orders, inverse = [0] * n, [0] * n  # order 0: not yet marked
    out: dict[int, list[int]] = {}
    for a in range(n):
        if orders[a]:
            continue
        x, powers = a, [a]
        while x != 0:
            x = table.item(x, a)  # a Python int, with no numpy scalar per step
            powers.append(x)
        m = len(powers)
        for k, x in enumerate(powers, 1):
            if math.gcd(k, m) == 1:
                orders[x], inverse[x] = m, powers[m - k - 1]
        out[a] = powers
    orders, inverse = np.array(orders, dtype=np.int64), np.array(inverse, dtype=table.dtype)
    orders.setflags(write=False)
    inverse.setflags(write=False)
    return out, orders, inverse


@dataclass(frozen=True)
class AbelianType:
    """Multiset of prime powers from the primary decomposition of an abelian group."""

    parts: tuple[int, ...]

    def __post_init__(self):
        for part in self.parts:
            if prime_power(part) is None:
                raise InvalidParameterError(f"abelian type part {part} is not a prime power > 1")
        object.__setattr__(self, "parts", tuple(sorted(self.parts)))

    def max_rank(self) -> int:
        """The largest number of parts that are powers of one prime."""
        primes = [prime_power(part)[0] for part in self.parts]
        return max(map(primes.count, primes), default=0)


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
        table = _cyclic_table(par[0])
    elif fam == "abelian":
        if not par:
            raise InvalidParameterError(f"{spec}: abelian type needs at least one part")
        atype = AbelianType(par)
        table = reduce(_product_table, [_cyclic_table(q) for q in atype.parts])
        spec = GroupSpec("abelian", atype.parts)
    elif fam == "dihedral":
        (n,) = par
        if n < 2:
            raise InvalidParameterError(f"{spec}: dihedral parameter must be >= 2")
        table = _metacyclic_table(n, 2, n - 1, 0)
    elif fam == "quaternion":
        (o,) = par
        pk = prime_power(o)
        if pk is None or pk[0] != 2 or pk[1] < 3:
            raise InvalidParameterError(f"{spec}: order must be 2**n with n >= 3")
        half = o // 2
        table = _metacyclic_table(half, 2, half - 1, half // 2)
    elif fam == "semidihedral":
        (o,) = par
        pk = prime_power(o)
        if pk is None or pk[0] != 2 or pk[1] < 4:
            raise InvalidParameterError(f"{spec}: order must be 2**n with n >= 4")
        half = o // 2
        table = _metacyclic_table(half, 2, half // 2 - 1, 0)
    elif fam == "modular":
        p, n = par
        if not is_prime(p):
            raise InvalidParameterError(f"{spec}: p must be prime")
        if n < 3 or (p == 2 and n < 4):
            # the order-8 case coincides with the dihedral group and is excluded
            raise InvalidParameterError(f"{spec}: need n >= 3, and n >= 4 when p = 2")
        table = _metacyclic_table(p ** (n - 1), p, p ** (n - 2) + 1, 0)
    elif fam == "heisenberg":
        (p,) = par
        if not is_prime(p) or p == 2:
            raise InvalidParameterError(f"{spec}: parameter must be an odd prime")
        # (a, b, c) = (0, b, c) y^a with y = (1, 0, 0): y (b, c) y^-1 = (b, c + b), y^p = 1
        z = _cyclic_table(p)
        b, c = np.divmod(np.arange(p * p), p)
        table = _cyclic_extension(_product_table(z, z), b * p + (c + b) % p, p, 0)
    elif fam == "sdp":
        n, p, t = par
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
    G = Group(table, spec=spec)
    if fam in ("cyclic", "abelian"):
        G._abelian = True  # known, so is_abelian need not compare the table with its transpose
    return G


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
    view = np.ndarray((n, n), twice.dtype, twice, 0, twice.strides * 2)
    view.setflags(write=False)
    return view


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

    Callers guarantee t**m = 1 (mod N) and s*(t - 1) = 0 (mod N), which
    make the normal-form product associative by the usual cyclic-extension
    argument: `construct` checks sdp's t**p = 1 (mod n), with s = 0, and
    the dihedral, quaternion, semidihedral and modular data satisfy both
    by construction.
    """
    # u = t^-1 mod N moves x-powers leftward through y: y x^i y^-1 = x^(i*u)
    u = pow(t, m - 1, big_n)
    return _cyclic_extension(_cyclic_table(big_n), np.arange(big_n) * u % big_n, m, s)


def _cyclic_extension(inner: np.ndarray, conj: np.ndarray, m: int, s: int) -> np.ndarray:
    """Table of N<y> on indices i + k*j for x_i y^j, where `inner` is the
    k x k table of the normal subgroup N, conj[i] = y x_i y^-1 and y^m = x_s.

    x_a y^j * x_b y^l = x_a conj^j(x_b) y^(j+l); when j + l >= m, y^m = x_s
    joins N's part: x_a (conj^j(x_b) x_s) y^(j+l-m).  So the entry in row
    x_a y^j and column c is inner[a, cols[j, c]] + offsets[j, c].  Rows are
    written in blocks of about _BATCH_LIMIT entries straight into the final
    index dtype, so nothing else of the table's size is allocated.
    """
    k = len(inner)
    n = k * m
    powers = np.empty((m, k), dtype=np.int64)  # powers[j] = conj^j
    powers[0] = np.arange(k)
    for j in range(1, m):
        powers[j] = conj[powers[j - 1]]
    jl = np.arange(m)[:, None] + np.arange(m)  # j + l
    cols = np.where((jl >= m)[:, :, None], inner[powers, s][:, None], powers[:, None])
    cols, offsets = cols.reshape(m, n), np.repeat(k * (jl % m), k, axis=1)
    table = np.empty((n, n), dtype=_index_dtype(n))
    blocks = table.reshape(m, k, n)  # [j, a, c]
    rows = max(1, _BATCH_LIMIT // n)
    step_j, step_a = max(1, rows // k), min(k, rows)
    for j0 in range(0, m, step_j):
        for a0 in range(0, k, step_a):
            part = inner[a0 : a0 + step_a].take(cols[j0 : j0 + step_j], axis=1)  # [a, j, c]
            out = blocks[j0 : j0 + step_j, a0 : a0 + step_a]
            np.add(part.transpose(1, 0, 2), offsets[j0 : j0 + step_j, None], out=out, casting="unsafe")
    return table


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
    with (x*a)*y != x*(a*y).  A table of any dtype but an integer type
    (float or bool) raises InvalidParameterError before any axiom is tested.
    The Latin-square test sorts nothing: it marks the entries of blocks of
    rows, then of columns, in bool matrices; the least index whose row or
    column repeats is named, its row first, with the first repeat.
    """
    n = table.shape[0]
    if table.shape != (n, n):
        raise NotAGroupError("shape", table.shape)
    if not np.issubdtype(table.dtype, np.integer):
        raise InvalidParameterError(f"table entries must be integers, got dtype {table.dtype}")
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise NotAGroupError("entry-range", (int(bad[0]), int(bad[1]), int(table[bad[0], bad[1]])))
    ident = np.arange(n)
    if not np.array_equal(table[0], ident) or not np.array_equal(table[:, 0], ident):
        raise IdentityNotZeroError("row/column 0 is not the identity")
    t = table.astype(_index_dtype(n), copy=False)
    bad_rows, bad_cols = _non_permutations(t), _non_permutations(t.T)
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


def _non_permutations(t: np.ndarray) -> np.ndarray:
    """Which rows of `t`, n x n with entries in 0..n-1, are not permutations:
    each block of rows marks its entries in a bool matrix through int64 flat
    indices (a copy of at most _BATCH_LIMIT bytes or one row), unsorted."""
    n = len(t)
    step = max(1, _BATCH_LIMIT // (8 * n))
    bad = np.empty(n, dtype=bool)
    for r in range(0, n, step):
        block = t[r : r + step]
        seen = np.zeros(block.size, dtype=bool)
        seen[np.arange(0, block.size, n)[:, None] + block] = True
        bad[r : r + step] = ~seen.reshape(block.shape).all(axis=1)
    return bad


def _first_duplicate(row: np.ndarray) -> tuple[int, int]:
    seen: dict[int, int] = {}
    for pos, val in enumerate(row):
        v = int(val)
        if v in seen:
            return seen[v], pos
        seen[v] = pos
    raise AssertionError("no duplicate found in a non-Latin row")
