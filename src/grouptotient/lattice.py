"""Complete subgroup lattice enumeration and derived distinguished subgroups.

Enumeration walks canonical generating chains instead of closing the
cyclic subgroups under undirected pairwise joins: every subgroup K has a
unique chain c_1 < c_2 < ... < c_m where c_(i+1) is the least element of
K outside <c_1.. c_i>, and prefixes of canonical chains are canonical.
Extending each discovered subgroup H only by elements a that are

  * larger than H's last chain generator,
  * minimal in their right coset H*a (any other coset member b = h*a
    generates the same join with a smaller new minimum, so it cannot be
    canonical),
  * the least generator of the cyclic subgroup <a> (every generator of
    <a> lies in <H, a> outside H, so a larger one is never the least new
    element), and
  * the least new element of <H, a>, checked while the join is built:
    it is abandoned as soon as a new coset holds an element below a,

discovers each subgroup exactly once.  This reaches the same fixed
point as pairwise join closure but stays linear in the lattice size.

Most joins that would be abandoned are never started: every part of
<H, a> outside H must have its minimum >= a, and the sweep already holds
each right coset's minimum, so before joining it also requires

  * min(H*a^-1) >= a (a^-1 lies outside H because a does),
  * a^2 in H or min(H*a^2) >= a, and
  * in non-abelian groups, min(HaH) = a, where min(HaH) is the least
    min(H*a*h) over h in H (in abelian groups HaH = H*a).

These are necessary conditions only; the join stays the complete test,
so they remove joins but never change what is found.  On A6 the sweep
runs 662 joins and abandons 318 (3,997 and 3,497 with the H*a test
alone and level 1 joined as well).

The search sweeps one subgroup order at a time, smallest first; as
children outgrow their parents and chains are unique, the sweep order
changes nothing found.  Level 1 is read off the least-generator walk:
the children of the trivial subgroup are the <a> whose least
non-identity element is their least generator a, taken as one block per
order with no candidate sweep and no join.  Every larger level's members
form one matrix, swept in chunks, and each chunk yields the right-coset
minima minima[r, x] = min(H_r*x): as table[block].min(axis=1) for chunks
of up to _BATCH_LIMIT gathered entries, or, for a subgroup too large for
one (|H| * |G| > _BATCH_LIMIT = 2^18, first above order 724 when
|H| = |G| / 2), by walking its cosets one at a time, which costs n
gathered entries, not |H| * n.  Both hand the same rows to the same
filters and joins.  Abelian index-2 steps (a^2 in H, so <H, a> =
H u H*a) are built per chunk; other candidates are joined one by one,
by a breadth-first walk over coset names: a right coset is named by its
minimum and (H*x)*s = H*(x*s), so the coset reached from H*x by a
generator s is minima[r, x*s], and members are gathered only for a join
that succeeds.  One lexsort per level gives the canonical order.
The same pass counts each subgroup's totient and keeps the vector on the
lattice, for every Gauss sum to read; it also sums the totients of the
cyclic subgroups (those whose exponent is their order), so
`Lattice.cyclic_sum` is |G| exactly when the lattice holds every cyclic
subgroup.  The rank-8 elementary abelian group (417199 subgroups) takes
2-4 s, totients included, on a 2-vCPU Xeon host.

The lattice keeps these level matrices and the totient vector; Subgroup
objects are built on first read, so summaries never build one, and every
containment query is a `Lattice.contained_in` row test over the levels.
`generated_subgroup` does not join cosets: it closes its seed under
products, the closure that Light's associativity test also uses.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    InvalidParameterError,
    LatticeOverflowError,
    NotNormalError,
    NotPrimePowerError,
)
from .groups import Group, _close_under_products
from .numtheory import factorize, integer_log, prime_power, valuation

DEFAULT_MAX_SUBGROUPS = 200000


class Subgroup:
    """A subgroup of a parent group, stored as its sorted member array in
    the parent table's dtype, so equal member sets have equal bytes."""

    __slots__ = ("parent", "members")

    def __init__(self, parent: Group, members: np.ndarray):
        self.parent = parent
        self.members = members

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, a: int) -> bool:
        i = int(np.searchsorted(self.members, a))
        return i < len(self.members) and int(self.members[i]) == a

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and np.array_equal(other.members, self.members)
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members.tobytes()))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent!r})"

    def sort_key(self) -> tuple:
        return (self.order, np.asarray(self.members, dtype=">u4").tobytes())


class Lattice:
    """All subgroups of a group in canonical order (by order, then by member
    list): ``levels`` maps each order to its sorted member matrix, ``totients``
    holds each subgroup's totient (int64) and ``cyclic_sum`` the totients of
    the cyclic ones; ``subgroups`` is built on first read."""

    __slots__ = ("group", "levels", "totients", "cyclic_sum", "_subgroups")

    def __init__(
        self, group: Group, levels: dict[int, np.ndarray], totients: np.ndarray, cyclic_sum: int
    ):
        self.group = group
        self.levels = levels
        self.totients = totients
        self.cyclic_sum = cyclic_sum
        self._subgroups = None

    @property
    def subgroups(self) -> list[Subgroup]:
        if self._subgroups is None:
            levels = self.levels.values()
            self._subgroups = [Subgroup(self.group, row) for level in levels for row in level]
        return self._subgroups

    def __len__(self) -> int:
        return len(self.totients)

    def __iter__(self):
        return iter(self.subgroups)

    def of_order(self, k: int) -> list[Subgroup]:
        """The subgroups of order k in canonical order, built from their level alone."""
        return [Subgroup(self.group, row) for row in self.levels.get(k, ())]

    def contained_in(self, members) -> np.ndarray:
        """Bool vector, in canonical order, of the subgroups inside `members`."""
        inside = np.zeros(self.group.order, dtype=bool)
        inside[members] = True
        return np.concatenate([inside[level].all(axis=1) for level in self.levels.values()])


def cyclic_subgroups(G: Group) -> list[Subgroup]:
    """All subgroups <a> for a in G, deduplicated and canonically ordered."""
    subs = []
    for a, powers in G.least_generators().items():
        arr = np.array(sorted(powers), dtype=G.table.dtype)
        subs.append(Subgroup(G, arr))
    return sorted(subs, key=Subgroup.sort_key)


def generated_subgroup(G: Group, seed) -> Subgroup:
    """Smallest subgroup containing `seed`: {0} closed under products with
    each seed element in turn (in a finite group a set closed under
    products is a subgroup)."""
    n = G.order
    seed = sorted(set(int(a) for a in seed))
    for a in seed:
        if not 0 <= a < n:
            raise IndexOutOfRangeError(f"seed index {a} not in 0..{n - 1}")
    closed = np.zeros(n, dtype=bool)
    closed[0] = True
    for a in seed:
        if not closed[a]:
            _close_under_products(G.table, closed, a)
    return Subgroup(G, np.flatnonzero(closed).astype(G.table.dtype))


_BATCH_LIMIT = 1 << 18  # elements of table[members] gathered per chunk; 0 forces the coset walk


def all_subgroups(G: Group, max_subgroups: int = DEFAULT_MAX_SUBGROUPS) -> Lattice:
    """Enumerate the complete subgroup lattice (see module docstring)."""
    if max_subgroups < 1:
        raise InvalidParameterError(f"max_subgroups must be at least 1, got {max_subgroups}")
    n = G.order
    table = G.table
    abelian = G.is_abelian()
    # keys[b] = b when b is the least generator of <b>, else -1: b is a
    # candidate exactly when min(H*b) == keys[b]
    keys = np.full(n, -1, dtype=np.int64)
    walks = G.least_generators()
    least = list(walks)
    keys[least] = least
    squares = np.diagonal(table)
    # inverses of the least generators, the only ones read: a^-1 = a^(m-1), the
    # power before the identity (the walk of the identity, first, is [0])
    inverses = np.zeros(n, dtype=np.int64)
    inverses[least[1:]] = [powers[-2] for powers in list(walks.values())[1:]]
    columns = np.arange(n)
    # order -> (member blocks, chains) of the subgroups found so far
    pending = {1: ([np.zeros((1, 1), dtype=table.dtype)], [()])}
    found = 1
    levels: dict[int, np.ndarray] = {}
    element_orders = G.element_orders()
    totients = []
    cyclic_sum = 0

    def accept(block, chains):
        nonlocal found
        if found + len(chains) > max_subgroups:
            raise LatticeOverflowError(max_subgroups + 1, max_subgroups)
        found += len(chains)
        level = pending.setdefault(block.shape[1], ([], []))
        level[0].append(block)
        level[1].extend(chains)

    while pending:
        m = min(pending)
        blocks, chains = pending.pop(m)
        level = np.concatenate(blocks)
        # rows are sorted and of equal length, so this is Subgroup.sort_key order
        order = np.lexsort(level.T[::-1])
        level = level[order]
        chains = [chains[i] for i in order.tolist()]
        levels[m] = level
        counts, level_cyclic_sum = _totients(level, element_orders)
        totients += counts
        cyclic_sum += level_cyclic_sum
        if m == 1:
            # the children of the trivial subgroup: every <a> whose least
            # non-identity element is its least generator a, one block per order
            by_order = {}
            for a, powers in list(walks.items())[1:]:
                members = sorted(powers)
                if members[1] == a:  # members[0] is the identity
                    rows, firsts = by_order.setdefault(len(members), ([], []))
                    rows.append(members)
                    firsts.append((a,))
            for rows, firsts in by_order.values():
                accept(np.array(rows, dtype=table.dtype), firsts)
            continue
        rows = _BATCH_LIMIT // (m * n)
        lasts = np.array([chain[-1] for chain in chains])
        for start in range(0, len(level), max(rows, 1)):
            block = level[start : start + max(rows, 1)]
            # minima[r, x] = min(H_r * x), which is 0 exactly for x in H_r: a
            # chunk gathers table[block] whole, a subgroup too large for one walks its cosets
            minima = table[block].min(axis=1) if rows else _coset_minima(table, block[0])[None, :]
            r, a = np.nonzero((minima == keys) & (columns > lasts[start : start + len(block), None]))
            # a is canonical only if no part of <H, a> outside H lies below it:
            # not H*a^-1, not H*a^2 unless a^2 is in H, and not the double coset HaH
            square = minima[r, squares[a]]
            keep = (minima[r, inverses[a]] >= a) & ((square == 0) | (square >= a))
            r, a, square = r[keep], a[keep], square[keep]
            if abelian:
                step = square == 0
                if step.any():
                    # index-2 step: a^2 in H, so <H, a> = H u H*a, and a = min(H*a) already
                    rs, bs = r[step], a[step]
                    accept(
                        np.sort(np.concatenate([block[rs], table[block[rs], bs[:, None]]], axis=1), axis=1),
                        [chains[start + i] + (b,) for i, b in zip(rs.tolist(), bs.tolist())],
                    )
                r, a = r[~step], a[~step]
            else:
                # HaH = H*a when abelian; otherwise min(HaH) is the least min(H*a*h), h in H
                keep = minima[r[:, None], table[a[:, None], block[r]]].min(axis=1) >= a
                r, a = r[keep], a[keep]
            for i, b in zip(r.tolist(), a.tolist()):
                chain = chains[start + i]
                joined = _join_with_element(table, minima[i], chain, b, abelian)
                if joined is not None:  # None: b is not the least new element of the join
                    accept(joined.astype(table.dtype)[None, :], [chain + (b,)])

    return Lattice(G, levels, np.concatenate(totients).astype(np.int64), cyclic_sum)


def _totients(level, element_orders):
    """Each row's totient, the members whose order is the row's exponent, in
    blocks of up to _BATCH_LIMIT gathered orders; and the sum of the totients
    of the cyclic rows, those whose exponent is the row length m (their
    totient is phi(m))."""
    m = level.shape[1]
    counts, cyclic_sum = [], 0
    per_block = max(1, _BATCH_LIMIT // m)
    for start in range(0, len(level), per_block):
        orders = element_orders[level[start : start + per_block]]
        exponents = np.lcm.reduce(orders, axis=1)
        counts.append(np.count_nonzero(orders == exponents[:, None], axis=1))
        cyclic_sum += int(counts[-1][exponents == m].sum())
    return counts, cyclic_sum


def _coset_minima(table, members):
    """min(H*x) for every x, one right coset at a time: n gathered entries,
    where table[members].min(axis=0) gathers |H| * n."""
    row = np.full(len(table), -1, dtype=np.int64)
    x = 0
    while row[x] < 0:  # the identity's coset H is named 0, so argmin is 0 once all are
        row[table[members, x]] = x
        x = int(row.argmin())
    return row


def _join_with_element(table, minima, gens, a, abelian):
    """Sorted members of <H, a>, given minima[x] = min(H*x) and a generating
    set for H; None as soon as a coset added after H*a has its minimum below a.

    Dimino-style coset closure over coset names: a right coset is named by
    its minimum, and (H*x)*s = H*(x*s), so cosets are added until the
    named ones are closed under the generators, and members are gathered
    only for a join that succeeds.  In abelian groups H<a> is the union of
    the cosets H*a^k, so a alone is enough.
    """
    gens = [a] if abelian else [*gens, a]
    seen = {0, a}
    names = [a]
    for x in names:  # breadth first: names grows while it is read
        for c in minima.take(table[x].take(gens)).tolist():
            if c not in seen:
                if c < a:
                    return None
                seen.add(c)
                names.append(c)
    inside = np.zeros(len(table), dtype=bool)
    inside[[0, *names]] = True
    return np.flatnonzero(inside[minima])


def maximal_subgroups(L: Lattice) -> list[Subgroup]:
    """Proper subgroups in no larger proper subgroup, in canonical order,
    read from the largest order down: a non-maximal H lies in some
    maximal subgroup of larger order, which is kept before H is seen."""
    covered = np.zeros(len(L), dtype=bool)
    maxima: list[Subgroup] = []
    for i in range(len(L) - 2, -1, -1):
        if not covered[i]:
            maxima.append(L.subgroups[i])
            covered |= L.contained_in(L.subgroups[i].members)
    return maxima[::-1]


def frattini(L: Lattice) -> Subgroup:
    """Intersection of all maximal subgroups: the largest subgroup inside every maximum."""
    inside = np.ones(len(L), dtype=bool)
    for M in maximal_subgroups(L):
        inside &= L.contained_in(M.members)
    return L.subgroups[int(np.flatnonzero(inside)[-1])]


def is_normal(G: Group, H: Subgroup) -> bool:
    """True iff g H g^-1 = H for every g."""
    if G.is_abelian():
        return True
    table = G.table
    inv = G.inverses()
    members = H.members
    gh = table[:, members]                      # gh[g, i] = g * h_i
    conj = table[gh, inv[:, None]]              # conj[g, i] = g * h_i * g^-1
    conj.sort(axis=1)
    return bool((conj == np.asarray(members)[None, :]).all())


def complements(G: Group, N: Subgroup, L: Lattice) -> list[Subgroup]:
    """All K in L with |K| * |N| = |G| and trivial intersection with N."""
    if not is_normal(G, N):
        raise NotNormalError("complement counting requires a normal subgroup")
    if G.order % N.order != 0:
        raise NotNormalError("subgroup order must divide the group order")
    inside = np.zeros(G.order, dtype=bool)
    inside[N.members] = True
    return [K for K in L.of_order(G.order // N.order) if inside[K.members].sum() == 1]


def is_nilpotent(G: Group, L: Lattice) -> bool:
    """True iff every Sylow subgroup is unique (one subgroup per full prime part)."""
    return all(len(L.levels.get(p**k, ())) == 1 for p, k in factorize(G.order).items())


def sylow_subgroups(G: Group, L: Lattice) -> dict[int, list[Subgroup]]:
    """Sylow p-subgroups found in the lattice, keyed by prime."""
    out: dict[int, list[Subgroup]] = {}
    for p, k in factorize(G.order).items():
        out[p] = L.of_order(p**k)
    return out


def large_abelian_subgroup_witness(G: Group, L: Lattice) -> tuple[int, int] | None:
    """First abelian subgroup of order p^m and rank r with m + r >= n + 2,
    where |G| = p^n; None when no such subgroup exists."""
    pk = prime_power(G.order)
    if pk is None:
        raise NotPrimePowerError(f"group order {G.order} is not a prime power")
    p, n = pk
    parent_orders = G.element_orders()
    table = G.table
    for H in L.subgroups:
        if H.order == 1:
            continue
        m = valuation(H.order, p)
        sub_table = table[np.ix_(H.members, H.members)]
        if not np.array_equal(sub_table, sub_table.T):
            continue
        member_orders = parent_orders[np.asarray(H.members, dtype=np.int64)]
        # rank = log_p of the number of solutions of x^p = e
        low = int(np.count_nonzero(member_orders <= p))
        r = integer_log(low, p)
        if m + r >= n + 2:
            return (m, r)
    return None
