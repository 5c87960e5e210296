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
  * a^2 in H or min(H*a^2) >= a,
  * in non-abelian groups, min(HaH) = a, where min(HaH) is the least
    min(H*a*h) over h in H (in abelian groups HaH = H*a), and
  * when a does not normalize H, each of a*h*a, a*h*a^-1 and a^-1*h*a
    (h in H) in H or in a right coset whose minimum is >= a.

These are necessary conditions only; the join stays the complete test,
so they remove joins but never change what is found.  The HaH gather
says whether a normalizes H (every min(H*a*h) is a exactly when aH =
Ha); a normalizing a passes the last test by itself, and with a^2 in H
it is an index-2 step, <H, a> = H u H*a with least new element a =
min(H*a), accepted with no join.  A6 runs 238 joins, 70 abandoned.

The search sweeps one subgroup order at a time, smallest first; as
children outgrow their parents and chains are unique, the sweep order
changes nothing found.  By Lagrange a subgroup of prime index has no
proper overgroup but G, so a level of prime index is recorded but not
swept, and neither is G; when G's canonical chain passes through such a
level no sweep finds G, and G is accepted, under the same cap as every
other subgroup, once nothing is left to sweep.  Level 1 is read off the
least-generator walk: the children of the trivial subgroup are the <a>
whose least non-identity element is their least generator a, taken as
one block per order with no candidate sweep and no join.  Every larger
level's members form one matrix, swept in chunks of up to _BATCH_LIMIT =
2^18 gathered entries, and each chunk yields the right-coset minima
minima[r, x] = min(H_r*x) in the table's dtype: the chunk's members are
gathered member first, table.take(block.T, axis=0), so the min-reduction
runs over the leading axis, one contiguous (rows, |G|) plane per member.
A subgroup too large for one chunk (|H| * |G| > 2^18, first above order
1024 when |H| = |G| / 4, the largest swept) is reduced over slices of
its members, each of at most 2^18 gathered entries.  `is_normal` gathers
conjugates over the same slices.  Candidates are read off one flat mask,
and a chunk with none stops there.  Index-2 steps are built per chunk;
other candidates are joined one by one, by a breadth-first walk over
coset names that reads one table entry and one minimum per step: a right
coset is named by its minimum and (H*x)*s = H*(x*s), so the coset
reached from H*x by a generator s is minima[r, x*s], and members are
gathered only for a join that succeeds.  The cosets of H in <H, a> are
the same whatever set generates H, so a join whose a does not normalize
H walks by H's own members and a; for a normalizing a the sweep passes
no members, and the join walks by a alone.  No Python object is kept per
subgroup: beside its member matrix, each level holds its rows' last
chain generators, which the candidate mask reads.  One argsort per level
of more than one row, over the rows read as big-endian byte strings,
gives the canonical order.  One pass after the sweep counts each
subgroup's totient, batching consecutive rows of any widths up to
_BATCH_LIMIT gathered element orders, and keeps the vector on the
lattice, for every Gauss sum to read; it also sums the totients of the
cyclic subgroups (those whose exponent is their order), so
`Lattice.cyclic_sum` is |G| exactly when the lattice holds every cyclic
subgroup.  The rank-8 elementary abelian group (417199 subgroups) takes
0.5-0.65 s, totients included, on a 2-vCPU Xeon host.

A direct product of factors whose orders are pairwise coprime is not
swept.  By Goursat's lemma every subgroup of P x Q with
gcd(|P|, |Q|) = 1 is R x S for subgroups R of P and S of Q, and an order
m splits one way only, as r*s with r dividing |P| and s dividing |Q|.
So each factor is enumerated on its own (recursively, a nested coprime
product again from its factors), and the factors are folded left to
right, as `direct_product` folds their tables, on its labels p*|Q| + q:
the level of order r*s is the outer sum of P's level r, times |Q|, and
Q's level s.  It needs no sort: each row R*|Q| + S is sorted as it
comes, since R is sorted and S lies in 0..|Q|-1, and as every R starts
with the identity 0, a row begins with S's members, so the rows are in
canonical order with S's row index major and R's minor.  The totient of
R x S is phi(R) * phi(S) (an element of R x S has the exponent's order
exactly when both of its parts do), so each level's totients are an
outer product of the factors', and the cyclic sum is the product of the
factors' cyclic sums.  The subgroup count is the product of the
factors' counts, so the cap is checked before any product level is
built.  The folds pass arrays; only the finished lattice carries G.  The
factors are the very groups `direct_product` recorded (`Group._factors`),
those of order > 1 and for pairwise coprime orders only, as it wrote G's
table, so none is built again.  Every other group, including abelian
specs, tables read from files, a `Group` given a `product:` spec by its
caller and a product whose factor orders share a prime, is swept over
its own table.

The lattice keeps these level matrices and the totient vector, and every
query takes the lattice alone and reads its level rows; a Subgroup is
built only for a subgroup a query returns.  The down-set of one subgroup
is a `Lattice.contained_in` row test over the levels.  The walk for the
maximal subgroups reads the rows from the largest proper order down and
holds one down-set at a time, and the Frattini subgroup is the
intersection of the maxima's rows.  `is_normal` conjugates one generator
of each cyclic subgroup of H in its parent, and `complements` is one
mask test over the level of order |G|/|N|.
`Lattice.totients` is the package's only per-subgroup totient; its last
entry, the row of G itself, is the group totient that summaries report.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import (
    InvalidParameterError,
    LatticeOverflowError,
    NotNormalError,
    NotPrimePowerError,
)
from .groups import _BATCH_LIMIT, Group, _index_dtype
from .numtheory import factorize, integer_log, is_prime, prime_power, valuation

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
    the cyclic ones."""

    __slots__ = ("group", "levels", "totients", "cyclic_sum")

    def __init__(
        self, group: Group, levels: dict[int, np.ndarray], totients: np.ndarray, cyclic_sum: int
    ):
        self.group = group
        self.levels = levels
        self.totients = totients
        self.cyclic_sum = cyclic_sum

    def __len__(self) -> int:
        return len(self.totients)

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


def all_subgroups(G: Group, max_subgroups: int = DEFAULT_MAX_SUBGROUPS) -> Lattice:
    """Enumerate the complete subgroup lattice (see module docstring)."""
    if max_subgroups < 1:
        raise InvalidParameterError(f"max_subgroups must be at least 1, got {max_subgroups}")
    if G._factors:
        # pairwise coprime factors: every subgroup is a product of the factors' subgroups
        factors = [all_subgroups(F, max_subgroups) for F in G._factors]
        if math.prod(map(len, factors)) > max_subgroups:
            raise LatticeOverflowError(max_subgroups + 1, max_subgroups)
        levels, totients, cyclic_sum = reduce(
            _product_lattice, ((L.levels, L.totients, L.cyclic_sum) for L in factors)
        )
        return Lattice(G, levels, totients, cyclic_sum)
    return _sweep(G, max_subgroups)


def _product_lattice(P, Q):
    """(levels, totients, cyclic sum) of P x Q on direct_product's labels
    p*|Q| + q, from those of P and Q, whose orders are coprime: level r*s
    is R*|Q| + S over P's level r and Q's level s, S's row index major (see
    module docstring)."""
    (p_levels, p_totients, p_sum), (q_levels, q_totients, q_sum) = P, Q
    nq = list(q_levels)[-1]  # the last level is the group itself
    dtype = _index_dtype(list(p_levels)[-1] * nq)
    shifted = {r: level.astype(dtype) * nq for r, level in p_levels.items()}
    p_split, q_split = _level_totients(p_levels, p_totients), _level_totients(q_levels, q_totients)
    levels, totients = {}, []
    for m, r, s in sorted((r * s, r, s) for r in p_levels for s in q_levels):
        level = np.empty((len(q_levels[s]), len(shifted[r]), r, s), dtype=dtype)
        np.add(shifted[r][None, :, :, None], q_levels[s][:, None, None, :], out=level)
        levels[m] = level.reshape(-1, m)
        totients.append(np.multiply.outer(q_split[s], p_split[r]).ravel())
    return levels, np.concatenate(totients), p_sum * q_sum


def _level_totients(levels, totients) -> dict[int, np.ndarray]:
    """The totient vector split into one slice per level, keyed by order."""
    return dict(zip(levels, np.split(totients, np.cumsum([len(level) for level in levels.values()])[:-1])))


def _sweep(G: Group, max_subgroups: int) -> Lattice:
    """The canonical-chain sweep over G's own table (see module docstring)."""
    n = G.order
    table = G.table
    products = table.ravel()  # a*b is products[a*n + b]; Group keeps its table contiguous
    abelian = G.is_abelian()
    # keys[b] = b when b is the least generator of <b>, else 0: b is a
    # candidate exactly when min(H*b) == b and keys[b] is above H's last
    # chain generator, which is at least 1 in every swept H
    keys = np.zeros(n, dtype=table.dtype)
    walks = G.least_generators()
    least = list(walks)
    keys[least] = least
    squares = np.diagonal(table).copy()  # take() would copy a strided source on every call
    inverses = G.inverses()
    columns = np.arange(n, dtype=table.dtype)
    # order -> (member blocks, last chain generators) of the subgroups found so far
    pending = {1: ([np.zeros((1, 1), dtype=table.dtype)], [(0,)])}
    found = 1
    levels: dict[int, np.ndarray] = {}

    def accept(block, lasts):
        nonlocal found
        if found + len(lasts) > max_subgroups:
            raise LatticeOverflowError(max_subgroups + 1, max_subgroups)
        found += len(lasts)
        level = pending.setdefault(block.shape[1], ([], []))
        level[0].append(block)
        level[1].append(lasts)

    while True:
        if not pending:  # no sweep found G: its chain passes through a prime-index level, not swept
            accept(np.arange(n, dtype=table.dtype)[None, :], (0,))
        m = min(pending)
        blocks, lasts = pending.pop(m)
        level = np.concatenate(blocks)
        lasts = np.concatenate(lasts, dtype=table.dtype, casting="unsafe")  # each below n
        if len(level) > 1:
            order = _canonical_order(level)
            level, lasts = level[order], lasts[order]
        levels[m] = level
        if m == n:  # G itself has no child
            break
        if is_prime(n // m):  # by Lagrange, G is the only proper overgroup
            continue
        if m == 1:
            # the children of the trivial subgroup: every <a> whose least
            # non-identity element is its least generator a, one block per order
            by_order = {}
            for a, powers in list(walks.items())[1:]:
                members = sorted(powers)
                if members[1] == a:  # members[0] is the identity
                    rows, firsts = by_order.setdefault(len(members), ([], []))
                    rows.append(members)
                    firsts.append(a)
            for rows, firsts in by_order.values():
                accept(np.array(rows, dtype=table.dtype), firsts)
            continue
        rows = max(1, _BATCH_LIMIT // (m * n))
        width = max(1, _BATCH_LIMIT // n)
        for start in range(0, len(level), rows):
            block = level[start : start + rows]
            # minima[r, x] = min(H_r * x), which is 0 exactly for x in H_r, reduced
            # over slices of at most `width` members (one slice unless one row fills
            # the chunk); a slice is gathered member first, so each reduction step
            # is one contiguous (rows, n) plane
            slices = (
                np.minimum.reduce(table.take(block[:, j : j + width].T, axis=0)) for j in range(0, m, width)
            )
            minima = reduce(np.minimum, slices)
            flat = minima.ravel()
            mask = (minima == columns) & (keys > lasts[start : start + len(block), None])
            r, a = np.divmod(np.flatnonzero(mask), n)
            if not len(r):
                continue
            at = r * n  # minima[r, x] is flat[at + x]
            # a is canonical only if no part of <H, a> outside H lies below it:
            # not H*a^-1, not H*a^2 unless a^2 is in H, and not the double coset HaH
            square = flat.take(at + squares.take(a))
            keep = (flat.take(at + inverses.take(a)) >= a) & ((square == 0) | (square >= a))
            r, a, at, square = r[keep], a[keep], at[keep], square[keep]
            if abelian:  # every a normalizes H, and HaH = H*a
                normal = np.ones(len(a), dtype=bool)
            else:
                # hah[k, h] = min(H*a*h), so min(HaH) is the row minimum, and
                # every entry is a exactly when a normalizes H (aH = Ha)
                ah = products.take(a[:, None] * n + block.take(r, axis=0))
                hah = flat.take(at[:, None] + ah)
                keep, normal = hah.min(axis=1) >= a, hah.max(axis=1) == a
                odd = np.flatnonzero(keep & ~normal)
                if len(odd):
                    # a non-normalizing a also needs a*h*a, a*h*a^-1 and a^-1*h*a, all in <H, a>, in H
                    # or in cosets with minima >= a (2-D indexing: no uint16 product is scaled by n)
                    ao, ai, aho, h = a[odd, None], inverses.take(a[odd, None]), ah[odd], block[r[odd]]
                    x = np.hstack([table[aho, ao], table[aho, ai], table[ai, table[h, ao]]])
                    mins = minima[r[odd, None], x]
                    keep[odd] = ((mins == 0) | (mins >= ao)).all(axis=1)
                r, a, square, normal = r[keep], a[keep], square[keep], normal[keep]
            step = normal & (square == 0)
            if step.any():
                # index-2 step: a normalizes H and a^2 is in H, so <H, a> =
                # H u H*a, and a = min(H*a) already
                rs, bs = r[step], a[step]
                accept(
                    np.sort(np.concatenate([block[rs], table[block[rs], bs[:, None]]], axis=1), axis=1), bs
                )
            join = ~step
            for i, b, nrm in zip(r[join].tolist(), a[join].tolist(), normal[join].tolist()):
                # H's members but the identity generate H; a normalizing b needs none
                joined = _join_with_element(table, minima[i], () if nrm else block[i, 1:].tolist(), b)
                if joined is not None:  # None: b is not the least new element of the join
                    accept(joined.astype(table.dtype)[None, :], (b,))

    totients, cyclic_sum = _totients(levels, G.element_orders())
    return Lattice(G, levels, totients, cyclic_sum)


def _canonical_order(level: np.ndarray) -> np.ndarray:
    """The permutation that puts a level's rows, sorted member lists of one
    length, in Subgroup.sort_key order: one argsort of the rows read as
    big-endian byte strings, which compare as the member lists do."""
    rows = np.ascontiguousarray(level, dtype=level.dtype.newbyteorder(">"))
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0].argsort()


def _totients(levels, element_orders):
    """Each row's totient, the members whose order is the row's exponent, and
    the sum of the totients of the cyclic rows, those whose exponent is their
    length m (their totient is phi(m)).  Element orders are gathered in the
    narrowest dtype that holds |G| (the exponent divides |G|)."""
    orders = element_orders.astype(_index_dtype(len(element_orders) + 1))
    counts, cyclic_sum = [], 0
    for batch in _row_batches(levels):
        widths = np.repeat([block.shape[1] for block in batch], [len(block) for block in batch])
        gathered = orders[np.concatenate(batch, axis=None)]
        starts = np.cumsum(widths) - widths
        exponents = np.lcm.reduceat(gathered, starts)
        counts.append(np.add.reduceat(gathered == np.repeat(exponents, widths), starts, dtype=np.int64))
        cyclic_sum += int(counts[-1][exponents == widths].sum())
    return np.concatenate(counts), cyclic_sum


def _row_batches(levels):
    """Consecutive blocks of rows, of any widths, in lattice order, each batch
    up to _BATCH_LIMIT entries (a wider row alone)."""
    batch, size = [], 0
    for m, level in levels.items():
        per_block = max(1, _BATCH_LIMIT // m)
        for start in range(0, len(level), per_block):
            block = level[start : start + per_block]
            if batch and size + block.size > _BATCH_LIMIT:
                yield batch
                batch, size = [], 0
            batch.append(block)
            size += block.size
    yield batch


def _join_with_element(table, minima, gens, a):
    """Sorted members of <H, a>, given minima[x] = min(H*x) and `gens`: H's
    members, or nothing when a normalizes H; None as soon as a coset added
    after H*a has its minimum below a.

    Dimino-style coset closure over coset names: a right coset is named by
    its minimum, and (H*x)*s = H*(x*s), so cosets are added until the
    named ones are closed under `gens` and a, and members are gathered
    only for a join that succeeds.  Any generating set of H will do for
    `gens`, and when a normalizes H, H<a> is the union of the cosets
    H*a^k, so a alone is enough.
    """
    gens = [*gens, a]
    seen = {0, a}
    names = [a]
    for x in names:  # breadth first: names grows while it is read
        for g in gens:
            c = minima.item(table.item(x, g))
            if c not in seen:
                if c < a:
                    return None
                seen.add(c)
                names.append(c)
    inside = np.zeros(len(table), dtype=bool)
    inside[[0, *names]] = True
    return np.flatnonzero(inside[minima])


def _maxima(L: Lattice):
    """(row, down-set) of each maximal subgroup, in reverse canonical order:
    the proper subgroups in no larger proper subgroup, read from the largest
    proper order down, since a non-maximal H lies in some maximal subgroup
    of larger order, which is met before H.  The down-set, the bool vector
    of the subgroups inside the maximum, is the one the walk marks as
    covered; only one is held at a time."""
    covered = np.zeros(len(L), dtype=bool)
    i = len(L) - 1  # G's index
    for level in list(L.levels.values())[-2::-1]:
        for row in level[::-1]:
            i -= 1
            if not covered[i]:
                down = L.contained_in(row)
                covered |= down
                yield row, down


def maximal_subgroups(L: Lattice) -> list[Subgroup]:
    """Proper subgroups in no larger proper subgroup, in canonical order."""
    return [Subgroup(L.group, row) for row, _ in _maxima(L)][::-1]


def frattini(L: Lattice) -> Subgroup:
    """Intersection of all maximal subgroups (G when there is none)."""
    rows = (row for row, _ in _maxima(L))
    return Subgroup(L.group, reduce(np.intersect1d, rows, L.levels[L.group.order][0]))


def is_normal(H: Subgroup) -> bool:
    """True iff g H g^-1 = H for every g in H's parent.  Conjugation is a
    bijection, so g H g^-1 inside H is enough, and as H is the union of its
    cyclic subgroups and g<x>g^-1 = <g x g^-1>, only one generator x of each
    needs conjugating: H's least generators in ascending order, each skipped
    when a power of one already taken.  Their conjugates are gathered over
    slices of at most _BATCH_LIMIT entries, as the sweep does."""
    G = H.parent
    if G.is_abelian():
        return True
    walks = G.least_generators()
    covered: set[int] = set()
    gens = []
    for x in H.members[1:].tolist():  # members[0] is the identity
        if x not in covered and x in walks:
            gens.append(x)
            covered.update(walks[x])
    table = G.table
    inv = G.inverses()[:, None]
    inside = np.zeros(G.order, dtype=bool)
    inside[H.members] = True
    width = max(1, _BATCH_LIMIT // G.order)
    # table[table[g, x], inv[g]] = g * x * g^-1
    slices = (table[:, gens[j : j + width]] for j in range(0, len(gens), width))
    return all(inside[table[gx, inv]].all() for gx in slices)


def complements(L: Lattice, N: Subgroup) -> list[Subgroup]:
    """All K in L with |K| * |N| = |G| and trivial intersection with N: the
    rows of level |G| / |N| holding one member of N, the identity."""
    G = L.group
    if not is_normal(N):
        raise NotNormalError("complement counting requires a normal subgroup")
    if G.order % N.order != 0:
        raise NotNormalError("subgroup order must divide the group order")
    level = L.levels.get(G.order // N.order)
    if level is None:
        return []
    inside = np.zeros(G.order, dtype=bool)
    inside[N.members] = True
    return [Subgroup(G, level[i]) for i in np.flatnonzero(inside[level].sum(axis=1) == 1)]


def is_nilpotent(L: Lattice) -> bool:
    """True iff every Sylow subgroup is unique (one subgroup per full prime part)."""
    return all(len(L.levels.get(p**k, ())) == 1 for p, k in factorize(L.group.order).items())


def sylow_subgroups(L: Lattice) -> dict[int, list[Subgroup]]:
    """Sylow p-subgroups found in the lattice, keyed by prime."""
    return {p: L.of_order(p**k) for p, k in factorize(L.group.order).items()}


def large_abelian_subgroup_witness(L: Lattice) -> tuple[int, int] | None:
    """First abelian subgroup of order p^m and rank r with m + r >= n + 2,
    where |G| = p^n, in canonical order; None when no such subgroup exists.
    The rank is at most m, so only levels with 2m >= n + 2 are read.  An
    abelian row of rank r has p^r solutions of x^p = e, so a level's rows
    with fewer than p^(n+2-m) are dropped first; in a non-abelian G the
    rest are tested a chunk at a time, a row being abelian when its member
    table, gathered for the whole chunk, equals its transpose."""
    G = L.group
    pk = prime_power(G.order)
    if pk is None:
        raise NotPrimePowerError(f"group order {G.order} is not a prime power")
    p, n = pk
    low = G.element_orders() <= p  # x^p = e
    products = G.table.ravel()
    abelian = G.is_abelian()
    for order, level in L.levels.items():
        m = valuation(order, p)
        if 2 * m < n + 2:
            continue
        solutions = np.count_nonzero(low[level], axis=1)
        candidates = np.flatnonzero(solutions >= p ** (n + 2 - m))
        chunk = max(1, _BATCH_LIMIT // (order * order))
        for start in range(0, len(candidates), chunk):
            rows = candidates[start : start + chunk]
            if not abelian:
                members = level[rows].astype(np.intp)
                sub = products.take(members[:, :, None] * G.order + members[:, None, :])
                rows = rows[(sub == sub.transpose(0, 2, 1)).all(axis=(1, 2))]
            if len(rows):
                return (m, integer_log(int(solutions[rows[0]]), p))
    return None
