"""Independent brute-force oracles for cross-checking the library.

Everything here works on plain Python lists of lists and deliberately
avoids the library's own code paths: subgroup enumeration closes the
cyclic subgroups under undirected pairwise joins until a fixed point,
element orders come from repeated multiplication, and totients are
direct counts.  Slow but obviously correct; intended for small groups.
Three helpers use numpy.  The associativity row sweep tests every triple
too, but one row at a time, so that it stays quick at the orders (up to
64) that the validator is checked against it.  The power-map sweep finds
element orders by raising every element to successive powers at once, so
it can check orders at the thousands.  `relabel` renames elements to
draw new tables of a known group.  `as_group` is the one helper that
builds a library object: the induced group on a subgroup's members.
`abelian_expected` is the benchmark's closed-form oracle for abelian
groups (Birkhoff's subgroup counts), loaded from ``perfbench/oracles.py``
by path; `summary_fields` puts a library summary under its keys.
`reference_groups` is the frozen copy of the group constructors in
``perfbench/reference/``, loaded by path and only read, whose tables the
library's must match byte for byte.
"""

import importlib
import importlib.util
import random
import sys
from math import gcd
from pathlib import Path

import numpy as np

from grouptotient import Group

_ORACLES = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracles", _ORACLES)
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
abelian_expected = _module.abelian_expected

_REFERENCE = _ORACLES.parent / "reference"
_spec = importlib.util.spec_from_file_location(
    "perfbench_reference", _REFERENCE / "__init__.py", submodule_search_locations=[str(_REFERENCE)]
)
sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sys.modules[_spec.name])
reference_groups = importlib.import_module("perfbench_reference.groups")


def summary_fields(summary):
    """The seven summary fields that `abelian_expected` predicts, under its keys."""
    return {
        "order": summary.group_order,
        "phi": summary.phi,
        "s_value": summary.s_value,
        "subgroup_count": summary.subgroup_count,
        "cyclic": summary.cyclic,
        "nilpotent": summary.nilpotent,
        "in_class_c": summary.in_class_c,
    }


def naive_order(table, a):
    k, x = 1, a
    while x != 0:
        x = table[x][a]
        k += 1
    return k


def naive_orders(table):
    return [naive_order(table, a) for a in range(len(table))]


def power_map_orders(table):
    """Element orders (int64) by one sweep over power maps: step k forms
    x^k for every x whose order is still unknown, so it costs O(n * exponent)."""
    table = np.asarray(table)
    orders = np.zeros(len(table), dtype=np.int64)
    orders[0] = 1
    alive = np.arange(1, len(table))
    current = alive.copy()
    k = 1
    while alive.size:
        k += 1
        current = table[current, alive].astype(np.int64)
        done = current == 0
        orders[alive[done]] = k
        alive, current = alive[~done], current[~done]
    return orders


def relabel(table, seed):
    """The table of the same group with its non-identity elements renamed
    by a random permutation (the identity stays at 0)."""
    table = np.asarray(table, dtype=np.int64)
    rest = list(range(1, len(table)))
    random.Random(seed).shuffle(rest)
    pi = np.array([0] + rest)
    new = np.empty_like(table)
    new[pi[:, None], pi[None, :]] = pi[table]
    return new


def as_group(H):
    """The induced group on the subgroup H's members, re-indexed with the
    identity first (members are sorted, and member 0 is the identity)."""
    parent = H.parent
    lut = np.zeros(parent.order, dtype=np.int64)
    lut[H.members] = np.arange(H.order)
    return Group(lut[parent.table[np.ix_(H.members, H.members)]])


def naive_exponent(table):
    exp = 1
    for o in naive_orders(table):
        exp = exp * o // gcd(exp, o)
    return exp


def naive_phi(table):
    orders = naive_orders(table)
    exp = naive_exponent(table)
    return sum(1 for o in orders if o == exp)


def naive_closure(table, seed):
    members = {0} | set(seed)
    changed = True
    while changed:
        changed = False
        current = list(members)
        for x in current:
            for y in current:
                p = table[x][y]
                if p not in members:
                    members.add(p)
                    changed = True
    return frozenset(members)


def naive_is_normal(table, members):
    """g*h*g^-1 lies in H for every g in the group and h in H."""
    n = len(table)
    inverse = [next(y for y in range(n) if table[x][y] == 0) for x in range(n)]
    inside = set(members)
    return all(table[table[g][h]][inverse[g]] in inside for g in range(n) for h in members)


def naive_cyclic_subgroups(table):
    subs = set()
    for a in range(len(table)):
        members = [0]
        x = a
        while x != 0:
            members.append(x)
            x = table[x][a]
        subs.add(frozenset(members))
    return subs


def naive_all_subgroups(table):
    """Fixed-point closure of the cyclic subgroups under pairwise joins."""
    subs = set(naive_cyclic_subgroups(table))
    changed = True
    while changed:
        changed = False
        current = list(subs)
        for i, A in enumerate(current):
            for B in current[i + 1 :]:
                if A <= B or B <= A:
                    continue
                joined = naive_closure(table, A | B)
                if joined not in subs:
                    subs.add(joined)
                    changed = True
    return subs


def naive_subgroup_phi(table, members):
    orders = {a: naive_order(table, a) for a in members}
    exp = 1
    for o in orders.values():
        exp = exp * o // gcd(exp, o)
    return sum(1 for o in orders.values() if o == exp)


def naive_gauss_sum(table):
    return sum(naive_subgroup_phi(table, H) for H in naive_all_subgroups(table))


def naive_is_associative(table):
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return False, (a, b, c)
    return True, None


def row_sweep_associativity(table):
    """Test all n^3 triples one row at a time; return the first (a, b, c)
    with (a*b)*c != a*(b*c), or None when the table is associative."""
    t = np.asarray(table, dtype=np.int64)
    for a in range(len(t)):
        left = t[t[a]]  # left[b, c] = (a*b)*c
        right = t[a][t]  # right[b, c] = a*(b*c)
        if not np.array_equal(left, right):
            b, c = map(int, np.argwhere(left != right)[0])
            return a, b, c
    return None


def naive_permutation_table(degree, gens):
    """Cayley table of the permutation group that `gens` generate on
    0..degree-1, composing "a then b": (a*b)(i) = b[a[i]].

    Elements are numbered breadth-first from the identity (queue order,
    then generator order), and every one of the n^2 products is formed as
    a tuple and looked up in a dict.
    """
    identity = tuple(range(degree))
    elements = [identity]
    index = {identity: 0}
    cursor = 0
    while cursor < len(elements):
        current = elements[cursor]
        cursor += 1
        for gen in gens:
            product = tuple(gen[i] for i in current)
            if product not in index:
                index[product] = len(elements)
                elements.append(product)
    return [[index[tuple(b[x] for x in a)] for b in elements] for a in elements]
