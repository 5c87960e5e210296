"""Verification suites and the counterexample scan harness.

Every suite compares an exact expected value (a closed form or an
independently derived count) against a brute-force value computed from
complete lattice enumeration.  Suite output is deterministic for a given
(suite id, params) pair: reports are byte-identical across runs.

Each suite is declared once, as a row of `_SUITES`: its id, its runner and
its parameters with their defaults.  `run_suite` rejects a parameter the
row does not declare or not of its default's kind (a list or tuple for a
tuple, an int but not a bool for an int), hands the runner a fresh
`SuiteResult` and the defaults overlaid with the given parameters, and
refuses a result with no case.  The scan families are likewise the keys
of one table, `_SCAN_CORPORA`, that maps each to its corpus builder.

Suites share one per-process lattice cache: `summarize_spec` and the
suites reach a spec's lattice through `_cached_lattice`, which checks the
order cap, enumerates the lattice once and keeps, keyed by (spec string,
subgroup cap), only its level matrices, totient vector and cyclic sum,
stored read-only.  A hit builds the group again
from its spec (cheap and deterministic) and wraps the cached arrays.  The
cache holds at most _LATTICE_CACHE_BYTES = 4 MiB of arrays, kept as a
running total, evicting the least recently used; a larger lattice is
never stored.  The nine theorem suites of the benchmark leave 0.1 MiB
of arrays in it (149 lattices).  Scans summarize without it: each of
their groups is seen once, so caching would only hold memory.

A scan item is a GroupSpec, a spec string or a CatalogueEntry, whose
report id is the spec's string or the file's stem.  A bare Group is
refused: it has no id of its own, and two tables of one order would clash.

Every query here takes the lattice alone and reads it in batches.  The
inclusion-exclusion identity adds each S(M) off the down-set that the
walk for the maximal subgroups yields for M, and S(Frattini) off the
running AND of those down-sets, since K lies in the Frattini subgroup
exactly when it lies in every maximal subgroup.  The class closure marks
a chunk of one level's rows at a time and tests every level whose order
divides theirs against the marks, so it makes no query per subgroup.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from functools import lru_cache
from itertools import chain, count, product, repeat, takewhile

import numpy as np

from .catalogue import CatalogueEntry
from .errors import (
    InvalidParameterError,
    LatticeOverflowError,
    NotPrimePowerError,
    OrderOverflowError,
    RangeTooLargeError,
    UnknownSuiteError,
)
from .groups import _BATCH_LIMIT, DEFAULT_MAX_ORDER, AbelianType, Group, GroupSpec, construct, parse_spec
from .lattice import (
    DEFAULT_MAX_SUBGROUPS,
    Lattice,
    _maxima,
    all_subgroups,
    complements,
    frattini,  # not called here; perfbench/spans.py wraps it in this namespace by name
    is_nilpotent,
    large_abelian_subgroup_witness,
    maximal_subgroups,  # not called here; perfbench/spans.py wraps it in this namespace by name
    sylow_subgroups,
)
from .numtheory import divisors, euler_phi, factorize, is_prime, prime_power
from .reports import GaussSummary, ScanResult, ScanRow, SuiteResult
from .totient import (
    cyclic_totient_sum,  # not called here; perfbench/spans.py wraps it in this namespace by name
    dihedral_gauss_sum,
    dihedral_totient,
    fixed_point_free_decomposition,
    gauss_sum,
    group_totient,  # not called here; perfbench/spans.py wraps it in this namespace by name
    semidirect_gauss_sum,
    two_group_gauss_sum,
)

# Sized so the largest order-256 abelian lattice (417199 subgroups for the
# rank-8 elementary abelian group) fits without tripping the guard.
SUITE_MAX_SUBGROUPS = 600000

DIHEDRAL_TOTIENT_NOTE = (
    "dihedral parameter 2: the published piecewise totient lists 4, but direct "
    "counting gives 3 (the Klein four-group has three involutions) and the "
    "order-12 Gauss sum 23 reproduces only with 3; the direct count is used"
)

PQ_PAIRS_DEFAULT = ((2, 3), (3, 7), (2, 5), (5, 11), (3, 13))


# ---------------------------------------------------------------------------
# single-group summaries


def summarize(G: Group, max_subgroups: int = SUITE_MAX_SUBGROUPS) -> GaussSummary:
    """Full per-group record: totient, Gauss sum, lattice size, class membership."""
    return _summary(all_subgroups(G, max_subgroups=max_subgroups))


def _summary(L: Lattice) -> GaussSummary:
    s = gauss_sum(L)
    return GaussSummary(
        group_order=L.group.order,
        phi=int(L.totients[-1]),  # the last row of the lattice is G
        s_value=s,
        cyclic_sum=L.cyclic_sum,
        subgroup_count=len(L),
        in_class_c=s == L.group.order,
        nilpotent=is_nilpotent(L),
        # Gauss: sum_{d|n} phi(d) = n, so at most one subgroup per order leaves phi(n) elements of order n
        cyclic=all(len(level) == 1 for level in L.levels.values()),
    )


@lru_cache(maxsize=None)
def summarize_spec(
    spec_text: str,
    max_order: int = DEFAULT_MAX_ORDER,
    max_subgroups: int = SUITE_MAX_SUBGROUPS,
) -> GaussSummary:
    """Cached summary keyed by spec string, shared across suites."""
    return _summary(_cached_lattice(spec_text, max_order, max_subgroups))


class _LatticeCache(OrderedDict):
    """(spec string, subgroup cap) -> (levels, totients, cyclic sum, bytes held),
    least recently used first.  `held` is the running total of the entries'
    bytes; it stays exact while entries are added and evicted only by `store`."""

    held = 0

    def store(self, key, entry) -> None:
        """Add an entry of at most _LATTICE_CACHE_BYTES bytes, first evicting
        the least recently used ones until it fits."""
        while self.held + entry[3] > _LATTICE_CACHE_BYTES:
            self.held -= self.popitem(last=False)[1][3]
        self[key] = entry
        self.held += entry[3]


_lattices = _LatticeCache()
_LATTICE_CACHE_BYTES = 4 << 20


def _cached_lattice(spec, max_order, max_subgroups) -> Lattice:
    """The lattice of a suite spec (text or parsed), within both caps,
    enumerated at most once per process while it stays in the cache (see
    module docstring)."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    _require_order(spec.order(), max_order)
    G = construct(spec, max_order=max_order)
    key = (str(G.spec), max_subgroups)
    if key in _lattices:
        _lattices.move_to_end(key)
        levels, totients, cyclic_sum, _ = _lattices[key]
        return Lattice(G, dict(levels), totients, cyclic_sum)
    L = all_subgroups(G, max_subgroups=max_subgroups)
    arrays = [*L.levels.values(), L.totients]
    size = sum(a.nbytes for a in arrays)
    if size <= _LATTICE_CACHE_BYTES:
        for a in arrays:
            a.setflags(write=False)
        _lattices.store(key, (dict(L.levels), L.totients, L.cyclic_sum, size))
    return L


def subgroup_gauss_sum_from_lattice(L: Lattice, sub) -> int:
    """Gauss sum of a subgroup read off the parent lattice: sum the totients
    of all lattice members contained in it."""
    return int(L.totients[L.contained_in(sub.members)].sum())


def class_subgroup_closure(L: Lattice) -> list[tuple[int, bool]]:
    """Class membership of every subgroup, read off the parent lattice:
    (subgroup order, Gauss sum equals order) per subgroup in canonical
    order.  Lets scans probe empirically whether membership is inherited
    by subgroups.

    One level of H at a time, a chunk of its rows marked in a bool
    (rows, |G|) matrix: for every level K whose order divides |H|, the
    marks gathered at K's members and reduced with `all` say which K lie
    in which H, and their totients are added into S(H).  No gather holds
    more than _BATCH_LIMIT entries unless one row alone is wider."""
    totients = np.split(L.totients, np.cumsum([len(level) for level in L.levels.values()])[:-1])
    n = L.group.order
    closure = []
    chunk = max(1, _BATCH_LIMIT // n)
    for h, level in L.levels.items():
        for start in range(0, len(level), chunk):
            block = level[start : start + chunk]
            marks = np.zeros((len(block), n), dtype=bool)
            marks[np.arange(len(block))[:, None], block] = True
            sums = np.zeros(len(block), dtype=np.int64)
            for (k, down), phis in zip(L.levels.items(), totients):
                if h % k:
                    continue
                step = max(1, _BATCH_LIMIT // (len(block) * k))
                for j in range(0, len(down), step):
                    sums += marks[:, down[j : j + step]].all(axis=2) @ phis[j : j + step]
            closure += zip(repeat(h), (sums == h).tolist())
    return closure


def inclusion_exclusion_residual(L: Lattice) -> tuple[int, int]:
    """Both sides of the maximal-subgroup inclusion-exclusion identity
    S(G) = phi(G) + sum_i S(M_i) - p * S(Frattini) for p-groups with
    p + 1 maximal subgroups.  Each S(M_i) sums the totients of M_i's
    down-set, and K lies in the Frattini subgroup exactly when it lies in
    every M_i, so S(Frattini) sums those of the AND of the down-sets,
    each added and ANDed as the walk yields it."""
    pk = prime_power(L.group.order)
    if pk is None:
        raise NotPrimePowerError(f"group order {L.group.order} is not a prime power")
    maxima_sum, inside = 0, np.ones(len(L), dtype=bool)
    for _, down in _maxima(L):
        maxima_sum += int(L.totients[down].sum())
        inside &= down
    return gauss_sum(L), int(L.totients[-1]) + maxima_sum - pk[0] * int(L.totients[inside].sum())


# ---------------------------------------------------------------------------
# corpus enumeration


def _partitions(k: int, least: int = 1) -> list[tuple[int, ...]]:
    """Integer partitions of k into parts >= least, ascending parts, deterministic order."""
    if k == 0:
        return [()]
    return [(part, *rest) for part in range(least, k + 1) for rest in _partitions(k - part, part)]


def abelian_type_specs(max_order: int) -> list[GroupSpec]:
    """Every abelian type (one spec per isomorphism class) of order 2..max_order."""
    specs = []
    for n in range(2, max_order + 1):
        # per prime p^e of n, the parts p^a of each partition of e
        per_prime = [
            [[p**a for a in partition] for partition in _partitions(e)]
            for p, e in sorted(factorize(n).items())
        ]
        for chosen in product(*per_prime):
            specs.append(GroupSpec("abelian", tuple(sorted(chain.from_iterable(chosen)))))
    return specs


def _doublings(start: int, bound: int) -> list[int]:
    """start, 2 * start, 4 * start, ... up to bound."""
    out = []
    while start <= bound:
        out.append(start)
        start *= 2
    return out


def _cube_primes(bound: int) -> list[int]:
    """The primes p with p^3 <= bound, ascending."""
    return [p for p in takewhile(lambda p: p**3 <= bound, count(2)) if is_prime(p)]


def _one_parameter(family: str, values) -> list[GroupSpec]:
    return [GroupSpec(family, (v,)) for v in values]


def _modular_specs(bound: int) -> list[GroupSpec]:
    return [
        GroupSpec("modular", (p, n))
        for p in _cube_primes(bound)
        for n in takewhile(lambda n: p**n <= bound, count(4 if p == 2 else 3))
    ]


def _nilpotent_specs(bound: int) -> list[GroupSpec]:
    parts = ("abelian", "dihedral2", "quaternion", "semidihedral", "modular", "heisenberg")
    return [spec for family in parts for spec in _SCAN_CORPORA[family](bound)]


# scan family -> the specs of its groups of order at most a bound
_SCAN_CORPORA = {
    "cyclic": lambda bound: _one_parameter("cyclic", range(1, bound + 1)),
    "abelian": abelian_type_specs,
    "dihedral": lambda bound: _one_parameter("dihedral", range(2, bound // 2 + 1)),
    "dihedral2": lambda bound: _one_parameter("dihedral", _doublings(4, bound // 2)),
    "quaternion": lambda bound: _one_parameter("quaternion", _doublings(8, bound)),
    "semidihedral": lambda bound: _one_parameter("semidihedral", _doublings(16, bound)),
    "modular": _modular_specs,
    "heisenberg": lambda bound: _one_parameter("heisenberg", _cube_primes(bound)[1:]),  # p > 2
    "nilpotent": _nilpotent_specs,
}
SCAN_FAMILIES = tuple(_SCAN_CORPORA)


def family_specs(family: str, max_order: int) -> list[GroupSpec]:
    """Built-in family corpora bounded by group order."""
    if family not in _SCAN_CORPORA:
        raise InvalidParameterError(f"unknown scan family {family!r}")
    return _SCAN_CORPORA[family](max_order)


def order_p_element_mod(p: int, q: int) -> int:
    """Smallest t >= 2 of multiplicative order exactly p modulo q; needs p | q-1."""
    if (q - 1) % p != 0:
        raise InvalidParameterError(f"{p} does not divide {q} - 1")
    for t in range(2, q):
        if pow(t, p, q) == 1:
            return t
    raise InvalidParameterError(f"no element of order {p} modulo {q}")


def pq_group_spec(p: int, q: int) -> GroupSpec:
    """The non-abelian group of order p*q (p < q primes, p | q-1)."""
    if not (is_prime(p) and is_prime(q) and p < q):
        raise InvalidParameterError(f"need primes p < q, got {p}, {q}")
    return GroupSpec("sdp", (q, p, order_p_element_mod(p, q)))


# ---------------------------------------------------------------------------
# classical integer check


def verify_classical_gauss(limit: int) -> SuiteResult:
    """Divisor-sum identity for the integer totient: sum over d | n equals n."""
    if limit < 1:
        raise InvalidParameterError(f"limit must be >= 1, got {limit}")
    result = SuiteResult(suite_id="gauss")
    for n in range(1, limit + 1):
        result.add(f"n={n}", n, sum(euler_phi(d) for d in divisors(n)))
    return result


# ---------------------------------------------------------------------------
# theorem suites


def _require_order(spec_order: int, max_order: int) -> None:
    if spec_order > max_order:
        raise RangeTooLargeError(
            f"requested group order {spec_order} exceeds the cap {max_order}"
        )


def _parsed(corpus) -> list[GroupSpec]:
    return [parse_spec(text) if isinstance(text, str) else text for text in corpus]


def _suite_thm3(result, params, max_order, max_subgroups) -> None:
    bound = params["max_order"]
    _require_order(bound, max_order)
    for spec in abelian_type_specs(bound):
        summary = summarize_spec(str(spec), max_order, max_subgroups)
        rank = AbelianType(spec.params).max_rank()
        expected = "S=|G|" if rank == 1 else "S>|G|+1"
        s, order = summary.s_value, summary.group_order
        if s == order:
            actual = "S=|G|"
        elif s > order + 1:
            actual = "S>|G|+1"
        elif s > order:
            actual = "|G|<S<=|G|+1"
        else:
            actual = "S<|G|"
        result.add(str(spec), expected, actual)


THM4_CORPUS_DEFAULT = (
    "abelian:2,2,2,2",
    "abelian:2,2,4",
    "abelian:2,2,2,2,2",
    "abelian:4,4",
    "abelian:3,3,3,3",
    "dihedral:8",
    "quaternion:16",
    "semidihedral:16",
    "modular:2,4",
    "modular:2,5",
    "modular:3,4",
    "product:(dihedral:4)x(cyclic:2)",
    "product:(quaternion:8)x(cyclic:2)",
)


def _suite_thm4(result, params, max_order, max_subgroups) -> None:
    for spec in _parsed(params["corpus"]):
        pk = prime_power(spec.order())
        if pk is None or pk[1] < 4:
            raise InvalidParameterError(f"{spec}: corpus group must have order p^n, n >= 4")
        L = _cached_lattice(spec, max_order, max_subgroups)
        witness = large_abelian_subgroup_witness(L)
        if witness is None:
            result.add(f"{spec}/no-witness", "no-witness", "no-witness")
            continue
        s, n = gauss_sum(L), L.group.order
        m, r = witness
        actual = "S>|G|" if s > n else f"violated (S={s}, |G|={n})"
        result.add(f"{spec}/witness-m{m}-r{r}", "S>|G|", actual)


THM5_M_DEFAULT = ((2, 4), (2, 5), (3, 3), (3, 4))


def _suite_thm5(result, params, max_order, max_subgroups) -> None:
    n_max = params["n_max"]
    _require_order(2**n_max, max_order)
    jobs: list[tuple[GroupSpec, int | None]] = []
    for n in range(3, n_max + 1):
        jobs.append((GroupSpec("dihedral", (2 ** (n - 1),)), two_group_gauss_sum("D", n)))
        jobs.append((GroupSpec("quaternion", (2**n,)), two_group_gauss_sum("Q", n)))
        if n >= 4:
            jobs.append((GroupSpec("semidihedral", (2**n,)), two_group_gauss_sum("SD", n)))
    for p, n in params["modular"]:
        _require_order(p**n, max_order)
        jobs.append((GroupSpec("modular", (p, n)), None))
    for spec, closed in jobs:
        L = _cached_lattice(spec, max_order, max_subgroups)
        s = gauss_sum(L)
        if closed is not None:
            result.add(f"{spec}/closed-form", s, closed)
        lhs, rhs = inclusion_exclusion_residual(L)
        result.add(f"{spec}/inclusion-exclusion", lhs, rhs)
        result.add(f"{spec}/exceeds-order", True, s > L.group.order)


def _suite_thm7(result, params, max_order, max_subgroups) -> None:
    n_max = params["n_max"]
    _require_order(2 * n_max, max_order)
    result.discrepancy_notes.append(DIHEDRAL_TOTIENT_NOTE)
    for n in range(2, n_max + 1):
        spec = GroupSpec("dihedral", (n,))
        summary = summarize_spec(str(spec), max_order, max_subgroups)
        result.add(f"{spec}/membership", n % 2 == 1, summary.in_class_c)
        result.add(f"{spec}/totient-closed-form", summary.phi, dihedral_totient(n))
        result.add(f"{spec}/gauss-sum-formula", summary.s_value, dihedral_gauss_sum(n))


def _suite_remark_d2n(result, params, max_order, max_subgroups) -> None:
    n_max = params["n_max"]
    _require_order(2 * n_max, max_order)
    for n in range(2, n_max + 1, 2):
        spec = GroupSpec("dihedral", (n,))
        summary = summarize_spec(str(spec), max_order, max_subgroups)
        result.add(str(spec), summary.s_value, dihedral_gauss_sum(n))


def _suite_thm8(result, params, max_order, max_subgroups) -> None:
    n_max = params["dihedral_max"]
    _require_order(2 * n_max, max_order)
    specs = [GroupSpec("dihedral", (n,)) for n in range(3, n_max + 1, 2)]
    for p, q in params["pairs"]:
        _require_order(p * q, max_order)
        specs.append(pq_group_spec(p, q))
    for spec in specs:
        L = _cached_lattice(spec, max_order, max_subgroups)
        witness = fixed_point_free_decomposition(L)
        result.add(f"{spec}/witness", True, witness is not None)
        if witness is None:
            continue
        N, H, p, found = witness
        count = len(found)
        s = gauss_sum(L)
        result.add(f"{spec}/formula", s, semidirect_gauss_sum(N.order, p, count))
        result.add(f"{spec}/criterion", s == N.order * p, count == N.order)


def _suite_example_pq(result, params, max_order, max_subgroups) -> None:
    for p, q in params["pairs"]:
        _require_order(p * q, max_order)
        spec = pq_group_spec(p, q)
        L = _cached_lattice(spec, max_order, max_subgroups)
        s = gauss_sum(L)
        result.add(f"{spec}/gauss-sum", p * q, s)
        result.add(f"{spec}/subgroup-count", q + 3, len(L))
        N = L.of_order(q)[0]
        result.add(f"{spec}/complement-count", q, len(complements(L, N)))


PROP1_PAIRS_DEFAULT = (
    ("cyclic:4", "cyclic:9"),
    ("cyclic:8", "cyclic:27"),
    ("abelian:2,2", "cyclic:3"),
    ("abelian:2,2", "cyclic:9"),
    ("abelian:3,3", "cyclic:4"),
    ("dihedral:3", "cyclic:5"),
    ("dihedral:4", "cyclic:3"),
    ("dihedral:4", "cyclic:9"),
    ("dihedral:5", "cyclic:9"),
    ("dihedral:6", "cyclic:5"),
    ("quaternion:8", "cyclic:3"),
    ("quaternion:8", "cyclic:9"),
    ("quaternion:8", "abelian:3,3"),
    ("quaternion:16", "cyclic:5"),
    ("semidihedral:16", "cyclic:3"),
    ("modular:2,4", "cyclic:7"),
    ("modular:3,3", "cyclic:2"),
    ("heisenberg:3", "cyclic:2"),
    ("heisenberg:3", "abelian:2,2"),
    ("sdp:7,3,2", "cyclic:2"),
)


def _suite_prop1(result, params, max_order, max_subgroups) -> None:
    for left, right in params["pairs"]:
        s_left = summarize_spec(left, max_order, max_subgroups)
        s_right = summarize_spec(right, max_order, max_subgroups)
        if math.gcd(s_left.group_order, s_right.group_order) != 1:
            raise InvalidParameterError(f"factors {left} and {right} have non-coprime orders")
        spec = f"product:({left})x({right})"
        s_prod = summarize_spec(spec, max_order, max_subgroups)
        result.add(spec, s_left.s_value * s_right.s_value, s_prod.s_value)


COR2_CORPUS_DEFAULT = (
    "quaternion:32",
    "abelian:2,4,4",
    "heisenberg:3",
    "product:(cyclic:8)x(cyclic:9)",
    "product:(quaternion:8)x(cyclic:9)",
    "product:(dihedral:4)x(cyclic:27)",
    "product:(modular:2,4)x(cyclic:9)",
    "product:(quaternion:16)x(cyclic:27)",
    "product:(heisenberg:3)x(cyclic:8)",
    "product:(semidihedral:16)x(cyclic:25)",
    "product:(cyclic:4)x(cyclic:9)x(cyclic:5)",
    "product:(abelian:2,2)x(cyclic:9)x(cyclic:5)",
    "product:(dihedral:8)x(cyclic:27)",
    "product:(abelian:2,2,2)x(abelian:9,3)",
)


def _suite_cor2(result, params, max_order, max_subgroups) -> None:
    bound = params["max_order"]
    for spec in _parsed(params["corpus"]):
        if spec.order() > bound:
            raise RangeTooLargeError(f"{spec}: order {spec.order()} exceeds suite bound {bound}")
        L = _cached_lattice(spec, max_order, max_subgroups)
        nilpotent = is_nilpotent(L)
        result.add(f"{spec}/nilpotent", True, nilpotent)
        if not nilpotent:  # no unique Sylow subgroups to factor over
            continue
        factored = math.prod(
            subgroup_gauss_sum_from_lattice(L, subs[0]) for subs in sylow_subgroups(L).values()
        )
        result.add(f"{spec}/sylow-factorization", gauss_sum(L), factored)


CLOSING_CORPUS_DEFAULT = tuple(
    [f"cyclic:{n}" for n in range(1, 31)]
    + [f"dihedral:{n}" for n in range(2, 22)]
    + ["sdp:7,3,2", "sdp:5,2,4", "sdp:13,3,3", "abelian:2,2", "quaternion:8", "modular:3,3"]
)


def _suite_closing_equality(result, params, max_order, max_subgroups) -> None:
    for spec in _parsed(params["corpus"]):
        L = _cached_lattice(spec, max_order, max_subgroups)
        summary = _summary(L)
        # class membership is equivalent to the cyclic lower bound being attained
        result.add(str(spec), summary.in_class_c, summary.s_value == summary.cyclic_sum)
        if summary.in_class_c:
            # membership should be inherited by every subgroup
            closure = class_subgroup_closure(L)
            result.add(f"{spec}/subgroup-closure", True, all(member for _, member in closure))


# suite id -> (runner, the parameters it reads with their defaults); a
# parameter must be given as a list or tuple, or an int, as its default is
_SUITES = {
    "prop1": (_suite_prop1, {"pairs": PROP1_PAIRS_DEFAULT}),
    "cor2": (_suite_cor2, {"corpus": COR2_CORPUS_DEFAULT, "max_order": 500}),
    "thm3": (_suite_thm3, {"max_order": 256}),
    "thm4": (_suite_thm4, {"corpus": THM4_CORPUS_DEFAULT}),
    "thm5": (_suite_thm5, {"n_max": 7, "modular": THM5_M_DEFAULT}),
    "thm7": (_suite_thm7, {"n_max": 60}),
    "thm8": (_suite_thm8, {"dihedral_max": 45, "pairs": PQ_PAIRS_DEFAULT}),
    "example_pq": (_suite_example_pq, {"pairs": PQ_PAIRS_DEFAULT}),
    "remark_d2n": (_suite_remark_d2n, {"n_max": 60}),
    "closing_equality": (_suite_closing_equality, {"corpus": CLOSING_CORPUS_DEFAULT}),
}
SUITE_IDS = tuple(_SUITES)


def run_suite(
    suite_id: str,
    params: dict | None = None,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    max_subgroups: int = SUITE_MAX_SUBGROUPS,
) -> SuiteResult:
    """Execute one verification suite over its (parameterized) corpus."""
    if suite_id not in _SUITES:
        raise UnknownSuiteError(f"unknown suite {suite_id!r}; expected one of {SUITE_IDS}")
    runner, defaults = _SUITES[suite_id]
    params = params or {}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise InvalidParameterError(
            f"suite {suite_id} has no parameter {unknown[0]!r}; it reads {', '.join(defaults)}"
        )
    for key, value in params.items():
        listed = isinstance(defaults[key], tuple)
        if isinstance(value, bool) or not isinstance(value, (list, tuple) if listed else int):
            kind = "a list or tuple" if listed else "an int"
            raise InvalidParameterError(f"suite {suite_id} parameter {key!r} must be {kind}, got {value!r}")
    result = SuiteResult(suite_id=suite_id)
    runner(result, {**defaults, **params}, max_order, max_subgroups)
    if not result.cases:
        raise InvalidParameterError(f"suite {suite_id} records no case with parameters {params}")
    return result


# ---------------------------------------------------------------------------
# counterexample scan


def _scan_id(item) -> str:
    if isinstance(item, CatalogueEntry):
        return item.id
    if not isinstance(item, (GroupSpec, str)):
        raise InvalidParameterError(f"scan item {item!r} is not a group spec or catalogue entry")
    return str(parse_spec(item) if isinstance(item, str) else item)


def _scan_item(item, ident, max_order, max_subgroups):
    """The ScanRow of one corpus item with id `ident`, or its skip record."""
    if isinstance(item, CatalogueEntry) and item.group is None:
        return {"id": ident, "reason": item.skipped}
    try:
        group = item.group if isinstance(item, CatalogueEntry) else construct(item, max_order=max_order)
        summary = summarize(group, max_subgroups=max_subgroups)
    except (LatticeOverflowError, OrderOverflowError) as exc:
        return {"id": ident, "reason": str(exc)}
    return ScanRow.of(ident, summary)


def run_scan(
    corpus,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    max_subgroups: int = DEFAULT_MAX_SUBGROUPS,
    jobs: int = 1,
) -> ScanResult:
    """Summarize every corpus group and collect class members, conjectured
    counterexamples (nilpotent non-cyclic members), and lower-bound failures.

    Groups exceeding the order or subgroup caps are recorded as skipped
    and the scan continues.  The work is distributed across at most
    min(jobs, corpus size, CPU count) processes, and runs in this process
    when that is one; the report is assembled in corpus order either way.
    """
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be at least 1, got {jobs}")
    items = list(corpus)
    ids = [_scan_id(item) for item in items]
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise InvalidParameterError(f"duplicate corpus id {dup!r}")
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: ~19 ms to import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(_scan_item, items, ids, repeat(max_order), repeat(max_subgroups))
            )
    else:
        outcomes = [_scan_item(item, ident, max_order, max_subgroups) for item, ident in zip(items, ids)]
    result = ScanResult()
    for row in outcomes:
        if isinstance(row, dict):
            result.skipped.append(row)
            continue
        result.rows.append(row)
        result.scanned += 1
        if row.in_class_c:
            result.gauss_class_members.append(row.id)
        if row.nilpotent and not row.cyclic and row.s_value <= row.order:
            result.nilpotent_noncyclic_members.append(row.id)
        if row.s_value < row.order:
            result.inequality_failures.append(row.id)
    return result
