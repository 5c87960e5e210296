"""Verification suites and the counterexample scan harness.

Every suite compares an exact expected value (a closed form or an
independently derived count) against a brute-force value computed from
complete lattice enumeration.  Suite output is deterministic for a given
(suite id, params) pair: reports are byte-identical across runs.

Suites share one per-process lattice cache: `summarize_spec` and the
suites' `_group_and_lattice` enumerate a spec's lattice once and keep,
keyed by (spec string, subgroup cap), only its level matrices, totient
vector and cyclic sum, stored read-only.  A hit builds the group again
from its spec (cheap and deterministic) and wraps the cached arrays.  The
cache holds at most _LATTICE_CACHE_BYTES = 4 MiB of arrays, evicting the
least recently used; a larger lattice is never stored.  The nine theorem
suites of the benchmark leave 0.1 MiB of arrays in it (149 lattices).
Scans summarize without it: each of their groups is seen once, so
caching would only hold memory.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from itertools import count, repeat, takewhile

from .catalogue import CatalogueEntry
from .errors import (
    InvalidParameterError,
    LatticeOverflowError,
    NotPrimePowerError,
    OrderOverflowError,
    RangeTooLargeError,
    UnknownSuiteError,
)
from .groups import DEFAULT_MAX_ORDER, AbelianType, Group, GroupSpec, construct, parse_spec
from .lattice import (
    DEFAULT_MAX_SUBGROUPS,
    Lattice,
    all_subgroups,
    complements,
    frattini,
    is_nilpotent,
    large_abelian_subgroup_witness,
    maximal_subgroups,
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
    group_totient,
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
    return _summary(G, all_subgroups(G, max_subgroups=max_subgroups))


def _summary(G: Group, L: Lattice) -> GaussSummary:
    s = gauss_sum(G, L)
    return GaussSummary(
        group_order=G.order,
        phi=group_totient(G),
        s_value=s,
        cyclic_sum=L.cyclic_sum,
        subgroup_count=len(L),
        in_class_c=s == G.order,
        nilpotent=is_nilpotent(G, L),
        cyclic=G.is_cyclic(),
    )


@lru_cache(maxsize=None)
def summarize_spec(
    spec_text: str,
    max_order: int = DEFAULT_MAX_ORDER,
    max_subgroups: int = SUITE_MAX_SUBGROUPS,
) -> GaussSummary:
    """Cached summary keyed by spec string, shared across suites."""
    return _summary(*_cached_lattice(spec_text, max_order, max_subgroups))


# (spec string, subgroup cap) -> (levels, totients, cyclic sum, bytes held),
# least recently used first
_lattices: OrderedDict = OrderedDict()
_LATTICE_CACHE_BYTES = 4 << 20


def _cached_lattice(spec, max_order, max_subgroups) -> tuple[Group, Lattice]:
    """The group of a suite spec and its lattice, enumerated at most once per
    process while the lattice stays in the cache (see module docstring)."""
    G = construct(spec, max_order=max_order)
    key = (str(G.spec), max_subgroups)
    if key in _lattices:
        _lattices.move_to_end(key)
        levels, totients, cyclic_sum, _ = _lattices[key]
        return G, Lattice(G, dict(levels), totients, cyclic_sum)
    L = all_subgroups(G, max_subgroups=max_subgroups)
    arrays = [*L.levels.values(), L.totients]
    size = sum(a.nbytes for a in arrays)
    if size <= _LATTICE_CACHE_BYTES:
        for a in arrays:
            a.setflags(write=False)
        while sum(entry[3] for entry in _lattices.values()) + size > _LATTICE_CACHE_BYTES:
            _lattices.popitem(last=False)
        _lattices[key] = (dict(L.levels), L.totients, L.cyclic_sum, size)
    return G, L


def subgroup_gauss_sum_from_lattice(L: Lattice, sub) -> int:
    """Gauss sum of a subgroup read off the parent lattice: sum the totients
    of all lattice members contained in it."""
    return int(L.totients[L.contained_in(sub.members)].sum())


def class_subgroup_closure(G: Group, L: Lattice) -> list[tuple[int, bool]]:
    """Class membership of every subgroup, read off the parent lattice:
    (subgroup order, Gauss sum equals order) per subgroup in canonical
    order.  Lets scans probe empirically whether membership is inherited
    by subgroups."""
    return [
        (H.order, subgroup_gauss_sum_from_lattice(L, H) == H.order) for H in L.subgroups
    ]


def inclusion_exclusion_residual(G: Group, L: Lattice) -> tuple[int, int]:
    """Both sides of the maximal-subgroup inclusion-exclusion identity
    S(G) = phi(G) + sum_i S(M_i) - p * S(Frattini) for p-groups with
    p + 1 maximal subgroups."""
    pk = prime_power(G.order)
    if pk is None:
        raise NotPrimePowerError(f"group order {G.order} is not a prime power")
    p = pk[0]
    maxima = maximal_subgroups(L)
    lhs = gauss_sum(G, L)
    rhs = (
        group_totient(G)
        + sum(subgroup_gauss_sum_from_lattice(L, M) for M in maxima)
        - p * subgroup_gauss_sum_from_lattice(L, frattini(L))
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# corpus enumeration


def _partitions(k: int) -> list[tuple[int, ...]]:
    """Integer partitions of k, ascending parts, deterministic order."""
    if k == 0:
        return [()]
    out = []

    def extend(prefix, remaining, minimum):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(minimum, remaining + 1):
            extend(prefix + [part], remaining - part, part)

    extend([], k, 1)
    return out


def abelian_type_specs(max_order: int) -> list[GroupSpec]:
    """Every abelian type (one spec per isomorphism class) of order 2..max_order."""
    specs = []
    for n in range(2, max_order + 1):
        per_prime = []
        for p, e in sorted(factorize(n).items()):
            per_prime.append([(p, part) for part in _partitions(e)])
        choices = [[]]
        for options in per_prime:
            choices = [
                chosen + [(p, partition)]
                for chosen in choices
                for (p, partition) in options
            ]
        for chosen in choices:
            parts = []
            for p, partition in chosen:
                parts.extend(p**a for a in partition)
            specs.append(GroupSpec("abelian", tuple(sorted(parts))))
    return specs


def family_specs(family: str, max_order: int) -> list[GroupSpec]:
    """Built-in family corpora bounded by group order."""
    if family == "cyclic":
        return [GroupSpec("cyclic", (n,)) for n in range(1, max_order + 1)]
    if family == "abelian":
        return abelian_type_specs(max_order)
    if family == "dihedral":
        return [GroupSpec("dihedral", (n,)) for n in range(2, max_order // 2 + 1)]
    if family == "dihedral2":
        return [GroupSpec("dihedral", (n,)) for n in _doublings(4, max_order // 2)]
    if family == "quaternion":
        return [GroupSpec("quaternion", (o,)) for o in _doublings(8, max_order)]
    if family == "semidihedral":
        return [GroupSpec("semidihedral", (o,)) for o in _doublings(16, max_order)]
    if family == "modular":
        out = []
        p = 2
        while p**3 <= max_order:
            if is_prime(p):
                start = 4 if p == 2 else 3
                n = start
                while p**n <= max_order:
                    out.append(GroupSpec("modular", (p, n)))
                    n += 1
            p += 1
        return out
    if family == "heisenberg":
        odd = takewhile(lambda p: p**3 <= max_order, count(3, 2))
        return [GroupSpec("heisenberg", (p,)) for p in odd if is_prime(p)]
    if family == "nilpotent":
        out = []
        for sub in ("abelian", "dihedral2", "quaternion", "semidihedral", "modular", "heisenberg"):
            out.extend(family_specs(sub, max_order))
        return out
    raise InvalidParameterError(f"unknown scan family {family!r}")


def _doublings(start: int, bound: int) -> list[int]:
    """start, 2 * start, 4 * start, ... up to bound."""
    out = []
    while start <= bound:
        out.append(start)
        start *= 2
    return out


SCAN_FAMILIES = (
    "cyclic",
    "abelian",
    "dihedral",
    "dihedral2",
    "quaternion",
    "semidihedral",
    "modular",
    "heisenberg",
    "nilpotent",
)


def order_p_element_mod(p: int, q: int) -> int:
    """Smallest t >= 2 of multiplicative order exactly p modulo q; needs p | q-1."""
    if (q - 1) % p != 0:
        raise InvalidParameterError(f"{p} does not divide {q} - 1")
    for t in range(2, q):
        if pow(t, p, q) == 1 and t != 1:
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


def _group_and_lattice(spec: GroupSpec, max_order, max_subgroups) -> tuple[Group, Lattice]:
    """The group of a suite spec and its complete lattice, within both caps."""
    _require_order(spec.order(), max_order)
    return _cached_lattice(spec, max_order, max_subgroups)


def _suite_thm3(params, max_order, max_subgroups) -> SuiteResult:
    bound = params.get("max_order", 256)
    _require_order(bound, max_order)
    result = SuiteResult(suite_id="thm3")
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
    return result


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


def _suite_thm4(params, max_order, max_subgroups) -> SuiteResult:
    corpus = params.get("corpus", THM4_CORPUS_DEFAULT)
    result = SuiteResult(suite_id="thm4")
    for spec in _parsed(corpus):
        pk = prime_power(spec.order())
        if pk is None or pk[1] < 4:
            raise InvalidParameterError(f"{spec}: corpus group must have order p^n, n >= 4")
        G, L = _group_and_lattice(spec, max_order, max_subgroups)
        witness = large_abelian_subgroup_witness(G, L)
        if witness is None:
            result.add(f"{spec}/no-witness", "no-witness", "no-witness")
            continue
        s = gauss_sum(G, L)
        m, r = witness
        actual = "S>|G|" if s > G.order else f"violated (S={s}, |G|={G.order})"
        result.add(f"{spec}/witness-m{m}-r{r}", "S>|G|", actual)
    return result


THM5_M_DEFAULT = ((2, 4), (2, 5), (3, 3), (3, 4))


def _suite_thm5(params, max_order, max_subgroups) -> SuiteResult:
    n_max = params.get("n_max", 7)
    _require_order(2**n_max, max_order)
    result = SuiteResult(suite_id="thm5")
    jobs: list[tuple[str, GroupSpec, int | None]] = []
    for n in range(3, n_max + 1):
        jobs.append(("D", GroupSpec("dihedral", (2 ** (n - 1),)), two_group_gauss_sum("D", n)))
        jobs.append(("Q", GroupSpec("quaternion", (2**n,)), two_group_gauss_sum("Q", n)))
        if n >= 4:
            jobs.append(
                ("SD", GroupSpec("semidihedral", (2**n,)), two_group_gauss_sum("SD", n))
            )
    for p, n in params.get("modular", THM5_M_DEFAULT):
        _require_order(p**n, max_order)
        jobs.append(("M", GroupSpec("modular", (p, n)), None))
    for family, spec, closed in jobs:
        G, L = _group_and_lattice(spec, max_order, max_subgroups)
        s = gauss_sum(G, L)
        if closed is not None:
            result.add(f"{spec}/closed-form", s, closed)
        lhs, rhs = inclusion_exclusion_residual(G, L)
        result.add(f"{spec}/inclusion-exclusion", lhs, rhs)
        result.add(f"{spec}/exceeds-order", True, s > G.order)
    return result


def _suite_thm7(params, max_order, max_subgroups) -> SuiteResult:
    n_max = params.get("n_max", 60)
    _require_order(2 * n_max, max_order)
    result = SuiteResult(suite_id="thm7")
    result.discrepancy_notes.append(DIHEDRAL_TOTIENT_NOTE)
    for n in range(2, n_max + 1):
        spec = GroupSpec("dihedral", (n,))
        summary = summarize_spec(str(spec), max_order, max_subgroups)
        result.add(f"{spec}/membership", n % 2 == 1, summary.in_class_c)
        result.add(f"{spec}/totient-closed-form", summary.phi, dihedral_totient(n))
        result.add(f"{spec}/gauss-sum-formula", summary.s_value, dihedral_gauss_sum(n))
    return result


def _suite_remark_d2n(params, max_order, max_subgroups) -> SuiteResult:
    n_max = params.get("n_max", 60)
    _require_order(2 * n_max, max_order)
    result = SuiteResult(suite_id="remark_d2n")
    for n in range(2, n_max + 1, 2):
        spec = GroupSpec("dihedral", (n,))
        summary = summarize_spec(str(spec), max_order, max_subgroups)
        result.add(str(spec), summary.s_value, dihedral_gauss_sum(n))
    return result


def _suite_thm8(params, max_order, max_subgroups) -> SuiteResult:
    n_max = params.get("dihedral_max", 45)
    pairs = params.get("pairs", PQ_PAIRS_DEFAULT)
    _require_order(2 * n_max, max_order)
    result = SuiteResult(suite_id="thm8")
    specs = [GroupSpec("dihedral", (n,)) for n in range(3, n_max + 1, 2)]
    specs += [pq_group_spec(p, q) for p, q in pairs]
    for spec in specs:
        G, L = _group_and_lattice(spec, max_order, max_subgroups)
        witness = fixed_point_free_decomposition(G, L)
        result.add(f"{spec}/witness", True, witness is not None)
        if witness is None:
            continue
        N, H, p = witness
        count = len(complements(G, N, L))
        s = gauss_sum(G, L)
        result.add(f"{spec}/formula", s, semidirect_gauss_sum(N.order, p, count))
        result.add(f"{spec}/criterion", s == N.order * p, count == N.order)
    return result


def _suite_example_pq(params, max_order, max_subgroups) -> SuiteResult:
    pairs = params.get("pairs", PQ_PAIRS_DEFAULT)
    result = SuiteResult(suite_id="example_pq")
    for p, q in pairs:
        spec = pq_group_spec(p, q)
        G, L = _group_and_lattice(spec, max_order, max_subgroups)
        s = gauss_sum(G, L)
        result.add(f"{spec}/gauss-sum", p * q, s)
        result.add(f"{spec}/subgroup-count", q + 3, len(L))
        N = L.of_order(q)[0]
        result.add(f"{spec}/complement-count", q, len(complements(G, N, L)))
    return result


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


def _suite_prop1(params, max_order, max_subgroups) -> SuiteResult:
    pairs = params.get("pairs", PROP1_PAIRS_DEFAULT)
    result = SuiteResult(suite_id="prop1")
    for left, right in pairs:
        s_left = summarize_spec(left, max_order, max_subgroups)
        s_right = summarize_spec(right, max_order, max_subgroups)
        if math.gcd(s_left.group_order, s_right.group_order) != 1:
            raise InvalidParameterError(f"factors {left} and {right} have non-coprime orders")
        product = f"product:({left})x({right})"
        s_prod = summarize_spec(product, max_order, max_subgroups)
        result.add(product, s_left.s_value * s_right.s_value, s_prod.s_value)
    return result


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


def _suite_cor2(params, max_order, max_subgroups) -> SuiteResult:
    corpus = params.get("corpus", COR2_CORPUS_DEFAULT)
    bound = params.get("max_order", 500)
    result = SuiteResult(suite_id="cor2")
    for spec in _parsed(corpus):
        if spec.order() > bound:
            raise RangeTooLargeError(f"{spec}: order {spec.order()} exceeds suite bound {bound}")
        G, L = _group_and_lattice(spec, max_order, max_subgroups)
        nilpotent = is_nilpotent(G, L)
        result.add(f"{spec}/nilpotent", True, nilpotent)
        if not nilpotent:  # no unique Sylow subgroups to factor over
            continue
        product = math.prod(
            subgroup_gauss_sum_from_lattice(L, subs[0]) for subs in sylow_subgroups(G, L).values()
        )
        result.add(f"{spec}/sylow-factorization", gauss_sum(G, L), product)
    return result


CLOSING_CORPUS_DEFAULT = tuple(
    [f"cyclic:{n}" for n in range(1, 31)]
    + [f"dihedral:{n}" for n in range(2, 22)]
    + ["sdp:7,3,2", "sdp:5,2,4", "sdp:13,3,3", "abelian:2,2", "quaternion:8", "modular:3,3"]
)


def _suite_closing_equality(params, max_order, max_subgroups) -> SuiteResult:
    corpus = params.get("corpus", CLOSING_CORPUS_DEFAULT)
    result = SuiteResult(suite_id="closing_equality")
    for spec in _parsed(corpus):
        G, L = _group_and_lattice(spec, max_order, max_subgroups)
        summary = _summary(G, L)
        # class membership is equivalent to the cyclic lower bound being attained
        result.add(str(spec), summary.in_class_c, summary.s_value == summary.cyclic_sum)
        if summary.in_class_c:
            # membership should be inherited by every subgroup
            closure = class_subgroup_closure(G, L)
            result.add(f"{spec}/subgroup-closure", True, all(member for _, member in closure))
    return result


# suite id -> (runner, the parameter keys it reads)
_SUITES = {
    "prop1": (_suite_prop1, ("pairs",)),
    "cor2": (_suite_cor2, ("corpus", "max_order")),
    "thm3": (_suite_thm3, ("max_order",)),
    "thm4": (_suite_thm4, ("corpus",)),
    "thm5": (_suite_thm5, ("n_max", "modular")),
    "thm7": (_suite_thm7, ("n_max",)),
    "thm8": (_suite_thm8, ("dihedral_max", "pairs")),
    "example_pq": (_suite_example_pq, ("pairs",)),
    "remark_d2n": (_suite_remark_d2n, ("n_max",)),
    "closing_equality": (_suite_closing_equality, ("corpus",)),
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
    runner, keys = _SUITES[suite_id]
    params = params or {}
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise InvalidParameterError(
            f"suite {suite_id} has no parameter {unknown[0]!r}; it reads {', '.join(keys)}"
        )
    for key in ("corpus", "pairs", "modular"):
        if key in params and not isinstance(params[key], (list, tuple)):
            raise InvalidParameterError(
                f"suite {suite_id} parameter {key!r} must be a list or tuple, got {params[key]!r}"
            )
    return runner(params, max_order, max_subgroups)


# ---------------------------------------------------------------------------
# counterexample scan


def _scan_id(item) -> str:
    if isinstance(item, CatalogueEntry):
        return item.id
    if isinstance(item, Group):
        return str(item.spec) if item.spec is not None else f"table-group-order-{item.order}"
    spec = item if isinstance(item, GroupSpec) else parse_spec(str(item))
    return str(spec)


def _scan_item(item, max_order, max_subgroups):
    ident = _scan_id(item)
    if isinstance(item, CatalogueEntry) and item.group is None:
        return ("skip", ident, item.skipped)
    group = item.group if isinstance(item, CatalogueEntry) else item if isinstance(item, Group) else None
    try:
        if group is None:
            group = construct(ident, max_order=max_order)
        summary = summarize(group, max_subgroups=max_subgroups)
    except (LatticeOverflowError, OrderOverflowError) as exc:
        return ("skip", ident, str(exc))
    return ("row", ScanRow.of(ident, summary))


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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(_scan_item, items, repeat(max_order), repeat(max_subgroups))
            )
    else:
        outcomes = [_scan_item(item, max_order, max_subgroups) for item in items]
    result = ScanResult()
    for outcome in outcomes:
        if outcome[0] == "skip":
            result.skipped.append({"id": outcome[1], "reason": outcome[2]})
            continue
        row = outcome[1]
        result.rows.append(row)
        result.scanned += 1
        if row.in_class_c:
            result.gauss_class_members.append(row.id)
        if row.nilpotent and not row.cyclic and row.s_value <= row.order:
            result.nilpotent_noncyclic_members.append(row.id)
        if row.s_value < row.order:
            result.inequality_failures.append(row.id)
    return result
