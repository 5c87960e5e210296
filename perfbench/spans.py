"""Span recording around grouptotient's public functions, from outside.

A traced repetition replaces selected functions in the namespaces of the
package modules that call them (for example ``grouptotient.verify.
all_subgroups``) with wrappers that record one span per call: name,
start, end, parent span and run id.  Spans stay in memory and are
written out when the benchmark ends.  Nothing in ``src/`` changes.

A span's self time is its duration minus the durations of its direct
children; summing self times by layer therefore adds up exactly to the
duration of the root spans (the ``cli.main`` calls).
"""

from __future__ import annotations

import functools
import importlib
import time

# (module whose namespace is patched, names looked up there at call time)
PATCHES = (
    ("grouptotient.cli", (
        "construct", "read_cayley_table", "load_catalogue", "summarize", "run_suite",
        "run_scan", "family_specs", "canonical_json", "to_csv", "write_report",
    )),
    ("grouptotient.catalogue", (
        "read_cayley_table", "read_permutation_generators", "validate_table",
    )),
    ("grouptotient.verify", (
        "construct", "all_subgroups", "gauss_sum", "group_totient", "cyclic_totient_sum",
        "is_nilpotent", "maximal_subgroups", "frattini", "complements", "sylow_subgroups",
        "large_abelian_subgroup_witness", "fixed_point_free_decomposition", "summarize",
        "summarize_spec", "subgroup_gauss_sum_from_lattice", "class_subgroup_closure",
        "inclusion_exclusion_residual",
    )),
    ("grouptotient.totient", ("cyclic_subgroups", "complements", "is_normal")),
    ("grouptotient.lattice", ("maximal_subgroups", "is_normal")),
)

# layer of each span, by the function's own module and name
LAYERS = {
    "cli.main": "cli",
    "groups.construct": "groups.construct",
    "groups.validate_table": "groups.validate",
    "catalogue.read_cayley_table": "catalogue.parse",
    "catalogue.load_catalogue": "catalogue.parse",
    "catalogue.read_permutation_generators": "catalogue.gens_close",
    "lattice.all_subgroups": "lattice.enumerate",
    "lattice.maximal_subgroups": "lattice.structure",
    "lattice.frattini": "lattice.structure",
    "lattice.is_normal": "lattice.structure",
    "lattice.complements": "lattice.structure",
    "lattice.sylow_subgroups": "lattice.structure",
    "lattice.is_nilpotent": "lattice.structure",
    "lattice.large_abelian_subgroup_witness": "lattice.structure",
    "totient.gauss_sum": "totient.gauss_sum",
    "totient.group_totient": "totient.gauss_sum",
    "verify.subgroup_gauss_sum_from_lattice": "totient.gauss_sum",
    "verify.class_subgroup_closure": "totient.gauss_sum",
    "totient.cyclic_totient_sum": "totient.cyclic_sum",
    "lattice.cyclic_subgroups": "totient.cyclic_sum",
    "totient.fixed_point_free_decomposition": "totient.decomposition",
    "verify.summarize": "verify",
    "verify.summarize_spec": "verify",
    "verify.run_suite": "verify",
    "verify.run_scan": "verify",
    "verify.family_specs": "verify",
    "verify.inclusion_exclusion_residual": "verify",
    "reports.canonical_json": "reports",
    "reports.to_csv": "reports",
    "reports.write_report": "reports",
}

TABLE_MAKERS = {
    "groups.construct", "catalogue.read_cayley_table", "catalogue.read_permutation_generators",
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans in memory; one instance per repetition."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = ""
        self._stack: list[int] = []

    def wrap(self, fn):
        name = span_name(fn)
        if name not in LAYERS:
            raise KeyError(f"no layer for span {name}")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if name == "lattice.all_subgroups":
                span["subgroups"] = len(result)
            elif name in TABLE_MAKERS:
                span["table_bytes"] = int(result.table.nbytes)
            return result

        return traced

    def install(self) -> None:
        """Patch every PATCHES entry for the rest of this process."""
        for module_name, names in PATCHES:
            module = importlib.import_module(module_name)
            for attr in names:
                setattr(module, attr, self.wrap(getattr(module, attr)))


def layer_metrics(spans: list[dict]) -> dict:
    """Self time per layer, work counts, and the root-span total."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    self_s: dict[str, float] = {layer: 0.0 for layer in set(LAYERS.values())}
    root_s = 0.0
    calls = subgroups = max_table = 0
    for span, inner in zip(spans, child_time):
        duration = span["end"] - span["start"]
        self_s[LAYERS[span["name"]]] += duration - inner
        if span["parent"] is None:
            root_s += duration
        if span["name"] == "lattice.all_subgroups":
            calls += 1
            subgroups += span.get("subgroups", 0)
        max_table = max(max_table, span.get("table_bytes", 0))
    return {
        "self_s": self_s,
        "root_s": root_s,
        "lattice_calls": calls,
        "lattice_subgroups": subgroups,
        "max_table_bytes": max_table,
    }
