"""grouptotient benchmark: run one workload for a fixed time and report.

Usage, from the repository root:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S      # every workload

Closed loop, one client, one process at a time: each repetition is a
fresh interpreter (perfbench/rep.py) that imports the package from
``src/``, writes its inputs, runs the workload's CLI calls and checks
every report.  Repetitions continue until the next one would end after
``--seconds``; every run makes at least MIN_REPS of them.

With ``--trace 0`` the last line carries the end-to-end metrics, each the
median over the run's repetitions.  ``wall_norm_s`` is the wall time
scaled to the reference host speed by the calibration timed around each
repetition (calib.py); the raw ``wall_s`` is printed beside it.  With
``--trace 1`` every second repetition is traced (see spans.py); the last
line carries the per-layer metrics, the medians over the traced
repetitions, ``trace.overhead_ratio``, which compares traced and
untraced ``wall_norm_s``, and ``host.calib_s``.  Spans and per-run
details go to perfbench/out/.  The last line of stdout is always one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calib
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_REPS = 3
REP_TIMEOUT_S = 150.0

END_TO_END = {"wall_norm_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
# printed with the end-to-end metrics, but not reported in the result line
HOST = {"wall_s": "s", "calib_s": "s"}
PER_LAYER = {
    "groups.build_s": "s",
    "groups.table_mb": "MiB",
    "lattice.enumerate_s": "s",
    "lattice.calls": "count",
    "lattice.subgroups": "count",
    "lattice.subgroups_per_s": "1/s",
    "lattice.structure_s": "s",
    "totient.gauss_sum_s": "s",
    "totient.cyclic_sum_s": "s",
    "verify.self_s": "s",
    "verify.items": "count",
    "verify.cache_hit_ratio": "ratio",
    "reports.render_s": "s",
    "reports.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "host.calib_s": "s",
}
# written to the run file and printed, but zero on workloads that skip the layer
LAYER_DETAIL = {
    "groups.construct_s": "s",
    "groups.validate_s": "s",
    "catalogue.parse_s": "s",
    "catalogue.gens_close_s": "s",
    "totient.decomposition_s": "s",
    "trace.untimed_s": "s",
}


class RepError(RuntimeError):
    """A repetition crashed or timed out, so nothing can be reported."""


def run_rep(name: str, seed: int, traced: bool, index: int, jobs: int = 1) -> dict:
    workdir = OUT / f"work-{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    command = [
        sys.executable, str(HERE / "rep.py"), "--workload", name, "--seed", str(seed),
        "--trace", str(int(traced)), "--out", str(result_path), "--workdir", str(workdir),
        "--jobs", str(jobs),
    ]
    try:
        launch = time.monotonic()
        proc = subprocess.Popen(command, cwd=ROOT, stdout=sys.stderr.fileno())
        status, rusage = _wait(proc)
        if status != 0 or not result_path.is_file():
            raise RepError(f"repetition {index} of {name} exited with status {status}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = result["ready"] - launch
    result["wall_norm_s"] = result["wall_s"] * calib.REFERENCE_S / result["calib_s"]
    result["peak_rss_mb"] = rusage.ru_maxrss / 1024  # Linux reports KiB
    result["traced"] = traced
    return result


def _wait(proc: subprocess.Popen):
    """Reap the child with wait4, so its rusage is its own, not the
    running maximum over all children that RUSAGE_CHILDREN keeps."""
    deadline = time.monotonic() + REP_TIMEOUT_S
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, rusage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise RepError(f"repetition timed out after {REP_TIMEOUT_S} s")
        time.sleep(0.01)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload for about `seconds` and aggregate."""
    workload = workloads.WORKLOADS[name]
    min_reps = 2 * MIN_REPS if trace else MIN_REPS
    reps = []
    start = time.monotonic()
    while True:
        reps.append(run_rep(name, seed, trace and len(reps) % 2 == 1, len(reps)))
        elapsed = time.monotonic() - start
        if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    checks = list(reps)
    if workload.jobs_check:
        checks.append(run_rep(name, seed, False, len(reps), jobs=2))

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    end_to_end = {
        "wall_norm_s": [r["wall_norm_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "setup_s": [r["setup_s"] for r in reps],
        "wall_s": [r["wall_s"] for r in plain],
        "calib_s": [r["calib_s"] for r in reps],
    }
    layers = {}
    if traced:
        samples = [_layer_sample(r) for r in traced]
        for key in {**PER_LAYER, **LAYER_DETAIL}:
            if key not in ("trace.overhead_ratio", "host.calib_s"):
                layers[key] = statistics.median(s[key] for s in samples)
        layers["trace.overhead_ratio"] = (
            statistics.median(r["wall_norm_s"] for r in traced)
            / statistics.median(end_to_end["wall_norm_s"]) - 1
        )
        layers["host.calib_s"] = statistics.median(end_to_end["calib_s"])
    failures = [f for r in checks for f in r["failures"]]
    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seed_affects_inputs": workload.seeded,
        "jobs2_checked": workload.jobs_check,
        "reps": len(reps),
        "traced_reps": len(traced),
        "samples": end_to_end,
        "end_to_end": {key: statistics.median(values) for key, values in end_to_end.items()},
        "per_layer": layers,
        "attempted": sum(r["attempted"] for r in checks),
        "failed": len(failures),
        "failures": failures,
        "cache": [r["cache"] for r in traced],
        "spans": [dict(span, rep=i) for i, r in enumerate(traced) for span in r["spans"]],
    }


def _layer_sample(rep: dict) -> dict:
    layers = rep["layers"]
    self_s = layers["self_s"]
    enumerate_s = self_s["lattice.enumerate"]
    hits, misses = rep["cache"]["hits"], rep["cache"]["misses"]
    return {
        "groups.build_s": sum(self_s[k] for k in (
            "groups.construct", "groups.validate", "catalogue.parse", "catalogue.gens_close")),
        "groups.construct_s": self_s["groups.construct"],
        "groups.validate_s": self_s["groups.validate"],
        "groups.table_mb": layers["max_table_bytes"] / 2**20,
        "catalogue.parse_s": self_s["catalogue.parse"],
        "catalogue.gens_close_s": self_s["catalogue.gens_close"],
        "lattice.enumerate_s": enumerate_s,
        "lattice.calls": layers["lattice_calls"],
        "lattice.subgroups": layers["lattice_subgroups"],
        "lattice.subgroups_per_s": layers["lattice_subgroups"] / enumerate_s if enumerate_s else 0.0,
        "lattice.structure_s": self_s["lattice.structure"],
        "totient.gauss_sum_s": self_s["totient.gauss_sum"],
        "totient.cyclic_sum_s": self_s["totient.cyclic_sum"],
        "totient.decomposition_s": self_s["totient.decomposition"],
        "verify.self_s": self_s["verify"],
        "verify.items": rep["attempted"],
        "verify.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "reports.render_s": self_s["reports"],
        "reports.bytes": rep["report_bytes"],
        "cli.self_s": self_s["cli"],
        "trace.untimed_s": rep["wall_s"] - layers["root_s"],
    }


def environment() -> dict:
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


def _commit() -> str | None:
    """HEAD of the checkout's own .git, if there is one (read, not searched for)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(run: dict, trace: bool) -> dict:
    """Print the human-readable lines for one run; return its metrics."""
    print(
        f"# workload={run['workload']} seed={run['seed']} trace={int(trace)} "
        f"reps={run['reps']} traced={run['traced_reps']} "
        f"seed_affects_inputs={'yes' if run['seed_affects_inputs'] else 'no'}"
    )
    for key, unit in {**END_TO_END, **HOST}.items():
        values = run["samples"][key]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"{key:<26} {run['end_to_end'][key]:12.4f} {unit:<6} "
              f"median; q1 {q1:.4f} q3 {q3:.4f} min {min(values):.4f} n={len(values)}")
    ratio = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    print(f"{'failed_ratio':<26} {ratio:12.4f} {'ratio':<6} {run['failed']} of {run['attempted']} items")
    if trace:
        for key, unit in {**PER_LAYER, **LAYER_DETAIL}.items():
            print(f"{key:<26} {run['per_layer'][key]:12.4f} {unit}")
        hits = sum(c["hits"] for c in run["cache"])
        calls = hits + sum(c["misses"] for c in run["cache"])
        print(f"{'(cache hit base)':<26} {hits} hits of {calls} summarize_spec calls")
    for failure in run["failures"][:10]:
        print(f"FAILED {failure['id']}: {'; '.join(failure['problems'])}", file=sys.stderr)
    units = PER_LAYER if trace else END_TO_END
    source = run["per_layer"] if trace else run["end_to_end"]
    return {key: {"value": source[key], "unit": unit} for key, unit in units.items()}


def save(run: dict, env: dict, trace: bool) -> None:
    stem = f"{run['workload']}-seed{run['seed']}-trace{int(trace)}"
    spans = run.pop("spans")
    (OUT / f"{stem}.json").write_text(json.dumps({"env": env, **run}, indent=2) + "\n", encoding="utf-8")
    if spans:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grouptotient" / "__init__.py").is_file():
        print(f"error: no grouptotient sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            run = measure(name, args.seed, args.seconds, bool(args.trace))
            run_metrics = report(run, bool(args.trace))
            save(run, env, bool(args.trace))
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + key: value for key, value in run_metrics.items()})
            attempted += run["attempted"]
            failed += run["failed"]
    except RepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
