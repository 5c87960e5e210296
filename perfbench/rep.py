"""One repetition of one workload, in a fresh interpreter.

Usage (normally started by run.py):
    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 --out RESULT.json
        [--workdir DIR] [--jobs K]

Set-up is interpreter start, ``import grouptotient`` and writing the
workload's input files; it ends at the ``ready`` timestamp
(``time.monotonic``, which is system-wide, so the parent can subtract its
own launch time).  The timed part runs every CLI call of the workload
through ``grouptotient.cli.main`` with stdout captured, then checks the
reports; ``wall_s`` covers both.  The host-speed calibration (calib.py)
runs just before and just after the timed part; ``calib_s`` is the mean.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    import grouptotient
    from grouptotient import cli, verify

    if not Path(grouptotient.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported grouptotient from {grouptotient.__file__}, not {ROOT / 'src'}")

    import calib
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    catalogue = None
    if any("{catalogue}" in arg for call in workload.calls for arg in call):
        catalogue = Path(args.workdir) / "catalogue"
        workloads.write_catalogue(args.seed, catalogue)
    ready = time.monotonic()

    summary_cache = verify.summarize_spec
    tracer = spans.Tracer() if args.trace else None
    entry = cli.main
    if tracer is not None:
        tracer.install()
        entry = tracer.wrap(cli.main)

    items: list[tuple[str, list[str]]] = []
    report_bytes = 0
    calib_before = calib.measure()
    start = time.perf_counter()
    for template in workload.calls:
        argv = [arg.replace("{catalogue}", str(catalogue)) for arg in template]
        if args.jobs > 1:
            argv = ["--jobs", str(args.jobs)] + argv
        if tracer is not None:
            tracer.run_id = workloads.call_key(template)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = entry(argv)
            text = out.getvalue()
            report_bytes += len(text.encode("utf-8"))
            items.extend(workloads.check_call(template, code, text))
        except Exception as exc:  # a raising call fails as one item and the run goes on
            items.append((workloads.call_key(template), [f"raised {type(exc).__name__}: {exc}"]))
    wall_s = time.perf_counter() - start
    calib_after = calib.measure()

    result = {
        "ready": ready,
        "wall_s": wall_s,
        "calib_s": (calib_before + calib_after) / 2,
        "attempted": len(items),
        "failures": [{"id": ident, "problems": problems} for ident, problems in items if problems],
        "report_bytes": report_bytes,
    }
    if tracer is not None:
        info = summary_cache.cache_info()
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["cache"] = {"hits": info.hits, "misses": info.misses}
        result["spans"] = tracer.spans
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
