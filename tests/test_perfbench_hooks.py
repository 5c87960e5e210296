"""The benchmark's tracer can still find and label every function it wraps."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run in a child process: Tracer.install() patches the package for the
# rest of the process it runs in
SCRIPT = """
import importlib
import spans

spans.Tracer().install()
for module_name, names in spans.PATCHES:
    module = importlib.import_module(module_name)
    for attr in names:
        fn = getattr(module, attr)
        assert hasattr(fn, "__wrapped__"), (module_name, attr)
        assert spans.span_name(fn.__wrapped__) in spans.LAYERS, (module_name, attr)
print("hooks ok")
"""


# thm8 searches each of its 27 groups (22 odd dihedral groups and 5 pq pairs) once
THM8_SCRIPT = """
import spans
from grouptotient import run_suite

tracer = spans.Tracer()
tracer.install()
run_suite("thm8")
print(sum(span["name"] == "totient.fixed_point_free_decomposition" for span in tracer.spans))
"""


def _traced(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_every_patched_function_resolves_to_a_layer():
    assert _traced(SCRIPT) == "hooks ok"


def test_tracing_sees_every_decomposition_search():
    assert _traced(THM8_SCRIPT) == "27"
