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


def test_every_patched_function_resolves_to_a_layer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "hooks ok"
