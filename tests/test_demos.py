"""Demo scripts run cleanly and leave nothing behind."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_file_formats_demo_removes_its_work_directory(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "05_file_formats.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "report written to f21.json" in run.stdout
    assert list(tmp_path.iterdir()) == []
