"""Canonical reports stay byte-identical to the digests the benchmark records.

Every report in ``perfbench/expected.json`` that needs no generated
catalogue is produced through the CLI entry point and its SHA-256 is
compared with the recorded one.  The file is read, never written.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from grouptotient.cli import main

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
REPORTS = {
    key: record["sha256"]
    for key, record in json.loads(EXPECTED.read_text(encoding="utf-8"))["reports"].items()
    if "{catalogue}" not in key
}


def test_every_catalogue_free_report_is_covered():
    assert len(REPORTS) == 11
    assert sum(key.startswith("suite ") for key in REPORTS) == 9


@pytest.mark.parametrize("key", sorted(REPORTS))
def test_report_matches_recorded_digest(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(key.split())
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == REPORTS[key]
