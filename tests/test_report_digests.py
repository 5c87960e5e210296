"""Canonical reports stay byte-identical to the digests the benchmark records.

Every report in ``perfbench/expected.json`` that needs no generated
catalogue is produced through the CLI entry point and its SHA-256 is
compared with the recorded one.  The file is read, never written.  The
CSV files the CLI writes are pinned by digests recorded here.
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

# argv with F standing for the written file -> SHA-256 of that file
CSV_FILES = {
    "summarize --spec dihedral:6 --out F --format csv":
        "95d1da450d4e7478fb2ee0ed661c45276aa2e7ae1e4e2b255ab2d1452d08ae3e",
    "suite example_pq --out F --format csv":
        "d4da0c788418a94fecb46e6a48745f215f248dc9d3e7c530d0d2b06679c3c78f",
    "scan --family dihedral --scan-max-order 24 --csv F":
        "4e0870ddb587f3abf99ab6c645bf49fd7323566576d4fa8345fa1dcaeae60d3f",
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


@pytest.mark.parametrize("key", sorted(CSV_FILES))
def test_csv_file_matches_recorded_digest(key, tmp_path):
    path = tmp_path / "report.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(path) if arg == "F" else arg for arg in key.split()])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_FILES[key]
