"""Machine-readable result records and their canonical JSON/CSV renderings.

All report values are exact: integers, booleans, and strings only.
Floats, fractions and any other type are rejected outright, so
byte-identical reports are guaranteed across runs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, astuple, dataclass, field, fields, is_dataclass


@dataclass(frozen=True)
class SuiteCase:
    """One checked statement: expected versus actually computed value."""

    case_id: str
    expected: object
    actual: object

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


@dataclass
class SuiteResult:
    suite_id: str
    cases: list[SuiteCase] = field(default_factory=list)
    discrepancy_notes: list[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(case.passed for case in self.cases)

    def failures(self) -> list[SuiteCase]:
        return [case for case in self.cases if not case.passed]

    def add(self, case_id: str, expected, actual) -> None:
        self.cases.append(SuiteCase(case_id, expected, actual))


@dataclass(frozen=True)
class GaussSummary:
    """Machine-readable record of one group's totient/Gauss-sum profile."""

    group_order: int
    phi: int
    s_value: int
    cyclic_sum: int
    subgroup_count: int
    in_class_c: bool
    nilpotent: bool
    cyclic: bool


@dataclass(frozen=True)
class ScanRow:
    """Per-group scan record; its fields, in order, are the CSV columns."""

    id: str
    order: int
    phi: int
    s_value: int
    subgroup_count: int
    nilpotent: bool
    cyclic: bool
    in_class_c: bool

    @classmethod
    def of(cls, ident: str, summary: GaussSummary) -> ScanRow:
        """The row of one group's summary under the given id."""
        return cls(
            id=ident,
            order=summary.group_order,
            phi=summary.phi,
            s_value=summary.s_value,
            subgroup_count=summary.subgroup_count,
            nilpotent=summary.nilpotent,
            cyclic=summary.cyclic,
            in_class_c=summary.in_class_c,
        )


SCAN_CSV_COLUMNS = tuple(f.name for f in fields(ScanRow))


@dataclass
class ScanResult:
    scanned: int = 0
    rows: list[ScanRow] = field(default_factory=list)
    gauss_class_members: list[str] = field(default_factory=list)
    nilpotent_noncyclic_members: list[str] = field(default_factory=list)
    inequality_failures: list[str] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.nilpotent_noncyclic_members and not self.inequality_failures


def to_jsonable(value):
    """Recursively convert a report value into exact JSON-ready data."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise TypeError("reports must not contain floating-point values")
    if isinstance(value, str):
        return value
    if isinstance(value, SuiteCase):
        return {
            "case_id": value.case_id,
            "expected": to_jsonable(value.expected),
            "actual": to_jsonable(value.actual),
            "pass": value.passed,
        }
    if is_dataclass(value) and not isinstance(value, type):
        if isinstance(value, SuiteResult):
            return {
                "suite_id": value.suite_id,
                "cases": [to_jsonable(c) for c in value.cases],
                "discrepancy_notes": list(value.discrepancy_notes),
                "all_pass": value.all_pass,
            }
        return {k: to_jsonable(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def canonical_json(result) -> str:
    """Canonical rendering: sorted keys, fixed separators, trailing newline."""
    return json.dumps(to_jsonable(result), sort_keys=True, indent=2) + "\n"


def to_csv(result, summary_id: str = "group") -> str:
    """CSV rendering.  Scan results and summaries share the fixed
    group-row schema; suite results get one row per case."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if isinstance(result, ScanResult):
        writer.writerow(SCAN_CSV_COLUMNS)
        for row in result.rows:
            writer.writerow(map(_cell, astuple(row)))
    elif isinstance(result, GaussSummary):
        writer.writerow(SCAN_CSV_COLUMNS)
        writer.writerow(map(_cell, astuple(ScanRow.of(summary_id, result))))
    elif isinstance(result, SuiteResult):
        writer.writerow(("suite_id", "case_id", "expected", "actual", "pass"))
        for case in result.cases:
            writer.writerow(
                (
                    result.suite_id,
                    case.case_id,
                    _cell(case.expected),
                    _cell(case.actual),
                    _cell(case.passed),
                )
            )
    else:
        raise TypeError(f"cannot render {type(result).__name__} as CSV")
    return buf.getvalue()


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        raise TypeError("reports must not contain floating-point values")
    return str(value)


def write_report(result, path, format: str = "json", summary_id: str = "group") -> None:
    """Persist a suite result, scan result, or summary as canonical JSON or CSV;
    `summary_id` names a summary's CSV row."""
    if format == "json":
        text = canonical_json(result)
    elif format == "csv":
        text = to_csv(result, summary_id=summary_id)
    else:
        raise ValueError(f"unknown report format {format!r}; expected 'json' or 'csv'")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
