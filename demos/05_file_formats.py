"""File ingestion and reports.

Cayley-table files round-trip bit-exactly; permutation-generator files
are closed under composition and re-indexed deterministically; reports
are canonical JSON (sorted keys, integers only) or fixed-column CSV.
"""

import tempfile
from pathlib import Path

from grouptotient import (
    canonical_json,
    construct,
    read_cayley_table,
    read_permutation_generators,
    summarize,
    to_csv,
    write_cayley_table,
    write_report,
)

with tempfile.TemporaryDirectory(prefix="grouptotient-demo-") as tmp:
    workdir = Path(tmp)

    # 1. write the order-21 semidirect product as a Cayley file and read it back
    G = construct("sdp:7,3,2")
    table_path = workdir / "f21.cayley"
    write_cayley_table(G, table_path)
    back = read_cayley_table(table_path)
    print(f"wrote {table_path.name}: order {back.order}, round-trip exact:",
          back.table.tolist() == G.table.tolist())

    # 2. the same group from permutation generators: a 7-cycle and the doubling map
    gens_path = workdir / "f21.gens"
    gens_path.write_text("7\n1 2 3 4 5 6 0\n0 2 4 6 1 3 5\n")
    P = read_permutation_generators(gens_path)
    print(f"closed {gens_path.name} to a group of order {P.order}")

    # 3. reports: canonical JSON and the fixed-column CSV row
    summary = summarize(P)
    print("\ncanonical JSON:")
    print(canonical_json(summary), end="")
    print("CSV:")
    print(to_csv(summary, summary_id="f21"), end="")

    report_path = workdir / "f21.json"
    write_report(summary, report_path, format="json")
    print(f"\nreport written to {report_path.name}: {report_path.stat().st_size} bytes")
