"""Bit-exact file formats for ingesting groups from disk.

Cayley-table files (``.cayley``): UTF-8 text with LF newlines.  Line 1
holds the order n; lines 2..n+1 hold n space-separated indices in
0..n-1, row a listing a*0, a*1, ..., a*(n-1).  Row and column 0 must be
the identity; the table is fully validated (identity, Latin square,
associativity) before a group is returned.  Line 1 is read alone, so an
order over the cap is refused before the body is read.

Permutation-generator files (``.gens``): line 1 holds the degree d;
every following non-empty line is one generator, written as d
space-separated images of 0..d-1.  The generated permutation group is
closed via a breadth-first worklist and re-indexed with the identity at
0 and the remaining elements in discovery order, which makes ingestion
deterministic.  The closure composes each element with each generator
once (n*k tuples for k generators) and keeps the right Cayley graph it
walks: e_i*g for every i and g, and for each new element the parent and
generator it was found from.  The n^2 table is then filled from that
graph with numpy, one gather per breadth-first depth, and no product of
two elements is ever formed as a permutation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    NotAPermutationError,
    OrderOverflowError,
    ParseError,
)
from .groups import DEFAULT_MAX_ORDER, Group, _index_dtype, validate_table

CAYLEY_SUFFIX = ".cayley"
GENERATORS_SUFFIX = ".gens"


@dataclass(frozen=True)
class CatalogueEntry:
    id: str
    source: str  # "cayley-table" or "permutation-generators"
    group: Group | None  # None when the file's group is over the order cap
    skipped: str = ""  # why group is None


def read_cayley_table(path, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """Parse and fully validate a Cayley-table file; an order above
    `max_order` is refused after reading line 1 alone.  The body is read
    one line at a time into a table already in the group's index dtype."""
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
        head = first.removesuffix("\n")
        if not head and not handle.read().strip("\n"):
            raise ParseError("empty file", 1)
        try:
            n = int(head.strip())
        except ValueError:
            raise ParseError(f"expected an integer order, got {head!r}", 1) from None
        if n < 1:
            raise ParseError(f"order must be >= 1, got {n}", 1)
        if n > max_order:
            raise OrderOverflowError(n, max_order)
        # numpy parses each token as int() does, a row at a time; only on a
        # failure or an out-of-range entry is the file read again to locate it
        table = np.empty((n, n), dtype=_index_dtype(n))
        row = np.empty(n, dtype=np.int64)
        parsed = True
        lines = rows = 0  # rows: the lines up to the last non-empty one
        for line in handle:
            line = line.removesuffix("\n")
            if parsed and lines < n:
                tokens = line.split()
                try:
                    row[:] = tokens
                except (ValueError, OverflowError):
                    parsed = False
                # a single token would fill the whole row; as unsigned, a
                # negative entry is above n too
                parsed = parsed and len(tokens) == n and row.view(np.uint64).max() < n
                table[lines] = row
            lines += 1
            if line:
                rows = lines
    if rows != n:
        raise ParseError(f"expected exactly {n} table rows, found {rows}", min(rows + 1, n + 2))
    if not parsed:
        table = _parse_rows(_read_lines(path)[1:], n)
    validate_table(table)
    return Group(table)


def _parse_rows(rows: list[str], n: int) -> np.ndarray:
    """Token-by-token parse that raises a ParseError at the first bad entry."""
    table = np.zeros((n, n), dtype=np.int64)
    for r, row in enumerate(rows):
        line_no = r + 2
        tokens = row.split()
        if len(tokens) != n:
            raise ParseError(f"expected {n} entries, found {len(tokens)}", line_no)
        for c, token in enumerate(tokens):
            try:
                value = int(token)
            except ValueError:
                raise ParseError(f"non-integer entry {token!r}", line_no, c + 1) from None
            if not 0 <= value < n:
                raise ParseError(f"entry {value} out of range 0..{n - 1}", line_no, c + 1)
            table[r, c] = value
    return table


def write_cayley_table(G: Group, path) -> None:
    """Write the exact text format read by :func:`read_cayley_table`."""
    rows = [str(G.order)]
    rows.extend(" ".join(map(str, row)) for row in G.table.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(rows) + "\n")


def read_permutation_generators(path, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """Close a generator set under composition and emit its Cayley table.

    Composition is "a then b": (a*b)(i) = b[a[i]].  Breadth-first
    discovery from the identity makes element indexing deterministic.
    """
    lines = _read_lines(path)
    if not lines:
        raise ParseError("empty file", 1)
    try:
        degree = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"expected an integer degree, got {lines[0]!r}", 1) from None
    if degree < 1:
        raise ParseError(f"degree must be >= 1, got {degree}", 1)
    generators: list[tuple[int, ...]] = []
    for offset, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != degree:
            raise ParseError(f"expected {degree} images, found {len(tokens)}", offset)
        try:
            images = tuple(int(tok) for tok in tokens)
        except ValueError:
            raise ParseError("non-integer image", offset) from None
        if sorted(images) != list(range(degree)):
            raise NotAPermutationError(
                f"line {offset}: images {images} are not a permutation of 0..{degree - 1}"
            )
        generators.append(images)
    if not generators:
        raise ParseError("no generators found", len(lines))

    identity = tuple(range(degree))
    elements: list[tuple[int, ...]] = [identity]
    index: dict[tuple[int, ...], int] = {identity: 0}
    right: list[list[int]] = []  # right[i][g]: index of elements[i] * generators[g]
    parent, via, depth = [0], [0], [0]  # element j > 0 is elements[parent[j]] * generators[via[j]]
    cursor = 0
    while cursor < len(elements):
        current = elements[cursor]
        products = []
        for g, gen in enumerate(generators):
            product = tuple(gen[i] for i in current)
            j = index.get(product)
            if j is None:
                if len(elements) >= max_order:
                    raise OrderOverflowError(len(elements) + 1, max_order)
                j = index[product] = len(elements)
                elements.append(product)
                parent.append(cursor)
                via.append(g)
                depth.append(depth[cursor] + 1)
            products.append(j)
        right.append(products)
        cursor += 1
    return Group(_cayley_graph_table(right, parent, via, depth))


def _cayley_graph_table(right, parent, via, depth) -> np.ndarray:
    """Fill the multiplication table from the breadth-first Cayley graph.

    Column 0 is the identity's.  For e_j = e_p * g, e_i * e_j = (e_i * e_p) * g,
    so column j is ``right[column p, g]``: the columns of one depth are one
    gather from those of the depth before.
    """
    n = len(right)
    dtype = _index_dtype(n)
    right = np.array(right, dtype=dtype)
    parent = np.array(parent, dtype=np.intp)
    via = np.array(via, dtype=np.intp)
    bounds = [*np.flatnonzero(np.diff(depth)) + 1, n]
    table = np.empty((n, n), dtype=dtype)
    table[:, 0] = np.arange(n)
    for start, stop in zip(bounds, bounds[1:]):
        table[:, start:stop] = right[table[:, parent[start:stop]], via[start:stop]]
    return table


def load_catalogue(directory, max_order: int = DEFAULT_MAX_ORDER) -> list[CatalogueEntry]:
    """Ingest every recognized file in a directory, ordered by id.  A file
    whose group exceeds `max_order` becomes an entry without a group, its
    reason in `skipped`, so a scan records it as skipped and goes on."""
    directory = Path(directory)
    entries: list[CatalogueEntry] = []
    seen: set[str] = set()
    for name in sorted(os.listdir(directory)):
        path = directory / name
        if name.endswith(CAYLEY_SUFFIX):
            source, read = "cayley-table", read_cayley_table
        elif name.endswith(GENERATORS_SUFFIX):
            source, read = "permutation-generators", read_permutation_generators
        else:
            continue
        try:
            group, skipped = read(path, max_order=max_order), ""
        except OrderOverflowError as exc:
            group, skipped = None, str(exc)
        stem = path.stem
        if stem in seen:
            raise ParseError(f"duplicate catalogue id {stem!r}", 1)
        seen.add(stem)
        entries.append(CatalogueEntry(id=stem, source=source, group=group, skipped=skipped))
    return entries


def _read_lines(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    return lines
