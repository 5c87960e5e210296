"""Bit-exact file formats for ingesting groups from disk.

Cayley-table files (``.cayley``): UTF-8 text with LF newlines.  Line 1
holds the order n; lines 2..n+1 hold n space-separated indices in
0..n-1, row a listing a*0, a*1, ..., a*(n-1).  Row and column 0 must be
the identity; the table is fully validated (identity, Latin square,
associativity) before a group is returned.

Permutation-generator files (``.gens``): line 1 holds the degree d;
every following non-empty line is one generator, written as d
space-separated images of 0..d-1.  The generated permutation group is
closed via a breadth-first worklist and re-indexed with the identity at
0 and the remaining elements in discovery order, which makes ingestion
deterministic.
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
from .groups import DEFAULT_MAX_ORDER, Group, validate_table

CAYLEY_SUFFIX = ".cayley"
GENERATORS_SUFFIX = ".gens"


@dataclass(frozen=True)
class CatalogueEntry:
    id: str
    source: str  # "cayley-table" or "permutation-generators"
    group: Group


def read_cayley_table(path, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """Parse and fully validate a Cayley-table file; an order above
    `max_order` is refused before any row is parsed."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError("empty file", 1)
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"expected an integer order, got {lines[0]!r}", 1) from None
    if n < 1:
        raise ParseError(f"order must be >= 1, got {n}", 1)
    if n > max_order:
        raise OrderOverflowError(n, max_order)
    if len(lines) != n + 1:
        raise ParseError(
            f"expected exactly {n} table rows, found {len(lines) - 1}",
            min(len(lines), n + 2),
        )
    table = np.zeros((n, n), dtype=np.int64)
    for r in range(n):
        line_no = r + 2
        tokens = lines[r + 1].split()
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
    validate_table(table)
    return Group(table)


def write_cayley_table(G: Group, path) -> None:
    """Write the exact text format read by :func:`read_cayley_table`."""
    rows = [str(G.order)]
    rows.extend(" ".join(str(int(v)) for v in row) for row in G.table)
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
    cursor = 0
    while cursor < len(elements):
        current = elements[cursor]
        cursor += 1
        for gen in generators:
            product = tuple(gen[i] for i in current)
            if product not in index:
                if len(elements) >= max_order:
                    raise OrderOverflowError(len(elements) + 1, max_order)
                index[product] = len(elements)
                elements.append(product)
    n = len(elements)
    table = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            table[i, j] = index[tuple(b[x] for x in a)]
    return Group(table)


def load_catalogue(directory, max_order: int = DEFAULT_MAX_ORDER) -> list[CatalogueEntry]:
    """Ingest every recognized file in a directory, ordered by id; no
    group may exceed `max_order`."""
    directory = Path(directory)
    entries: list[CatalogueEntry] = []
    seen: set[str] = set()
    for name in sorted(os.listdir(directory)):
        path = directory / name
        if name.endswith(CAYLEY_SUFFIX):
            source = "cayley-table"
            group = read_cayley_table(path, max_order=max_order)
        elif name.endswith(GENERATORS_SUFFIX):
            source = "permutation-generators"
            group = read_permutation_generators(path, max_order=max_order)
        else:
            continue
        stem = path.stem
        if stem in seen:
            raise ParseError(f"duplicate catalogue id {stem!r}", 1)
        seen.add(stem)
        entries.append(CatalogueEntry(id=stem, source=source, group=group))
    return entries


def _read_lines(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    return lines
