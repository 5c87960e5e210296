"""Bit-exact file formats for ingesting groups from disk.

Cayley-table files (``.cayley``): UTF-8 text with LF newlines.  Line 1
holds the order n; lines 2..n+1 hold n space-separated indices in
0..n-1, row a listing a*0, a*1, ..., a*(n-1).  Row and column 0 must be
the identity; the table is fully validated (identity, Latin square,
associativity) before a group is returned.  Line 1 is read alone, so an
order over the cap is refused before the body is read.  The file is read
once: a bad row is located on the line where it is read, in the memory of
a well-formed read, and reported once the rows are counted.  A row is
parsed by one np.fromstring call; a line with a sign or only whitespace,
or one that call rejects, miscounts or finds out of range, is read by
int() from its split tokens, which accepts and locates errors.  In either
format a byte that is not valid UTF-8 is a ParseError on its own line,
though the decoder reads ahead of the line being parsed.

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
import warnings
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
    group: Group | None  # None when the file's group is over the order cap
    skipped: str = ""  # why group is None


def read_cayley_table(path, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """Parse and fully validate a Cayley-table file; an order above
    `max_order` is refused after reading line 1 alone.  The body is read
    one line at a time into a table already in the group's index dtype."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle, warnings.catch_warnings():
        # numpy 1.x warns on a line it cannot read to its end, and reads it in part
        warnings.filterwarnings("error", "string or file could not be read", DeprecationWarning)
        text = _lines(handle)
        n = _read_header(text, "order")
        if n > max_order:
            raise OrderOverflowError(n, max_order)
        table = np.empty((n, n), dtype=_index_dtype(n))
        error = None  # the first bad row's, raised once the rows are counted
        lines = rows = 0  # rows: the lines up to the last non-empty one
        for line in text:
            if error is None and lines < n:
                try:  # numpy reads a lone sign or a blank line as 0: int() reads such lines
                    fast = "-" not in line and "+" not in line and not line.isspace()
                    values = np.fromstring(line, dtype=np.int64, sep=" ") if fast else ()
                except (ValueError, DeprecationWarning):
                    values = ()
                if len(values) == n and values.max() < n:
                    table[lines] = values
                else:
                    tokens = line.split()
                    error = _row_error(tokens, n, lines + 2)
                    if error is None:
                        table[lines] = [int(token) for token in tokens]
            lines += 1
            if line:
                rows = lines
    if rows != n:
        raise ParseError(f"expected exactly {n} table rows, found {rows}", min(rows + 1, n + 2))
    if error is not None:
        raise error
    validate_table(table)
    return Group(table)


def _row_error(tokens: list[str], n: int, line_no: int) -> ParseError | None:
    """Locate the fault in a row np.fromstring did not read: a wrong entry
    count, or the first token that int() cannot read or that lies outside
    0..n-1; None when int() reads the whole row."""
    if len(tokens) != n:
        return ParseError(f"expected {n} entries, found {len(tokens)}", line_no)
    for c, token in enumerate(tokens, start=1):
        try:
            value = int(token)
        except ValueError:
            return ParseError(f"non-integer entry {token!r}", line_no, c)
        if not 0 <= value < n:
            return ParseError(f"entry {value} out of range 0..{n - 1}", line_no, c)


def _lines(handle):
    """The lines of a file opened with errors="surrogateescape", without their
    newline, each checked to be UTF-8 as it is read: a byte the decoder
    could not read arrives as a lone surrogate, and its line is reported."""
    for line_no, line in enumerate(handle, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise ParseError(f"byte 0x{byte:02x} is not valid UTF-8", line_no) from None
        yield line.removesuffix("\n")


def _read_header(lines, name: str) -> int:
    """Parse line 1, the file's order or degree (`name`), an integer >= 1."""
    head = next(lines, "")
    if not head and not any(lines):
        raise ParseError("empty file", 1)
    try:
        value = int(head.strip())
    except ValueError:
        raise ParseError(f"expected an integer {name}, got {head!r}", 1) from None
    if value < 1:
        raise ParseError(f"{name} must be >= 1, got {value}", 1)
    return value


def write_cayley_table(G: Group, path) -> None:
    """Write the exact text format read by :func:`read_cayley_table`, one
    row at a time, so no text of the whole table is held at once."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{G.order}\n")
        for row in G.table:
            handle.write(" ".join(map(str, row.tolist())) + "\n")


def read_permutation_generators(path, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """Close a generator set under composition and emit its Cayley table.

    Composition is "a then b": (a*b)(i) = b[a[i]].  Breadth-first
    discovery from the identity makes element indexing deterministic.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        text = _lines(handle)
        degree = _read_header(text, "degree")
        generators: list[tuple[int, ...]] = []
        last = 1  # the last non-empty line
        for offset, line in enumerate(text, start=2):
            if line:
                last = offset
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
        raise ParseError("no generators found", last)

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


def is_generators_file(path) -> bool:
    """Whether a file is read as permutation generators, by its suffix."""
    return str(path).endswith(GENERATORS_SUFFIX)


def load_catalogue(directory, max_order: int = DEFAULT_MAX_ORDER) -> list[CatalogueEntry]:
    """Ingest every recognized file in a directory, ordered by id.  A file
    whose group exceeds `max_order` becomes an entry without a group, its
    reason in `skipped`, so a scan records it as skipped and goes on.  A
    second file with an id already seen is refused before it is read."""
    directory = Path(directory)
    entries: list[CatalogueEntry] = []
    seen: set[str] = set()
    for name in sorted(os.listdir(directory)):
        path = directory / name
        if is_generators_file(name):
            read = read_permutation_generators
        elif name.endswith(CAYLEY_SUFFIX):
            read = read_cayley_table
        else:
            continue
        stem = path.stem
        if stem in seen:
            raise ParseError(f"duplicate catalogue id {stem!r}", 1)
        seen.add(stem)
        try:
            group, skipped = read(path, max_order=max_order), ""
        except OrderOverflowError as exc:
            group, skipped = None, str(exc)
        entries.append(CatalogueEntry(id=stem, group=group, skipped=skipped))
    return entries
