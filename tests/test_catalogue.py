"""File ingestion: Cayley tables, permutation generators, report writing."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from grouptotient import (
    IdentityNotZeroError,
    NotAGroupError,
    NotAPermutationError,
    OrderOverflowError,
    ParseError,
    ScanResult,
    ScanRow,
    SuiteResult,
    all_subgroups,
    canonical_json,
    construct,
    gauss_sum,
    group_totient,
    load_catalogue,
    read_cayley_table,
    read_permutation_generators,
    summarize,
    to_csv,
    write_cayley_table,
    write_report,
)
from naive_oracles import naive_is_associative, naive_orders, naive_permutation_table

# order-5 loop (Latin square with two-sided identity) that fails associativity
NONASSOC_5 = """5
0 1 2 3 4
1 0 3 4 2
2 3 4 0 1
3 4 1 2 0
4 2 0 1 3
"""


def test_read_z2(tmp_path):
    path = tmp_path / "z2.cayley"
    path.write_text("2\n0 1\n1 0\n")
    G = read_cayley_table(path)
    assert G.order == 2
    assert G.table.tolist() == [[0, 1], [1, 0]]


def test_read_klein_file_gauss_sum(tmp_path):
    # componentwise XOR indexing of the Klein four-group
    rows = [[a ^ b for b in range(4)] for a in range(4)]
    path = tmp_path / "klein.cayley"
    path.write_text("4\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    G = read_cayley_table(path)
    assert gauss_sum(G, all_subgroups(G)) == 7


def test_round_trip_identity(tmp_path):
    for i, spec in enumerate(
        ["cyclic:1", "cyclic:7", "abelian:2,2", "abelian:2,4", "dihedral:3", "dihedral:6",
         "quaternion:8", "semidihedral:16", "modular:3,3", "sdp:7,3,2"]
    ):
        G = construct(spec)
        path = tmp_path / f"g{i}.cayley"
        write_cayley_table(G, path)
        back = read_cayley_table(path)
        assert back.table.tolist() == G.table.tolist()
        # a second write of the re-read group is byte-identical
        path2 = tmp_path / f"g{i}b.cayley"
        write_cayley_table(back, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_nonassociative_latin_square_rejected(tmp_path):
    path = tmp_path / "loop5.cayley"
    path.write_text(NONASSOC_5)
    with pytest.raises(NotAGroupError) as info:
        read_cayley_table(path)
    assert info.value.axiom == "associativity"
    a, b, c = info.value.witness
    table = [[int(v) for v in line.split()] for line in NONASSOC_5.splitlines()[1:]]
    assert table[table[a][b]][c] != table[a][table[b][c]]
    ok, _ = naive_is_associative(table)
    assert not ok


def test_identity_not_zero_rejected(tmp_path):
    path = tmp_path / "shifted.cayley"
    # valid group table for the 2-element group, but identity is index 1
    path.write_text("2\n1 0\n0 1\n")
    with pytest.raises(IdentityNotZeroError):
        read_cayley_table(path)


def test_latin_square_violation_rejected(tmp_path):
    path = tmp_path / "notlatin.cayley"
    path.write_text("3\n0 1 2\n1 1 0\n2 0 1\n")
    with pytest.raises(NotAGroupError) as info:
        read_cayley_table(path)
    assert "latin" in info.value.axiom


@pytest.mark.parametrize(
    "content,line",
    [
        ("", 1),
        ("x\n", 1),
        ("2\n0 1\n", 2),  # missing row counts as short file
        ("2\n0 1\n1\n", 3),
        ("2\n0 1\n1 x\n", 3),
        ("2\n0 1\n1 7\n", 3),
        ("3\n0 1 x\n1 2 0\n", 3),  # a bad token, but the short file is reported
    ],
)
def test_parse_errors_report_line(tmp_path, content, line):
    path = tmp_path / "bad.cayley"
    path.write_text(content)
    with pytest.raises(ParseError) as info:
        read_cayley_table(path)
    assert info.value.line == line


def test_permutation_single_4_cycle(tmp_path):
    path = tmp_path / "z4.gens"
    path.write_text("4\n1 2 3 0\n")
    G = read_permutation_generators(path)
    assert G.order == 4
    assert 4 in naive_orders(G.table.tolist())


def test_permutation_symmetric_group_3(tmp_path):
    path = tmp_path / "s3.gens"
    path.write_text("3\n1 2 0\n1 0 2\n")
    G = read_permutation_generators(path)
    assert G.order == 6
    assert not G.is_abelian()
    assert group_totient(G) == 0
    # the symmetric group on 3 points is the order-6 dihedral group: S = 2*3
    assert gauss_sum(G, all_subgroups(G)) == 6


def test_permutation_pq_group(tmp_path):
    # 7-cycle plus the doubling automorphism of order 3
    path = tmp_path / "f21.gens"
    path.write_text("7\n1 2 3 4 5 6 0\n0 2 4 6 1 3 5\n")
    G = read_permutation_generators(path)
    assert G.order == 21
    assert gauss_sum(G, all_subgroups(G)) == 21


def test_permutation_deterministic_reindexing(tmp_path):
    path = tmp_path / "d4.gens"
    path.write_text("4\n1 2 3 0\n1 0 3 2\n")
    first = read_permutation_generators(path)
    second = read_permutation_generators(path)
    assert first.table.tolist() == second.table.tolist()


def test_permutation_rejects_non_permutation(tmp_path):
    path = tmp_path / "bad.gens"
    for content in ("3\n1 1 0\n", "3\n1 2 3\n"):  # a repeated image, an image out of range
        path.write_text(content)
        with pytest.raises(NotAPermutationError):
            read_permutation_generators(path)


@pytest.mark.parametrize(
    "content,line,message",
    [
        ("", 1, "empty file"),
        ("\n\n", 1, "empty file"),
        ("x\n1 0\n", 1, None),
        ("0\n", 1, None),
        ("3\n1 2\n", 2, None),
        ("3\n\n1 x 0\n", 3, None),
        ("3\n", 1, "no generators found"),
        ("3\n\n \n\n", 3, "no generators found"),
    ],
)
def test_permutation_parse_errors_report_line(tmp_path, content, line, message):
    path = tmp_path / "bad.gens"
    path.write_text(content)
    with pytest.raises(ParseError) as info:
        read_permutation_generators(path)
    assert info.value.line == line
    if message is not None:
        assert message in str(info.value)


@pytest.mark.parametrize(
    "suffix,content,line",
    [
        (".cayley", b"2\xff\n0 1\n1 0\n", 1),
        (".cayley", b"2\n0 1\n1 \xff\n", 3),
        (".cayley", b"2\n0 1\n1 0\n\xc3\n", 4),  # a trailing line is read too
        (".gens", b"\xfe3\n1 2 0\n", 1),
        (".gens", b"3\n1 2 0\n\n0 \xe9 1\n", 4),
    ],
)
def test_bytes_that_are_not_utf8_are_located(tmp_path, suffix, content, line):
    path = tmp_path / f"bad{suffix}"
    path.write_bytes(content)
    read = read_cayley_table if suffix == ".cayley" else read_permutation_generators
    with pytest.raises(ParseError, match="is not valid UTF-8") as info:
        read(path)
    assert info.value.line == line


def test_a_bad_byte_far_from_line_1_is_located_on_its_line(tmp_path):
    """The decoder reads ahead in chunks, so a bad byte in the last row of
    an order-1000 table is decoded while line 1 is read; it is still
    reported on its own line.  Valid UTF-8 that is not ASCII is read as
    text, and a non-digit is refused as a token."""
    path = tmp_path / "d500.cayley"
    write_cayley_table(construct("dihedral:500"), path)
    body = path.read_bytes()
    path.write_bytes(body[:-2] + b"\x80\n")
    with pytest.raises(ParseError, match="byte 0x80 is not valid UTF-8") as info:
        read_cayley_table(path)
    assert info.value.line == 1001
    path.write_text("2\n0 1\n1 \u00e9\n", encoding="utf-8")
    with pytest.raises(ParseError, match="non-integer") as info:
        read_cayley_table(path)
    assert (info.value.line, info.value.col) == (3, 2)


def test_cayley_order_overflow_is_raised_before_rows_are_read(tmp_path):
    path = tmp_path / "big.cayley"
    path.write_text("3\n0 1\n")  # too few rows, but the order is checked first
    with pytest.raises(OrderOverflowError):
        read_cayley_table(path, max_order=2)
    with pytest.raises(ParseError):
        read_cayley_table(path, max_order=3)


def test_permutation_order_overflow(tmp_path):
    path = tmp_path / "big.gens"
    path.write_text("5\n1 2 3 4 0\n1 0 2 3 4\n")  # generates all 120 permutations
    with pytest.raises(OrderOverflowError):
        read_permutation_generators(path, max_order=100)


def _cycle(degree, points):
    perm = list(range(degree))
    for i, a in enumerate(points):
        perm[a] = points[(i + 1) % len(points)]
    return perm


# id -> (degree, generators, order); PSL(2,7) acts on the projective line
# over F_7 (point 7 is infinity) by x -> x + 1 and x -> -1/x, and Z2^4 acts
# regularly on its 16 elements by XOR with each basis vector
PERMUTATION_GROUPS = {
    "a5": (5, [_cycle(5, [0, 1, 2, 3, 4]), _cycle(5, [0, 1, 2])], 60),
    "a6": (6, [_cycle(6, [0, 1, 2]), _cycle(6, [1, 2, 3, 4, 5])], 360),
    "s5": (5, [_cycle(5, [0, 1, 2, 3, 4]), _cycle(5, [0, 1])], 120),
    "psl2_7": (8, [[1, 2, 3, 4, 5, 6, 0, 7], [7, 6, 3, 2, 5, 4, 1, 0]], 168),
    "f21": (7, [[1, 2, 3, 4, 5, 6, 0], [0, 2, 4, 6, 1, 3, 5]], 21),
    "s6": (6, [_cycle(6, [0, 1, 2, 3, 4, 5]), _cycle(6, [0, 1])], 720),
    "z2_4_regular": (16, [[i ^ (1 << b) for i in range(16)] for b in range(4)], 16),
}


def _write_gens(path, degree, gens):
    path.write_text(f"{degree}\n" + "\n".join(" ".join(map(str, g)) for g in gens) + "\n")


@pytest.mark.parametrize("ident", sorted(PERMUTATION_GROUPS))
def test_permutation_table_matches_naive_closure(tmp_path, ident):
    degree, gens, order = PERMUTATION_GROUPS[ident]
    path = tmp_path / f"{ident}.gens"
    _write_gens(path, degree, gens)
    G = read_permutation_generators(path)
    assert G.order == order
    assert G.table.dtype == (np.uint8 if order <= 256 else np.uint16)
    assert G.table.tolist() == naive_permutation_table(degree, gens)


def test_permutation_order_overflow_names_the_first_element_over_the_cap(tmp_path):
    degree, gens, _ = PERMUTATION_GROUPS["s5"]
    path = tmp_path / "s5.gens"
    _write_gens(path, degree, gens)
    with pytest.raises(OrderOverflowError) as info:
        read_permutation_generators(path, max_order=119)
    assert (info.value.order, info.value.cap) == (120, 119)
    assert read_permutation_generators(path, max_order=120).order == 120


def test_over_cap_cayley_is_refused_before_its_body_is_read(tmp_path):
    path = tmp_path / "c600.cayley"
    write_cayley_table(construct("cyclic:600"), path)  # about 1.3 MB of text
    tracemalloc.start()
    try:
        with pytest.raises(OrderOverflowError) as info:
            read_cayley_table(path, max_order=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.order, info.value.cap) == (600, 50)
    assert peak < 64 * 1024


def test_cayley_body_is_read_into_an_index_dtype_table(tmp_path):
    """The body is parsed line by line straight into the uint16 table: the
    traced peak stays under five tables (dihedral:500 at order 1000: 7.7 MiB
    for a 1.9 MiB table); holding the whole text and an int64 parse table,
    it was ten."""
    G = construct("dihedral:150")
    path = tmp_path / "d150.cayley"
    write_cayley_table(G, path)
    tracemalloc.start()
    try:
        back = read_cayley_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.table.dtype == G.table.dtype == np.uint16
    assert np.array_equal(back.table, G.table)
    assert peak < 5 * G.table.nbytes


def test_cayley_table_is_written_one_row_at_a_time(tmp_path):
    """The writer holds one row's text at a time: dihedral:500 (a 2 MiB
    table) peaks under 2 MiB traced, where the text of the whole table
    peaked at 34 MiB, and the file is the order line and then each row."""
    G = construct("dihedral:500")
    path = tmp_path / "d500.cayley"
    tracemalloc.start()
    try:
        write_cayley_table(G, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak
    expected = "".join(" ".join(str(int(x)) for x in row) + "\n" for row in G.table)
    assert path.read_bytes() == f"{G.order}\n{expected}".encode()


def test_bad_row_is_located_in_the_memory_of_a_well_formed_read(tmp_path):
    """A bad token in the last row is located as that row is read, so the
    traced peak stays under the five tables of a well-formed read."""
    G = construct("dihedral:150")
    path = tmp_path / "d150.cayley"
    write_cayley_table(G, path)
    text = path.read_text()
    head, last = text.rstrip("\n").rsplit("\n", 1)
    tokens = last.split()
    tokens[7] = "x"
    path.write_text(head + "\n" + " ".join(tokens) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            read_cayley_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.line, info.value.col) == (301, 8)
    assert "non-integer entry 'x'" in str(info.value)
    assert peak < 5 * G.table.nbytes


@pytest.mark.parametrize("token", ["-1", "256", "-256"])
def test_out_of_range_entries_at_the_edge_of_uint8(tmp_path, token):
    """Order 256 fills every uint8 value, so an entry out of range must be
    caught before it is narrowed; it is a ParseError at its line and column."""
    G = construct("cyclic:256")
    path = tmp_path / "c256.cayley"
    write_cayley_table(G, path)
    lines = path.read_text().split("\n")
    tokens = lines[5].split()
    tokens[7] = token
    lines[5] = " ".join(tokens)
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError) as info:
        read_cayley_table(path)
    assert (info.value.line, info.value.col) == (6, 8)


@pytest.mark.parametrize(
    "content,line",
    [("3\n0 1 2\n\n2 0 1\n", 3), ("2\n0 1\n1 0\n\n\n", None), ("2\n0 1\n\n1 0\n", 4), ("2\n0 1\n1 0\n \n", 4)],
)
def test_blank_body_lines(tmp_path, content, line):
    """Trailing empty lines are dropped; any other blank line is a row."""
    path = tmp_path / "blank.cayley"
    path.write_text(content)
    if line is None:
        assert read_cayley_table(path).table.tolist() == [[0, 1], [1, 0]]
    else:
        with pytest.raises(ParseError) as info:
            read_cayley_table(path)
        assert info.value.line == line


@pytest.mark.parametrize(
    "token",
    ["+3", "-1", "1_0", "\u0663", "1.0", "0x1", "5.", "1e3", "inf", "nan", "99999999999999999999", "1\xa02", ""],
)
def test_numpy_parses_table_tokens_as_int_does(token):
    """read_cayley_table reads a row with one np.fromstring call, and reads
    a row that call rejects, miscounts or finds out of range with int() on
    its split tokens.  So the fast call must read int()'s values, reject the
    text, or read a value above every order (it clamps an overflow to the
    int64 maximum)."""
    top = np.iinfo(np.int64).max
    try:
        expected = [int(t) for t in token.split()]
    except ValueError:
        expected = None
    try:
        fast = np.fromstring(token, dtype=np.int64, sep=" ").tolist()
    except ValueError:
        fast = None
    assert fast in (None, expected) or max(fast) == top


@pytest.mark.parametrize(
    "content,line,col,message",
    [
        ("1\n \n", 2, None, "expected 1 entries, found 0"),
        ("1\n\t\n", 2, None, "expected 1 entries, found 0"),
        ("1\n-\n", 2, 1, "non-integer entry '-'"),
        ("1\n- 0\n", 2, None, "expected 1 entries, found 2"),
        ("2\n0 1\n1 -\n", 3, 2, "non-integer entry '-'"),
        ("2\n0 +\n1 0\n", 2, 2, "non-integer entry '+'"),
        ("2\n0 1\n1 + 0\n", 3, None, "expected 2 entries, found 3"),
    ],
)
def test_signed_and_blank_lines_are_read_by_int(tmp_path, content, line, col, message):
    """np.fromstring reads a blank line as [0], a lone sign as 0 and a sign
    and a digit parted by spaces as one number: such lines are read by
    int(), which rejects each at the same place as before."""
    path = tmp_path / "signs.cayley"
    path.write_text(content)
    with pytest.raises(ParseError) as info:
        read_cayley_table(path)
    assert (info.value.line, info.value.col) == (line, col)
    assert message in str(info.value)


def test_a_numpy_that_warns_on_unmatched_text_falls_back_to_int(tmp_path, monkeypatch):
    """Older numpy warns on text it cannot read to its end and returns the
    numbers before it; the reader turns that warning into an error, so the
    row "0 1x" is located by int() rather than read as [0, 1]."""
    fromstring = np.fromstring

    def warning_fromstring(text, dtype, sep):
        try:
            return fromstring(text, dtype=dtype, sep=sep)
        except ValueError:
            warnings.warn("string or file could not be read to its end due to unmatched data", DeprecationWarning)
            cut = max(k for k in range(len(text)) if _reads(fromstring, text[:k]))
            return fromstring(text[:cut], dtype=dtype, sep=sep)

    monkeypatch.setattr(np, "fromstring", warning_fromstring)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert warning_fromstring("0 1x", dtype=np.int64, sep=" ").tolist() == [0, 1]
    path = tmp_path / "z2.cayley"
    path.write_text("2\n0 1x\n1 0\n")
    with pytest.raises(ParseError) as info:
        read_cayley_table(path)
    assert (info.value.line, info.value.col) == (2, 2)


def _reads(fromstring, text):
    try:
        fromstring(text, dtype=np.int64, sep=" ")
    except ValueError:
        return False
    return True


@pytest.mark.parametrize(
    "token,col",
    [("+4", None), ("0_4", None), ("\u0664", None), ("4.0", 4), ("0x4", 4), ("-4", 4), ("11", 4)],
)
def test_cayley_entry_tokens_parse_as_int_does(tmp_path, token, col):
    """Entry (1, 3) of Z11 is 4: tokens that int() reads as 4 are accepted,
    and every other token is a ParseError at line 3, column 4."""
    rows = [[(a + b) % 11 for b in range(11)] for a in range(11)]
    lines = [" ".join(map(str, row)) for row in rows]
    tokens = lines[1].split()
    tokens[3] = token
    lines[1] = " ".join(tokens)
    path = tmp_path / "z11.cayley"
    path.write_text("11\n" + "\n".join(lines) + "\n", encoding="utf-8")
    if col is None:
        assert read_cayley_table(path).table.tolist() == rows
    else:
        with pytest.raises(ParseError) as info:
            read_cayley_table(path)
        assert (info.value.line, info.value.col) == (3, col)


def test_load_catalogue(tmp_path):
    write_cayley_table(construct("cyclic:3"), tmp_path / "a.cayley")
    (tmp_path / "b.gens").write_text("4\n1 2 3 0\n")
    (tmp_path / "ignored.txt").write_text("not a group file\n")
    entries = load_catalogue(tmp_path)
    assert [e.id for e in entries] == ["a", "b"]
    assert [e.group.order for e in entries] == [3, 4]


# ---------------------------------------------------------------------------
# reports


def test_summary_json_golden_keys():
    text = canonical_json(summarize(construct("cyclic:6")))
    payload = json.loads(text)
    assert payload["s_value"] == 6
    assert payload["in_class_c"] is True
    assert '"s_value": 6' in text
    assert '"in_class_c": true' in text


def test_canonical_json_is_sorted_and_integer_only():
    result = SuiteResult(suite_id="demo")
    result.add("case", 3, 3)
    payload = json.loads(canonical_json(result))
    assert payload["all_pass"] is True
    with pytest.raises(TypeError):
        canonical_json({"bad": 1.5})


def test_fraction_rendering():
    """Reports hold integers, booleans and strings; a fraction is rejected
    as a float is, whole or not."""
    from fractions import Fraction

    from grouptotient.reports import to_jsonable

    for value in (Fraction(5, 3), Fraction(6, 3)):
        with pytest.raises(TypeError):
            to_jsonable(value)
        with pytest.raises(TypeError):
            canonical_json({"value": value})


def test_the_cli_imports_no_rational_arithmetic():
    # every closed form is evaluated in integers, so fractions (and the decimal
    # module it loads) stay unimported
    code = "import sys, grouptotient.cli; print('fractions' in sys.modules, 'decimal' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "False False\n"


def test_scan_csv_golden_row_for_order_12_dihedral():
    summary = summarize(construct("dihedral:6"))
    row = ScanRow(
        id="dihedral:6",
        order=summary.group_order,
        phi=summary.phi,
        s_value=summary.s_value,
        subgroup_count=summary.subgroup_count,
        nilpotent=summary.nilpotent,
        cyclic=summary.cyclic,
        in_class_c=summary.in_class_c,
    )
    result = ScanResult(scanned=1, rows=[row])
    text = to_csv(result)
    assert text.splitlines()[0] == "id,order,phi,s_value,subgroup_count,nilpotent,cyclic,in_class_c"
    assert text.splitlines()[1] == "dihedral:6,12,2,23,16,false,false,false"


def test_summary_csv_row():
    text = to_csv(summarize(construct("cyclic:6")), summary_id="cyclic:6")
    assert text.splitlines()[1] == "cyclic:6,6,2,6,4,true,true,true"


def test_write_report_files(tmp_path):
    summary = summarize(construct("abelian:2,2"))
    json_path = tmp_path / "klein.json"
    write_report(summary, json_path, format="json")
    assert json.loads(json_path.read_text())["s_value"] == 7

    suite = SuiteResult(suite_id="demo")
    suite.add("x", 1, 1)
    csv_path = tmp_path / "suite.csv"
    write_report(suite, csv_path, format="csv")
    assert csv_path.read_text().splitlines()[1] == "demo,x,1,1,true"

    with pytest.raises(ValueError):
        write_report(summary, tmp_path / "bad.xml", format="xml")


def test_write_report_deterministic(tmp_path):
    summary = summarize(construct("dihedral:5"))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report(summary, p1)
    write_report(summary, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_catalogue_rejects_duplicate_ids(tmp_path):
    write_cayley_table(construct("cyclic:3"), tmp_path / "same.cayley")
    (tmp_path / "same.gens").write_text("4\n1 2 3 0\n")
    with pytest.raises(ParseError, match="duplicate catalogue id"):
        load_catalogue(tmp_path)
    # the id is refused before the second file is read, so its own error never shows
    (tmp_path / "same.gens").write_text("3\n1 2\n")
    with pytest.raises(ParseError, match="duplicate catalogue id"):
        load_catalogue(tmp_path)


def test_parse_error_reports_column(tmp_path):
    path = tmp_path / "bad.cayley"
    path.write_text("2\n0 1\n1 x\n")
    with pytest.raises(ParseError) as info:
        read_cayley_table(path)
    assert info.value.line == 3 and info.value.col == 2


def test_write_report_to_directory_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        write_report(summarize(construct("cyclic:3")), tmp_path, format="json")


def test_trailing_rows_rejected(tmp_path):
    path = tmp_path / "extra.cayley"
    path.write_text("2\n0 1\n1 0\n0 1\n")
    with pytest.raises(ParseError):
        read_cayley_table(path)
