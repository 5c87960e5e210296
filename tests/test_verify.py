"""Suites, scans, determinism, and the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grouptotient import (
    Group,
    InvalidParameterError,
    RangeTooLargeError,
    UnknownSuiteError,
    all_subgroups,
    canonical_json,
    construct,
    gauss_sum,
    is_nilpotent,
    is_prime,
    parse_spec,
    pq_group_spec,
    run_scan,
    run_suite,
    summarize,
    summarize_spec,
    sylow_subgroups,
    verify_classical_gauss,
    write_cayley_table,
)
from grouptotient.cli import main
from grouptotient.groups import DEFAULT_MAX_ORDER
from grouptotient.verify import (
    COR2_CORPUS_DEFAULT,
    SUITE_MAX_SUBGROUPS,
    DIHEDRAL_TOTIENT_NOTE,
    PQ_PAIRS_DEFAULT,
    _SUITES,
    abelian_type_specs,
    family_specs,
    subgroup_gauss_sum_from_lattice,
)
from naive_oracles import as_group, naive_is_normal, naive_order
from test_lattice_batching import _subgroups


def test_verify_classical_gauss_small():
    result = verify_classical_gauss(12)
    assert result.all_pass
    assert len(result.cases) == 12
    twelve = next(c for c in result.cases if c.case_id == "n=12")
    assert twelve.actual == 12  # 1+1+2+2+4+2


def test_verify_classical_gauss_limit_one():
    result = verify_classical_gauss(1)
    assert result.all_pass and len(result.cases) == 1


def test_abelian_type_specs_enumeration():
    specs = [str(s) for s in abelian_type_specs(16)]
    assert "abelian:2" in specs
    assert "abelian:2,2,4" in specs
    assert "abelian:16" in specs
    assert "abelian:2,3" in specs  # the cyclic order-6 type
    assert len(specs) == len(set(specs))
    # orders 2..16: type counts 1,1,2,1,1,1,3,2,1,1,2,1,1,1,5
    assert len(specs) == 24


def test_family_specs_bounds():
    assert [s.params[0] for s in family_specs("quaternion", 64)] == [8, 16, 32, 64]
    assert [str(s) for s in family_specs("modular", 81)].count("modular:3,4") == 1
    assert all(s.order() <= 128 for s in family_specs("nilpotent", 128))
    heis = family_specs("heisenberg", 130)
    assert [s.params[0] for s in heis] == [3, 5]
    assert [[s.params[0] for s in family_specs("heisenberg", b)] for b in (26, 27, 124, 125)] == [
        [], [3], [3], [3, 5]
    ]


@pytest.mark.parametrize(
    "suite_id,params",
    [
        ("thm3", {"max_order": 32}),
        ("thm5", {"n_max": 5}),
        ("thm7", {"n_max": 12}),
        ("remark_d2n", {"n_max": 12}),
        ("thm8", {"dihedral_max": 9}),
        ("example_pq", {}),
        ("prop1", {}),
        ("closing_equality", {}),
    ],
)
def test_suites_pass(suite_id, params):
    result = run_suite(suite_id, params)
    assert result.all_pass, result.failures()[:5]
    assert result.cases


def test_suite_thm4_small():
    result = run_suite("thm4", {"corpus": ("abelian:2,2,2,2", "dihedral:8", "product:(dihedral:4)x(cyclic:2)")})
    assert result.all_pass
    ids = [c.case_id for c in result.cases]
    assert any("no-witness" in i for i in ids)
    assert any("witness-m3-r3" in i for i in ids)


def test_suite_cor2_small():
    result = run_suite(
        "cor2",
        {"corpus": ("product:(cyclic:8)x(cyclic:9)", "product:(quaternion:8)x(cyclic:9)", "heisenberg:3")},
    )
    assert result.all_pass


def test_suite_cor2_records_a_non_nilpotent_group(monkeypatch, capsys):
    result = run_suite("cor2", {"corpus": ("dihedral:3", "cyclic:12")})
    assert [(c.case_id, c.passed) for c in result.cases] == [
        ("dihedral:3/nilpotent", False),
        ("cyclic:12/nilpotent", True),
        ("cyclic:12/sylow-factorization", True),
    ]
    assert not result.all_pass
    monkeypatch.setitem(_SUITES["cor2"][1], "corpus", ("dihedral:3",))
    assert main(["suite", "cor2"]) == 1
    assert json.loads(capsys.readouterr().out)["all_pass"] is False


def test_suite_thm7_records_discrepancy_note():
    result = run_suite("thm7", {"n_max": 4})
    assert DIHEDRAL_TOTIENT_NOTE in result.discrepancy_notes
    assert result.all_pass


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("thm9")


def test_unknown_suite_parameter_is_rejected(capsys):
    with pytest.raises(InvalidParameterError, match="'nmax'.*it reads n_max"):
        run_suite("thm7", {"nmax": 3})
    assert main(["suite", "thm7", "--param", "nmax=3"]) == 2
    err = capsys.readouterr().err
    assert "'nmax'" in err and "n_max" in err


@pytest.mark.parametrize(
    "suite_id, key",
    [
        ("thm4", "corpus"),
        ("cor2", "corpus"),
        ("closing_equality", "corpus"),
        ("prop1", "pairs"),
        ("thm8", "pairs"),
        ("example_pq", "pairs"),
        ("thm5", "modular"),
    ],
)
def test_sequence_parameter_given_as_integer_is_rejected(suite_id, key, capsys):
    """The CLI passes only integers; a sequence key given one exits 2
    naming the key, instead of failing inside the suite."""
    with pytest.raises(InvalidParameterError, match=f"'{key}' must be a list or tuple"):
        run_suite(suite_id, {key: 3})
    assert main(["suite", suite_id, "--param", f"{key}=3"]) == 2
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", [[5], "5"])
@pytest.mark.parametrize(
    "suite_id, key",
    [
        ("thm3", "max_order"), ("thm5", "n_max"), ("thm7", "n_max"),
        ("thm8", "dihedral_max"), ("cor2", "max_order"),
    ],
)
def test_integer_parameter_given_as_a_non_integer_is_rejected(suite_id, key, value):
    """A list or a string where the default is an int fails naming the key,
    instead of a comparison failing inside the suite."""
    with pytest.raises(InvalidParameterError, match=f"'{key}' must be an int"):
        run_suite(suite_id, {key: value})


@pytest.mark.parametrize(
    "suite_id, params",
    [("thm7", {"n_max": -3}), ("thm7", {"n_max": True}), ("thm3", {"max_order": 0}), ("remark_d2n", {"n_max": 1})],
)
def test_parameters_that_give_no_case_are_rejected(suite_id, params, capsys):
    """A suite that records no case would read as a pass, so it fails
    naming its parameters, and the CLI exits 2; a bool is not an int."""
    ((key, value),) = params.items()
    with pytest.raises(InvalidParameterError, match=f"'{key}'"):
        run_suite(suite_id, params)
    if not isinstance(value, bool):  # the CLI passes only integers
        assert main(["suite", suite_id, "--param", f"{key}={value}"]) == 2
        assert f"suite {suite_id} records no case" in capsys.readouterr().err


def test_sylow_gauss_sums_read_off_the_parent_lattice():
    """cor2 reads each Sylow factor off the parent lattice; the factor's
    own lattice gives the same Gauss sum."""
    for text in COR2_CORPUS_DEFAULT:
        G = construct(text)
        L = all_subgroups(G)
        assert is_nilpotent(L), text
        for p, (P,) in sylow_subgroups(L).items():
            Q = as_group(P)
            assert subgroup_gauss_sum_from_lattice(L, P) == gauss_sum(all_subgroups(Q)), (text, p)


def test_range_too_large():
    with pytest.raises(RangeTooLargeError):
        run_suite("thm7", {"n_max": 100}, max_order=60)
    with pytest.raises(RangeTooLargeError):
        run_suite("thm3", {"max_order": 2000}, max_order=100)
    # suites that build a lattice per corpus group check each group's order
    with pytest.raises(RangeTooLargeError):
        run_suite("closing_equality", {"corpus": ["cyclic:60"]}, max_order=50)
    with pytest.raises(RangeTooLargeError):
        run_suite("thm4", {"corpus": ["abelian:2,2,2,2,2,2"]}, max_order=32)
    # prop1 and the summaries it reads check the cap through the same lattice cache
    with pytest.raises(RangeTooLargeError):
        run_suite("prop1", {"pairs": [["cyclic:4", "cyclic:9"]]}, max_order=20)
    with pytest.raises(RangeTooLargeError):
        summarize_spec("cyclic:30", max_order=20)


@pytest.mark.parametrize("suite", ["example_pq", "thm8"])
def test_pq_pairs_over_the_cap_are_refused_before_the_search(suite, monkeypatch):
    """pq_group_spec's search for an element of order p modulo q runs for
    O(q) steps, so a pair whose order p*q is over the cap is refused first."""
    import grouptotient.verify as verify

    def searched(p, q):
        raise AssertionError(f"searched modulo {q}")

    monkeypatch.setattr(verify, "order_p_element_mod", searched)
    with pytest.raises(RangeTooLargeError):
        run_suite(suite, {"pairs": [(2, 2000003)]})


def test_pq_group_spec():
    spec = pq_group_spec(3, 7)
    assert spec.order() == 21
    assert str(spec) == "sdp:7,3,2"
    with pytest.raises(Exception):
        pq_group_spec(3, 5)  # 3 does not divide 4


def test_scan_abelian_members_are_exactly_cyclic():
    result = run_scan(abelian_type_specs(64))
    assert result.clean
    assert not result.skipped
    # members are the types with one part per prime
    for row in result.rows:
        assert row.in_class_c == row.cyclic
        assert row.s_value >= row.order
    assert result.scanned == len(result.rows) == len(abelian_type_specs(64))


def test_scan_dihedral_membership_parity():
    result = run_scan(family_specs("dihedral", 60))
    members = set(result.gauss_class_members)
    for spec in family_specs("dihedral", 60):
        n = spec.params[0]
        assert (str(spec) in members) == (n % 2 == 1)


def test_scan_records_overflow_as_skip():
    result = run_scan(["abelian:2,2,2", "cyclic:12"], max_subgroups=6)
    assert result.scanned == 1
    assert len(result.skipped) == 1
    assert result.skipped[0]["id"] == "abelian:2,2,2"


def test_scan_accepts_groups_and_entries(tmp_path):
    from grouptotient import load_catalogue

    write_cayley_table(construct("cyclic:5"), tmp_path / "c5.cayley")
    entries = load_catalogue(tmp_path)
    result = run_scan(entries + [parse_spec("dihedral:3")])
    assert result.scanned == 2
    assert result.rows[0].id == "c5"
    assert result.rows[1].id == "dihedral:3"
    assert result.rows[1].in_class_c


def test_scan_refuses_a_bare_group():
    """A scan item is a spec or a catalogue entry; a Group carries no id of its own."""
    for group in (construct("cyclic:6"), Group(construct("dihedral:3").table)):
        with pytest.raises(InvalidParameterError, match="not a group spec or catalogue entry"):
            run_scan(["cyclic:5", group])


def test_scan_keeps_tables_of_one_order_apart(tmp_path):
    """Two tables of order 6 scan under their file stems, as different groups."""
    from grouptotient import load_catalogue

    write_cayley_table(construct("cyclic:6"), tmp_path / "c6.cayley")
    write_cayley_table(construct("dihedral:3"), tmp_path / "s3.cayley")
    result = run_scan(load_catalogue(tmp_path))
    assert [row.id for row in result.rows] == ["c6", "s3"]
    assert [(row.order, row.cyclic, row.subgroup_count) for row in result.rows] == [(6, True, 4), (6, False, 6)]
    assert result.gauss_class_members == ["c6", "s3"]


def test_scan_parallel_matches_sequential():
    corpus = family_specs("dihedral", 40) + abelian_type_specs(24)
    seq = run_scan(corpus, jobs=1)
    par = run_scan(corpus, jobs=2)
    assert canonical_json(seq) == canonical_json(par)


def test_suite_reports_deterministic():
    a = canonical_json(run_suite("thm7", {"n_max": 10}))
    b = canonical_json(run_suite("thm7", {"n_max": 10}))
    assert a == b


def test_scan_never_reports_inequality_failures():
    corpus = (
        family_specs("dihedral", 40)
        + family_specs("quaternion", 64)
        + abelian_type_specs(48)
        + [str(pq_group_spec(p, q)) for p, q in ((2, 3), (3, 7), (2, 5))]
    )
    result = run_scan(corpus)
    assert result.inequality_failures == []


# ---------------------------------------------------------------------------
# CLI


def test_cli_summarize_spec(capsys):
    assert main(["summarize", "--spec", "abelian:2,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["s_value"] == 7
    assert payload["subgroup_count"] == 5


def test_cli_summarize_file(tmp_path, capsys):
    path = tmp_path / "z6.cayley"
    write_cayley_table(construct("cyclic:6"), path)
    assert main(["summarize", "--file", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["in_class_c"] is True


def test_cli_suite_exit_codes(capsys):
    assert main(["suite", "thm7", "--param", "n_max=8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite_id"] == "thm7"
    assert payload["all_pass"] is True


def test_cli_gauss(capsys):
    assert main(["gauss", "--limit", "50"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True


def test_cli_scan_family_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "scan.csv"
    code = main(["scan", "--family", "dihedral", "--scan-max-order", "24", "--csv", str(csv_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scanned"] == len(payload["rows"]) > 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("id,order,phi")
    assert any(line.startswith("dihedral:6,12,2,23,16") for line in lines)


def test_cli_scan_catalogue(tmp_path, capsys):
    write_cayley_table(construct("cyclic:7"), tmp_path / "c7.cayley")
    (tmp_path / "f21.gens").write_text("7\n1 2 3 4 5 6 0\n0 2 4 6 1 3 5\n")
    assert main(["scan", "--catalogue", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scanned"] == 2
    assert payload["gauss_class_members"] == ["c7", "f21"]


def test_cli_write_report(tmp_path):
    out = tmp_path / "suite.json"
    assert main(["suite", "example_pq", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["all_pass"] is True


def test_cli_error_handling(capsys):
    assert main(["summarize", "--spec", "nosuch:1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_suite_param_validation(capsys):
    assert main(["suite", "thm7", "--param", "n_max=abc"]) == 2
    capsys.readouterr()
    assert main(["suite", "thm7", "--param", "n_max"]) == 2
    assert "malformed --param 'n_max'; expected K=V" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["modular:3", "sdp:7", "product:(modular:3)x(cyclic:2)"])
def test_spec_with_too_few_parameters_exits_2(spec, capsys):
    assert main(["summarize", "--spec", spec]) == 2
    assert "parameter(s)" in capsys.readouterr().err
    with pytest.raises(InvalidParameterError, match="expected"):
        run_suite("cor2", {"corpus": [spec]})


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--catalogue", "{tmp}/nonexistent"],
        ["summarize", "--file", "{tmp}/missing.cayley"],
        ["summarize", "--spec", "cyclic:3", "--out", "{tmp}/nodir/x.json"],
    ],
)
def test_cli_unusable_path_exits_2(argv, tmp_path, capsys):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name,content,line", [("bad.cayley", b"2\n0 1\n1 \xff\n", 3), ("bad.gens", b"2\n\xff 0\n", 2)])
def test_cli_input_that_is_not_utf8_exits_2(name, content, line, tmp_path, capsys):
    (tmp_path / name).write_bytes(content)
    expected = f"error: line {line}: byte 0xff is not valid UTF-8\n"
    assert main(["scan", "--catalogue", str(tmp_path)]) == 2
    assert capsys.readouterr().err == expected
    if name.endswith(".cayley"):  # summarize --file reads .cayley files only
        assert main(["summarize", "--file", str(tmp_path / name)]) == 2
        assert capsys.readouterr().err == expected


def test_cli_parser_is_built_once_and_keeps_no_parsed_state(monkeypatch):
    import grouptotient.cli as cli

    seen = []
    monkeypatch.setattr(cli, "_dispatch", lambda args: seen.append(args) or 0)
    assert main(["suite", "thm7", "--param", "n_max=8"]) == 0
    assert main(["suite", "thm7"]) == 0
    assert main(["suite", "thm7", "--param", "n_max=9"]) == 0
    assert [args.param for args in seen] == [["n_max=8"], [], ["n_max=9"]]
    assert cli._parser() is cli._parser()
    assert cli._parser().parse_args(["suite", "thm7"]).param == []


def _fresh_lattice_cache(monkeypatch):
    """An empty suite lattice cache for this test, and the specs whose
    lattice verify enumerates from now on."""
    import grouptotient.verify as verify_mod

    monkeypatch.setattr(verify_mod, "_lattices", verify_mod._LatticeCache())
    enumerate_, calls = verify_mod.all_subgroups, []

    def counting(G, **caps):
        calls.append(str(G.spec))
        return enumerate_(G, **caps)

    monkeypatch.setattr(verify_mod, "all_subgroups", counting)
    return verify_mod, calls


def test_suite_lattices_are_enumerated_once_per_spec(monkeypatch):
    spec = parse_spec("product:(dihedral:3)x(cyclic:4)")
    expected = summarize(construct(spec))
    verify_mod, calls = _fresh_lattice_cache(monkeypatch)
    L1 = verify_mod._cached_lattice(spec, DEFAULT_MAX_ORDER, SUITE_MAX_SUBGROUPS)
    L2 = verify_mod._cached_lattice(spec, DEFAULT_MAX_ORDER, SUITE_MAX_SUBGROUPS)
    assert calls == [str(spec)]
    assert L2.group is not L1.group and np.array_equal(L2.group.table, L1.group.table)
    assert L2.levels.keys() == L1.levels.keys()
    for k, level in L2.levels.items():
        assert np.array_equal(level, L1.levels[k]) and not level.flags.writeable, k
        with pytest.raises(ValueError):
            level[0, 0] = 1
    assert np.array_equal(L2.totients, L1.totients) and not L2.totients.flags.writeable
    assert L2.cyclic_sum == L1.cyclic_sum == 24
    # summaries share the cache (a cap of its own keeps summarize_spec's lru_cache cold)
    summary = summarize_spec(str(spec), DEFAULT_MAX_ORDER, SUITE_MAX_SUBGROUPS - 1)
    assert summary == expected
    assert summarize_spec(str(spec), DEFAULT_MAX_ORDER, SUITE_MAX_SUBGROUPS - 1) is summary
    assert calls == [str(spec)] * 2  # the cap is part of the key
    verify_mod._cached_lattice(spec, DEFAULT_MAX_ORDER, SUITE_MAX_SUBGROUPS - 1)
    assert len(calls) == 2


def test_lattice_cache_evicts_the_least_recently_used(monkeypatch):
    verify_mod, calls = _fresh_lattice_cache(monkeypatch)

    def lattice(text):
        return verify_mod._cached_lattice(text, DEFAULT_MAX_ORDER, SUITE_MAX_SUBGROUPS)

    size = {
        text: sum(a.nbytes for a in [*L.levels.values(), L.totients])
        for text in ("dihedral:6", "dihedral:10", "quaternion:16")
        for L in [all_subgroups(construct(text), max_subgroups=SUITE_MAX_SUBGROUPS)]
    }
    assert len(set(size.values())) == 3
    # room for the two largest lattices, not for all three
    monkeypatch.setattr(verify_mod, "_LATTICE_CACHE_BYTES", sum(size.values()) - min(size.values()))
    for text in ("dihedral:6", "dihedral:10", "dihedral:6", "quaternion:16", "dihedral:6", "dihedral:10"):
        lattice(text)
    # quaternion:16 evicted dihedral:10, the least recently used, then dihedral:10
    # evicted quaternion:16; dihedral:6 stayed
    assert calls == ["dihedral:6", "dihedral:10", "quaternion:16", "dihedral:10"]
    held = verify_mod._lattices.held
    assert held == sum(entry[3] for entry in verify_mod._lattices.values()) <= verify_mod._LATTICE_CACHE_BYTES
    assert held == size["dihedral:6"] + size["dihedral:10"]
    # a lattice over the bound is never stored
    monkeypatch.setattr(verify_mod, "_LATTICE_CACHE_BYTES", min(size.values()) - 1)
    monkeypatch.setattr(verify_mod, "_lattices", verify_mod._LatticeCache())
    lattice("quaternion:16")
    lattice("quaternion:16")
    assert calls[-2:] == ["quaternion:16"] * 2 and not verify_mod._lattices


def test_family_scan_skips_an_over_cap_spec():
    """A scan summarizes without the suites' cache and its order check, so an
    over-cap spec is refused by construct (OrderOverflowError), and recorded
    as skipped, not raised as the suites' RangeTooLargeError."""
    result = run_scan(family_specs("dihedral", 60), max_order=50)
    assert [row.id for row in result.rows] == [f"dihedral:{n}" for n in range(2, 26)]
    assert result.skipped[0] == {
        "id": "dihedral:26", "reason": "group order 52 exceeds the configured cap 50"
    }
    assert [skip["id"] for skip in result.skipped] == [f"dihedral:{n}" for n in range(26, 31)]


def test_summarize_spec_cache_consistency():
    from grouptotient import summarize_spec

    direct = summarize(construct("dihedral:6"))
    cached = summarize_spec("dihedral:6")
    assert direct == cached


def test_cli_scan_parallel_jobs(tmp_path, capsys):
    code = main(["--jobs", "2", "scan", "--family", "dihedral", "--scan-max-order", "30"])
    assert code == 0
    parallel = capsys.readouterr().out
    code = main(["scan", "--family", "dihedral", "--scan-max-order", "30"])
    assert code == 0
    assert capsys.readouterr().out == parallel


def test_suite_json_identical_across_processes(tmp_path):
    import subprocess
    import sys

    script = (
        "from grouptotient import canonical_json, run_suite;"
        "import sys; sys.stdout.write(canonical_json(run_suite('thm7', {'n_max': 10})))"
    )
    runs = {
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        ).stdout
        for _ in range(2)
    }
    assert len(runs) == 1


def test_example_pq_suite_with_overridden_pairs():
    result = run_suite("example_pq", {"pairs": ((2, 3), (3, 7), (5, 11), (2, 11))})
    assert result.all_pass
    ids = [c.case_id for c in result.cases]
    assert "sdp:11,2,10/gauss-sum" in ids  # (2, 11): inversion action on Z_11


def test_cli_summarize_csv_carries_spec_id(capsys):
    assert main(["--max-subgroups", "100", "summarize", "--spec", "dihedral:6", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("dihedral:6,12,2,23,16")


def test_cli_max_order_cap(capsys):
    assert main(["--max-order", "10", "summarize", "--spec", "cyclic:50"]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_scan_rejects_duplicate_corpus_ids():
    import pytest as _pytest

    from grouptotient import InvalidParameterError

    with _pytest.raises(InvalidParameterError):
        run_scan(["cyclic:6", "cyclic:6"])


def test_scan_records_order_overflow_as_skip():
    result = run_scan(["cyclic:50", "cyclic:5"], max_order=10)
    assert result.scanned == 1
    assert result.skipped[0]["id"] == "cyclic:50"


def test_subgroup_closure_probe():
    from grouptotient import all_subgroups, construct
    from grouptotient.verify import class_subgroup_closure

    # a class member: every subgroup is again a member
    G = construct("dihedral:9")
    closure = class_subgroup_closure(all_subgroups(G))
    assert all(member for _, member in closure)

    # a non-member still has member subgroups (all cyclic ones) and
    # non-member subgroups (e.g. Klein subgroups of the order-8 dihedral)
    G = construct("dihedral:4")
    closure = class_subgroup_closure(all_subgroups(G))
    assert any(member for _, member in closure)
    assert not all(member for _, member in closure)


def test_near_miss_semidirect_product_without_witness():
    """sdp:15,2,4 is constructible (the fixed-point-free condition is not
    enforced at construction): the action fixes the order-3 part, so no
    decomposition witness exists, yet the group still attains S = |G|
    through its coprime factorization Z_3 x D_10."""
    from grouptotient import all_subgroups, construct, fixed_point_free_decomposition, gauss_sum

    G = construct("sdp:15,2,4")
    assert G.order == 30
    L = all_subgroups(G)
    assert fixed_point_free_decomposition(L) is None
    assert gauss_sum(L) == 30


def _linear_decomposition(G, L):
    """The decomposition witness search as one pass over every subgroup,
    testing normality, cyclicity, complements and fixed points on Python
    lists and sets alone."""
    table = G.table.tolist()
    n = len(table)
    subgroups = _subgroups(L)
    for N in subgroups:
        members = N.members.tolist()
        index = n // len(members)
        if len(members) in (1, n) or not is_prime(index) or math.gcd(len(members), index) != 1:
            continue
        if all(naive_order(table, x) != len(members) for x in members):
            continue
        if not naive_is_normal(table, members):
            continue
        for H in subgroups:
            if len(H) != index or set(H.members.tolist()) & set(members) != {0}:
                continue
            h = H.members.tolist()[1]
            inverse = next(y for y in range(n) if table[h][y] == 0)
            if sum(table[table[h][x]][inverse] == x for x in members) == 1:
                return (members, H.members.tolist(), index)
    return None


def test_decomposition_reads_only_prime_index_levels():
    """The witness matches a linear scan."""
    from grouptotient import fixed_point_free_decomposition

    specs = [f"dihedral:{n}" for n in range(3, 46, 2)]
    specs += [str(pq_group_spec(p, q)) for p, q in PQ_PAIRS_DEFAULT]
    specs += ["dihedral:12", "cyclic:12", "sdp:15,2,4", "cyclic:7", "dihedral:4", "sdp:7,3,2"]
    for spec in specs:
        G = construct(spec)
        L = all_subgroups(G)
        witness = fixed_point_free_decomposition(L)
        if witness is not None:
            N, H, p, _ = witness
            witness = (N.members.tolist(), H.members.tolist(), p)
        assert witness == _linear_decomposition(G, L), spec


def test_cli_max_order_caps_ingested_files(tmp_path, capsys):
    """A 60-element table and a 120-element generated group exceed
    --max-order 50: a catalogue scan records each as skipped and scans the
    files under the cap, as a family scan does; summarize --file exits 2."""
    write_cayley_table(construct("dihedral:30"), tmp_path / "d30.cayley")
    (tmp_path / "s5.gens").write_text("5\n1 2 3 4 0\n1 0 2 3 4\n")
    write_cayley_table(construct("cyclic:7"), tmp_path / "c7.cayley")
    assert main(["--max-order", "50", "scan", "--catalogue", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert [row["id"] for row in payload["rows"]] == ["c7"]
    assert [skip["id"] for skip in payload["skipped"]] == ["d30", "s5"]
    assert "skipped d30: group order 60 exceeds the configured cap 50" in err
    assert "skipped s5: group order 51 exceeds the configured cap 50" in err
    assert main(["--max-order", "50", "summarize", "--file", str(tmp_path / "d30.cayley")]) == 2
    assert "exceeds the configured cap 50" in capsys.readouterr().err


def _inline_pool(monkeypatch, cpus):
    """Replace the scan's process pool with one that records max_workers
    and maps in this process, on a host reporting `cpus` CPUs."""
    import concurrent.futures

    import grouptotient.verify as verify_mod

    started = []

    class InlineExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: cpus)
    return started


def test_scan_caps_workers_at_corpus_size_and_cpu_count(monkeypatch):
    corpus = family_specs("dihedral", 12)
    expected = canonical_json(run_scan(corpus))
    started = _inline_pool(monkeypatch, cpus=4)
    assert canonical_json(run_scan(corpus, jobs=100000)) == expected
    assert canonical_json(run_scan(corpus, jobs=3)) == expected
    assert canonical_json(run_scan(corpus[:2], jobs=100000)) == canonical_json(run_scan(corpus[:2]))
    assert started == [4, 3, 2]


@pytest.mark.parametrize("cpus", [1, None])
def test_scan_runs_in_process_when_one_worker_is_left(monkeypatch, cpus):
    corpus = family_specs("dihedral", 12)
    started = _inline_pool(monkeypatch, cpus=cpus)
    assert canonical_json(run_scan(corpus, jobs=100000)) == canonical_json(run_scan(corpus))
    assert canonical_json(run_scan(corpus[:1], jobs=2)) == canonical_json(run_scan(corpus[:1]))
    assert started == []


def test_the_process_pool_is_imported_only_for_several_jobs():
    # concurrent.futures.process takes about 19 ms to import; a run with one job skips it
    code = "import sys, grouptotient.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "False\n"


@pytest.mark.parametrize("jobs", [0, -1])
def test_scan_rejects_fewer_than_one_job(monkeypatch, jobs, capsys):
    from grouptotient import InvalidParameterError

    started = _inline_pool(monkeypatch, cpus=4)
    with pytest.raises(InvalidParameterError):
        run_scan(family_specs("dihedral", 12), jobs=jobs)
    code = main(["--jobs", str(jobs), "scan", "--family", "dihedral", "--scan-max-order", "12"])
    assert code == 2
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert started == []
