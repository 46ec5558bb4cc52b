"""Command-line behavior: parsing, exit codes, and output formats."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stabcover
from stabcover import cli, verify
from stabcover.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INDETERMINATE,
    EXIT_OK,
    EXIT_PRECONDITION,
    main,
    parse_set_literal,
)
from stabcover.errors import DomainError
from stabcover.graphs import ConnectionSet
from stabcover.groups import make_group
from stabcover.perms import PermutationGroup, as_perm


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_set_literal():
    C5 = make_group([5])
    assert parse_set_literal(C5, "1,4") == [1, 4]
    assert parse_set_literal(C5, "(1,),(4,)") == [1, 4]
    assert parse_set_literal(C5, " ") == []
    G = make_group([2, 4])
    assert parse_set_literal(G, "(1,0),(0,3)") == [4, 3]
    with pytest.raises(DomainError):
        parse_set_literal(G, "1,2")  # bare integers need a cyclic group
    with pytest.raises(DomainError):
        parse_set_literal(C5, "(1,2)")  # wrong arity
    with pytest.raises(DomainError):
        parse_set_literal(C5, "nonsense(")
    # rank 0: C1's one element is (), and an integer reduces to it
    C1 = make_group([])
    assert parse_set_literal(C1, "0") == parse_set_literal(C1, "()") == [0]
    assert parse_set_literal(C1, "3,()") == [0, 0]
    with pytest.raises(DomainError, match=r"element \(1, 2\) of '\(1, 2\)' is not"):
        parse_set_literal(C5, "(1, 2)")  # the error quotes the literal as written
    with pytest.raises(DomainError, match="element 'a' of"):
        parse_set_literal(C5, "'a'")


@pytest.mark.parametrize("group, literal", [("C5", "True,4"), ("C2xC2", "(True,0)")])
def test_classify_refuses_booleans(capsys, group, literal):
    # a bool is an int to isinstance; as an element or a coordinate it
    # must be refused, not read as 1
    code, out, err = run_cli(capsys, "classify", group, literal)
    assert code == EXIT_PRECONDITION and out == ""
    assert "True" in err


def test_classify_trivial_group_reads_an_integer_as_the_identity(capsys):
    code, out, _ = run_cli(capsys, "classify", "C1", "0")
    assert code == EXIT_OK
    assert run_cli(capsys, "classify", "C1", "()") == (EXIT_OK, out, "")
    assert json.loads(out)["set"] == "0x1"


def test_classify_stable(capsys):
    code, out, _ = run_cli(capsys, "classify", "C5", "1,4")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["stable"] is True and rec["in_s2"] is True


def test_classify_clebsch_graph_in_c2_to_the_fourth(capsys):
    # |Hol(C2^4)| = 322 560; S3' is read off the Cayley rows instead, which
    # scans the 20 159 tables of Aut(C2^4) other than 1 (= -1 here)
    code, out, _ = run_cli(
        capsys, "classify", "C2xC2xC2xC2", "(1,0,0,0),(0,1,0,0),(0,0,1,0),(0,0,0,1),(1,1,1,1)"
    )
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["in_s3prime"] is True
    assert rec["aut_order"] == 1920


def test_classify_empty_set_matches_census_record(capsys, tmp_path):
    # blank text is the empty set, which the census classifies as mask 0x0
    code, out, _ = run_cli(capsys, "classify", "C5", "")
    assert code == EXIT_OK
    path = tmp_path / "records.jsonl"
    code, _, _ = run_cli(capsys, "census", "C5", "--records", str(path))
    assert code == EXIT_OK
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert json.loads(out) == next(r for r in recs if r["set"] == "0x0")


def test_classify_prints_exact_orders_past_the_digit_limit(capsys):
    # the empty set's cover group at C780 is Sym(1560), and 1560! has more
    # than the 4300 digits Python converts to text by default
    code, out, _ = run_cli(capsys, "classify", "C780", "")
    assert code == EXIT_OK
    assert json.loads(out)["cover_aut_order"] == math.factorial(1560)
    code, out, _ = run_cli(capsys, "classify", "C780", "", "--format", "csv")
    assert code == EXIT_OK
    header, row = csv.reader(io.StringIO(out))
    assert int(dict(zip(header, row))["cover_aut_order"]) == math.factorial(1560)


def test_classify_trivially_unstable_csv(capsys):
    code, out, _ = run_cli(capsys, "classify", "C4", "1,3", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "group"
    rec = dict(zip(rows[0], rows[1]))
    assert rec["stable"] == "false"
    assert "bipartite" in rec["reasons"]


RECORD_KEYS = (
    "group", "set", "set_size", "aut_order", "cover_aut_order", "b_order",
    "connected", "bipartite", "twin_free", "stable", "in_s1", "in_s2",
    "in_s3prime", "exponent_two", "reasons", "in_s3", "in_s4", "in_s5",
)


def test_classify_record_schema(capsys):
    # the JSON record's keys in order, and the CSV header: the same names
    # in the same order, without set_size
    code, out, _ = run_cli(capsys, "classify", "C5", "1,4")
    assert code == EXIT_OK
    assert tuple(json.loads(out)) == RECORD_KEYS
    code, out, _ = run_cli(capsys, "classify", "C5", "1,4", "--format", "csv")
    assert code == EXIT_OK
    header, row = csv.reader(io.StringIO(out))
    assert header == [k for k in RECORD_KEYS if k != "set_size"]
    assert len(row) == 17


def test_classify_rejects_asymmetric_set(capsys):
    code, _, err = run_cli(capsys, "classify", "C5", "1")
    assert code == EXIT_PRECONDITION
    assert "inverse-closed" in err


def test_classify_symmetrize(capsys):
    code, out, _ = run_cli(capsys, "classify", "C5", "1", "--symmetrize")
    assert code == EXIT_OK
    assert json.loads(out)["set"] == "0x12"


def test_classify_strict_indeterminate(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "C5", "1,2,3,4", "--enum-cap", "10", "--strict"
    )
    assert code == EXIT_INDETERMINATE
    rec = json.loads(out)
    # S3 is exact without enumerating B(S); the capped S4/S5 scan is what
    # leaves the record indeterminate
    assert rec["in_s3"] is True
    assert rec["in_s4"] == rec["in_s5"] == "indeterminate"
    code, _, _ = run_cli(capsys, "classify", "C5", "1,2,3,4", "--enum-cap", "10")
    assert code == EXIT_OK


def test_census_exhaustive(capsys):
    code, out, _ = run_cli(capsys, "census", "C7")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["total"] == 16 and rep["counts"]["stable"] == 13
    assert rep["classified"] == 6  # of 8 Aut(C7)-orbits, 2 complement pairs in S1


def test_census_monte_carlo_requires_seed(capsys):
    code, _, err = run_cli(capsys, "census", "C7", "--samples", "10")
    assert code == EXIT_PRECONDITION
    assert "seed" in err


def test_census_exhaustive_refuses_a_seed(capsys, monkeypatch):
    # the exhaustive census draws nothing, so a seed would be ignored;
    # it is refused before any census runs
    monkeypatch.setattr(cli, "exhaustive_census", None)
    code, out, err = run_cli(capsys, "census", "C4", "--seed", "3")
    assert code == EXIT_PRECONDITION and out == ""
    assert "--seed needs --samples" in err


def test_census_monte_carlo_refuses_records(capsys, tmp_path):
    path = tmp_path / "records.jsonl"
    code, _, err = run_cli(
        capsys, "census", "C7", "--samples", "10", "--seed", "1", "--records", str(path)
    )
    assert code == EXIT_PRECONDITION
    assert "--samples" in err
    assert not path.exists()


def test_census_monte_carlo_refuses_unlabeled(capsys, monkeypatch):
    # refused before any census runs
    monkeypatch.setattr(cli, "exhaustive_census", None)
    monkeypatch.setattr(cli, "monte_carlo_census", None)
    code, out, err = run_cli(
        capsys, "census", "C5", "--samples", "5", "--seed", "1", "--unlabeled"
    )
    assert code == EXIT_PRECONDITION
    assert "--samples" in err and out == ""


def test_census_monte_carlo(capsys):
    code, out, _ = run_cli(capsys, "census", "C7", "--samples", "16", "--seed", "7")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["mode"] == "monte-carlo" and rep["examined"] == 16


def test_census_unlabeled_jsonl(capsys):
    code, out, _ = run_cli(capsys, "census", "C5", "--unlabeled", "--format", "jsonl")
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["mode"] == "exhaustive"
    assert lines[1]["unlabeled_count"] == 6


def test_census_unlabeled_refuses_csv(capsys, monkeypatch):
    # the unlabeled report has no CSV rows, so the pair is refused up front
    monkeypatch.setattr(cli, "exhaustive_census", None)
    monkeypatch.setattr(cli, "unlabeled_census", None)
    code, out, err = run_cli(capsys, "census", "C5", "--unlabeled", "--format", "csv")
    assert code == EXIT_PRECONDITION
    assert "CSV" in err and out == ""


def test_census_records_file(tmp_path, capsys):
    texts = []
    for workers in ("1", "2"):
        path = tmp_path / f"records-{workers}.jsonl"
        code, _, _ = run_cli(
            capsys, "census", "C5", "--records", str(path), "--workers", workers
        )
        assert code == EXIT_OK
        texts.append(path.read_text())
    assert texts[0] == texts[1]
    recs = [json.loads(line) for line in texts[0].splitlines()]
    assert len(recs) == 8
    assert sum(r["stable"] for r in recs) == 5


def test_census_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "census", "C5", "--out", str(path))
    assert code == EXIT_OK
    assert json.loads(path.read_text())["total"] == 8


@pytest.mark.parametrize("option", ["--out", "--records"])
def test_unwritable_output_path_is_a_precondition_error(tmp_path, capsys, option):
    # a missing directory and a path that is a directory: exit 2 with one
    # error line, not a traceback and the exit code of a failed check
    for path in (tmp_path / "missing" / "x", tmp_path):
        code, _, err = run_cli(capsys, "census", "C3", option, str(path))
        assert code == EXIT_PRECONDITION
        assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize(
    "argv, work",
    [(["census", "C2xC2xC2xC2"], "exhaustive_census"),
     (["check-lemmas"], "run_all_checks")],
    ids=["census", "check-lemmas"],
)
def test_unwritable_output_path_is_refused_before_the_work(
    tmp_path, capsys, monkeypatch, argv, work
):
    calls = []
    monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(a))
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "x"))
    assert (code, out, calls) == (EXIT_PRECONDITION, "", [])
    assert err.startswith("error: ")


def test_output_probe_truncates_nothing_and_leaves_no_empty_file(tmp_path, capsys):
    # the probe appends: a refused command keeps an existing file's bytes,
    # and removes the empty file it created for a missing path
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    made = tmp_path / "made.jsonl"
    code, _, _ = run_cli(
        capsys, "census", "C7", "--samples", "4", "--out", str(kept), "--records", str(made)
    )
    assert code == EXIT_PRECONDITION
    assert kept.read_text() == "old\n" and not made.exists()


def test_out_and_records_naming_one_file_are_refused(tmp_path, capsys, monkeypatch):
    # the report would overwrite the records; `./p` and `p` are one file,
    # and the refused command leaves no file behind
    monkeypatch.chdir(tmp_path)
    for out, records in (("p", "p"), ("./p", "p")):
        code, stdout, err = run_cli(capsys, "census", "C2", "--records", records, "--out", out)
        assert (code, stdout) == (EXIT_PRECONDITION, ""), (out, records)
        assert "same file" in err
        assert list(tmp_path.iterdir()) == []


# runs in a fresh interpreter: which modules the commands load
_IMPORT_PROBE = """
import json, os, sys
from stabcover.cli import main

def loaded():
    names = ("mpmath", "concurrent.futures", "multiprocessing")
    return sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names))

assert main(["census", "C2xC4", "--out", os.devnull]) == 0
assert main(["check-lemmas", "--order-limit", "4", "--out", os.devnull]) == 0
before = loaded()
assert main(["bounds", "--r", "1024", "--delta", "0.05", "--out", os.devnull]) == 0
print(json.dumps([before, loaded()]))
"""


def test_census_and_check_lemmas_load_neither_mpmath_nor_the_process_pool():
    # only `bounds` needs mpmath and only --workers N > 1 the process
    # pool, so a one-worker census or check-lemmas run imports neither;
    # the bounds run shows that the probe sees a loaded mpmath
    src = str(Path(stabcover.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, check=True
    )
    before, after = json.loads(run.stdout.splitlines()[-1])
    assert before == []
    assert "mpmath" in after


def test_census_monte_carlo_stream_is_pinned(capsys):
    # the samples are the first draws of one random.Random(seed); these
    # tallies, the same at --workers 1 and 2, pin that stream
    want = {
        "disconnected": 9,
        "connected-bipartite": 12,
        "not-twin-free": 6,
        "s1": 276,
        "s2": 87,
        "s3": 160,
        "s3prime": 184,
        "s4": 49,
        "s5": 2,
        "stable": 163,
        "trivially-unstable": 24,
        "nontrivially-unstable": 88,
        "indeterminate": 25,
    }
    code, out, _ = run_cli(capsys, "census", "C2xC10", "--samples", "300", "--seed", "7")
    assert code == EXIT_OK
    assert json.loads(out)["counts"] == want


def test_census_monte_carlo_seeds_draw_distinct_streams(capsys):
    # every seed has its own stream: seeds below the shard count are not
    # permutations of one set of per-shard streams
    reports = []
    for seed in ("0", "1", "31"):
        code, out, _ = run_cli(capsys, "census", "C2xC10", "--samples", "320", "--seed", seed)
        assert code == EXIT_OK
        reports.append(json.loads(out)["counts"])
    assert reports[0] != reports[1] != reports[2] != reports[0]


def test_census_refuses_a_negative_seed(capsys):
    # random.Random folds the sign, so -1 would repeat the draws of 1
    code, out, err = run_cli(capsys, "census", "C5", "--samples", "5", "--seed", "-1")
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert "seed" in err


def test_workers_environment_variable_is_not_read(capsys, monkeypatch):
    # --workers (default 1) is the only worker setting
    monkeypatch.setenv("STABCOVER_WORKERS", "zero")
    for argv in ("classify C5 1,4", "census C5", "bounds --r 1024 --delta 0.1"):
        code, _, err = run_cli(capsys, *argv.split())
        assert (code, err) == (EXIT_OK, ""), argv


def test_census_refuses_zero_workers(capsys):
    for argv in ("census C5 --workers 0", "census C5 --samples 5 --seed 1 --workers 0"):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == EXIT_PRECONDITION and out == "", argv
        assert "worker count" in err


def test_negative_enum_cap_is_refused(capsys):
    # a negative cap is refused like a bad worker count; a cap of 0 is legal
    for argv in ("census C4 --enum-cap -1", "census C4 --samples 5 --seed 1 --enum-cap -1",
                 "classify C4 1,3 --enum-cap -5"):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == EXIT_PRECONDITION and out == "", argv
        assert "enumeration cap must be non-negative" in err
    for argv in ("census C4 --enum-cap 0", "classify C4 1,3 --enum-cap 0"):
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == EXIT_OK and out, argv


def test_bounds_single_point(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--r", "50000", "--delta", "0.001")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    rec = dict(zip(rows[0], rows[1]))
    assert float(rec["h_first_term"]) < float(rec["h_second_term"])
    assert rec["component_sum_le_h"] == "true"


def test_bounds_grid(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--grid")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 21 * 4
    col = rows[0].index("component_sum_le_h")
    assert all(row[col] == "true" for row in rows[1:])


def test_bounds_domain_error(capsys):
    code, _, err = run_cli(capsys, "bounds", "--r", "100", "--delta", "0.7")
    assert code == EXIT_PRECONDITION
    code, _, err = run_cli(capsys, "bounds")
    assert code == EXIT_PRECONDITION
    code, out, err = run_cli(
        capsys, "bounds", "--r", "1024", "--delta", "0.1", "--precision-bits", "8"
    )
    assert code == EXIT_PRECONDITION and out == ""
    assert "53 bits" in err


@pytest.mark.parametrize("argv", ["--grid --r 5 --delta 0.3", "--grid --delta 0.7"])
def test_bounds_grid_refuses_a_point(capsys, argv):
    # --grid reads neither --r nor --delta. An argparse mutually exclusive
    # group would also make --r and --delta exclude each other, so the
    # refusal is a precondition error before any row is printed
    code, out, err = run_cli(capsys, "bounds", *argv.split())
    assert code == EXIT_PRECONDITION and out == ""
    assert "--grid excludes --r and --delta" in err


def test_check_lemmas_small(capsys):
    # order four exercises the exponent-two degenerate paths
    code, out, _ = run_cli(capsys, "check-lemmas", "--order-limit", "4")
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert "inverse-closed-count: pass" in out


@pytest.mark.parametrize("pair", [False, True])
def test_check_lemmas_reports_a_failed_bicoset_check(capsys, monkeypatch, pair):
    # B0 of C4 {1, 3} gets a generator swapping 1- and 2-, no automorphism.
    # Alone, it differs from B0 of the complement {0, 2}; given to both
    # sets of the pair, the frame refuses the listing. Either way the check
    # fails with exit 1 and the report still has every check's line.
    real = verify.b0_group
    C4 = make_group([4])
    B0 = real(ConnectionSet(C4, 0b1010))
    swap = list(range(8))
    swap[5], swap[6] = 6, 5
    bad = PermutationGroup(8, B0.generators + [as_perm(swap)], B0._base)
    masks = (0b1010, 0b0101) if pair else (0b1010,)

    def b0_group(S, cover=None):
        return bad if S.group.spec() == "C4" and S.mask in masks else real(S, cover)

    monkeypatch.setattr(verify, "b0_group", b0_group)
    code, out, err = run_cli(capsys, "check-lemmas", "--order-limit", "4")
    assert code == EXIT_CHECK_FAILED and err == ""
    assert "bicoset-model: FAIL" in out
    assert "C4 0xa: " in out
    for name, _, _ in verify.ALL_CHECKS:
        assert f"{name}: " in out
    assert out.count(": pass") == len(verify.ALL_CHECKS) - 1


def test_bad_group_spec(capsys):
    code, _, err = run_cli(capsys, "classify", "Q8", "1,2")
    assert code == EXIT_PRECONDITION


def test_work_budget_option_is_gone(capsys):
    # the S4/S5 scan has no work budget, so the old option is an argument error
    with pytest.raises(SystemExit) as exc:
        main(["census", "C5", "--work-budget", "10"])
    assert exc.value.code == EXIT_PRECONDITION
    assert "--work-budget" in capsys.readouterr().err


def test_census_refuses_too_many_sets(capsys):
    # C64 has 2^33 inverse-closed subsets, above the fixed 2^30 set cap
    code, _, err = run_cli(capsys, "census", "C64")
    assert code == EXIT_PRECONDITION
    assert "census set count" in err


@pytest.mark.parametrize(
    "argv",
    [
        "check-lemmas --order-limit 3 --enum-cap 5",
        "check-lemmas --order-limit 3 --strict",
        "bounds --grid --enum-cap 5",
        "bounds --grid --strict",
        "classify C5 1,4 --set-cap 5",
        "census C5 --set-cap 5",
        "census C5 --exhaustive --samples 5 --seed 1",
    ],
)
def test_subcommands_reject_options_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == EXIT_PRECONDITION
    assert "unrecognized arguments" in capsys.readouterr().err
