"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import gzip
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import check  # noqa: E402
from layertrace import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_workload_names_match_runner():
    declared = [w["name"] for w in _benchmark_json()["workloads"]]
    assert declared == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in _benchmark_json()["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }


def test_every_per_layer_metric_has_a_source():
    from stabcover.verify import ALL_CHECKS

    produced = {"stability.classify_ms.p50", "stability.classify_ms.p99",
                "trace.wall_s", "trace.overhead_s", "trace.spans"}
    for layer in LAYERS:
        produced |= {f"{layer}.calls", f"{layer}.self_s"}
    produced |= {"perms.elements.capped_frac", "stability.s4s5.indeterminate_frac",
                 "stability.classify.indeterminate_frac"}
    produced |= {f"verify.{name}.s" for name, *_ in ALL_CHECKS}
    declared = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert declared <= produced
    assert {f"verify.{name}.s" for name, *_ in ALL_CHECKS} <= declared


_TRACED_RUN = """
import json, sys, time
sys.path[:0] = {paths!r}
import stabcover.cli
from layertrace import Tracer
tracer = Tracer()
tracer.install()
start = time.perf_counter()
rc = stabcover.cli.main({argv!r})
wall = time.perf_counter() - start
print(json.dumps({{"rc": rc, "wall": wall, "metrics": tracer.summary(),
                  "missing": tracer.missing}}))
"""


def _traced(argv: list[str]) -> dict:
    """Trace one CLI call in a fresh interpreter, so no wrapper leaks here."""
    import subprocess

    code = _TRACED_RUN.format(paths=[os.path.join(ROOT, "src"), BENCH], argv=argv)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_self_times_sum_to_at_most_wall(tmp_path):
    report = tmp_path / "report.json"
    run = _traced(["census", "C2xC4", "--workers", "1", "--out", str(report)])
    metrics = run["metrics"]
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert run["rc"] == 0 and run["missing"] == []
    assert metrics["cli.calls"] == 1
    assert metrics["stability.classify.calls"] == json.loads(report.read_text())["examined"]
    assert 0 < self_sum <= run["wall"]


def test_traced_lemma_checks_are_timed(tmp_path):
    from stabcover.verify import ALL_CHECKS

    run = _traced(["check-lemmas", "--order-limit", "4", "--out", str(tmp_path / "out")])
    metrics = run["metrics"]
    assert run["rc"] == 0
    for name, *_ in ALL_CHECKS:
        assert metrics[f"verify.{name}.calls"] == 1
    assert sum(metrics[f"verify.{name}.s"] for name, *_ in ALL_CHECKS) <= run["wall"]


# -- the output check on exhaustive records -------------------------------------


def _reference_records(workload: str) -> list[dict]:
    """The reference rows as `--records` lines in the program's JSON form."""
    rows = []
    with gzip.open(check.reference_path(workload, "tsv.gz"), "rt") as f:
        for line in f:
            mask, *cols = line.rstrip("\n").split("\t")
            n = len(check.EXACT_FIELDS)
            rec = {"set": mask}
            rec.update(zip(check.EXACT_FIELDS, (json.loads(c) for c in cols[:n])))
            rec["reasons"] = [] if cols[n] == "-" else cols[n].split(",")
            rec.update(zip(check.TRI_FIELDS, cols[n + 1:]))
            rows.append(rec)
    return rows


def _write(tmp_path, rows) -> str:
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


@pytest.fixture
def c2xc10():
    ref = check.load_records_reference(check.reference_path("census-c2xc10", "tsv.gz"))
    return ref, _reference_records("census-c2xc10")


def test_reference_records_pass(tmp_path, c2xc10):
    ref, rows = c2xc10
    assert len(rows) == WORKLOADS["census-c2xc10"].sets
    assert check.check_records(_write(tmp_path, rows), ref) == []


def test_flipped_determinate_verdict_is_rejected(tmp_path, c2xc10):
    ref, rows = c2xc10
    i = next(i for i, r in enumerate(rows) if r["in_s3"] == "yes")
    rows[i] = dict(rows[i], in_s3="no")
    problems = check.check_records(_write(tmp_path, rows), ref)
    assert len(problems) == 1 and "in_s3" in problems[0]


def test_resolved_indeterminate_verdict_is_accepted(tmp_path, c2xc10):
    ref, rows = c2xc10
    i = next(i for i, r in enumerate(rows) if r["in_s4"] == "indeterminate")
    rows[i] = dict(rows[i], in_s4="yes")
    assert check.check_records(_write(tmp_path, rows), ref) == []


def test_exact_s3_as_a_bool_is_accepted(tmp_path, c2xc10):
    ref, rows = c2xc10
    rows = [dict(r, in_s3=r["in_s3"] == "yes") if r["in_s3"] != "indeterminate" else r
            for r in rows]
    assert check.check_records(_write(tmp_path, rows), ref) == []


def test_missing_or_changed_exact_field_is_rejected(tmp_path, c2xc10):
    ref, rows = c2xc10
    assert check.check_records(_write(tmp_path, rows[1:]), ref) != []
    changed = [dict(rows[0], b_order=rows[0]["b_order"] * 2)] + rows[1:]
    assert check.check_records(_write(tmp_path, changed), ref) != []


# -- the lemma check ---------------------------------------------------------------


def test_lemma_check(tmp_path):
    with open(check.reference_path("lemmas-10", "json")) as f:
        ref = json.load(f)["cases"]
    lines = [f"{name}: pass ({n} cases)" for name, n in ref.items()]
    report = tmp_path / "lemmas.txt"
    report.write_text("\n".join(lines) + "\n")
    assert check.check_lemmas(str(report), ref) == []
    report.write_text("\n".join(lines[:-1] + [lines[-1].replace("pass", "FAIL")]) + "\n")
    assert check.check_lemmas(str(report), ref) != []


# -- host-speed scaling ------------------------------------------------------------


def test_host_speed_trims_a_lengthened_slice():
    from child import HostSpeed

    speed = HostSpeed()
    speed.slices = [0.001] * 18 + [0.0005, 0.05]
    assert speed.slice_ms() == pytest.approx(1.0)
    speed.slices = [0.001] * 10 + [0.002] * 10
    assert speed.slice_ms() == pytest.approx(1 / (0.5 * (1 / 1.0 + 1 / 2.0)))
