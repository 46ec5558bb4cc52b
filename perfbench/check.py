"""Output checks of each workload against the references in `reference/`.

Every check returns a list of problems; an empty list means the output is
correct. Nothing here imports `stabcover`: the references were written
once by `make_reference.py` and are compared as plain data.

Rules shared by the checks:
- exact facts (group orders, S1, S2, S3', stability, trivial-instability
  reasons) must equal the reference;
- a determinate `yes`/`no` of S3, S4 or S5 must equal the reference, and
  a reference `indeterminate` may become anything. So a change that
  resolves capped verdicts, or weights a census by orbit, keeps the check
  green, and any flipped verdict fails it.
"""

from __future__ import annotations

import gzip
import json
import os
import re

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

EXACT_FIELDS = ("aut_order", "cover_aut_order", "b_order",
                "stable", "in_s1", "in_s2", "in_s3prime")
TRI_FIELDS = ("in_s3", "in_s4", "in_s5")


def reference_path(workload: str, suffix: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.{suffix}")


# -- exhaustive censuses: per-set records --------------------------------------


def _tri(value) -> str:
    """'yes'/'no'/'indeterminate' from a record field (a bool once it is exact)."""
    if value is True:
        return "yes"
    if value is False:
        return "no"
    return value


def record_key(rec: dict) -> tuple:
    """The compared fields of one `--records` line, keyed by its set mask."""
    return (
        tuple(rec[f] for f in EXACT_FIELDS)
        + (tuple(sorted(rec["reasons"])),)
        + tuple(_tri(rec[f]) for f in TRI_FIELDS)
    )


def write_records_reference(records_path: str, out_path: str) -> int:
    """Compact gzipped TSV of a `--records` file: mask, exact fields, verdicts."""
    rows = []
    with open(records_path) as f:
        for line in f:
            rec = json.loads(line)
            exact = [json.dumps(rec[f]) for f in EXACT_FIELDS]
            reasons = ",".join(sorted(rec["reasons"])) or "-"
            verdicts = [_tri(rec[f]) for f in TRI_FIELDS]
            rows.append("\t".join([rec["set"], *exact, reasons, *verdicts]))
    rows.sort(key=lambda r: int(r.split("\t", 1)[0], 16))
    with gzip.GzipFile(out_path, "wb", mtime=0) as f:
        f.write(("\n".join(rows) + "\n").encode())
    return len(rows)


def load_records_reference(path: str) -> dict[int, tuple]:
    ref = {}
    with gzip.open(path, "rt") as f:
        for line in f:
            mask, *cols = line.rstrip("\n").split("\t")
            n = len(EXACT_FIELDS)
            exact = tuple(json.loads(c) for c in cols[:n])
            reasons = () if cols[n] == "-" else tuple(cols[n].split(","))
            ref[int(mask, 16)] = exact + (reasons,) + tuple(cols[n + 1:])
    return ref


def check_records(records_path: str, ref: dict[int, tuple], limit: int = 5) -> list[str]:
    """Each reference set appears once, with equal exact fields and verdicts."""
    problems = []
    seen = set()
    names = EXACT_FIELDS + ("reasons",) + TRI_FIELDS
    n_exact = len(EXACT_FIELDS) + 1
    with open(records_path) as f:
        for line in f:
            rec = json.loads(line)
            mask = int(rec["set"], 16)
            if mask in seen:
                problems.append(f"set {rec['set']} recorded twice")
                continue
            seen.add(mask)
            want = ref.get(mask)
            if want is None:
                problems.append(f"set {rec['set']} is not in the reference")
                continue
            got = record_key(rec)
            for name, g, w in zip(names[:n_exact], got[:n_exact], want[:n_exact]):
                if g != w:
                    problems.append(f"set {rec['set']}: {name} is {g!r}, reference {w!r}")
            for name, g, w in zip(names[n_exact:], got[n_exact:], want[n_exact:]):
                if w != "indeterminate" and g != w:
                    problems.append(f"set {rec['set']}: {name} is {g!r}, reference {w!r}")
            if len(problems) >= limit:
                return problems
    if len(seen) != len(ref):
        problems.append(f"{len(seen)} sets recorded, reference has {len(ref)}")
    return problems


def check_exhaustive(report_path: str, records_path: str, ref: dict[int, tuple]) -> list[str]:
    with open(report_path) as f:
        report = json.load(f)
    problems = []
    if report.get("examined") != len(ref):
        problems.append(f"report examined {report.get('examined')}, reference {len(ref)}")
    return problems + check_records(records_path, ref)


# -- check-lemmas --------------------------------------------------------------

_LEMMA_LINE = re.compile(r"^(\S+): (pass|FAIL) \((\d+) cases\)")


def parse_lemmas(text: str) -> dict[str, tuple[bool, int]]:
    out = {}
    for line in text.splitlines():
        m = _LEMMA_LINE.match(line)
        if m:
            out[m.group(1)] = (m.group(2) == "pass", int(m.group(3)))
    return out


def check_lemmas(report_path: str, ref: dict[str, int]) -> list[str]:
    """Every check passes; the reference checks keep their case counts."""
    with open(report_path) as f:
        got = parse_lemmas(f.read())
    problems = []
    for name, cases in ref.items():
        if name not in got:
            problems.append(f"check {name} missing")
        elif got[name][1] != cases:
            problems.append(f"check {name} ran {got[name][1]} cases, reference {cases}")
    problems += [f"check {name} failed" for name, (ok, _) in got.items() if not ok]
    return problems


# -- dispatch -------------------------------------------------------------------


class OutputCheck:
    """Loads a workload's reference once and checks each pass against it."""

    def __init__(self, wl):
        self.wl = wl
        if wl.kind == "exhaustive":
            self.ref = load_records_reference(reference_path(wl.name, "tsv.gz"))
        else:
            with open(reference_path(wl.name, "json")) as f:
                self.ref = json.load(f)["cases"]

    def __call__(self, report_path: str, records_path: str) -> list[str]:
        if self.wl.kind == "exhaustive":
            return check_exhaustive(report_path, records_path, self.ref)
        return check_lemmas(report_path, self.ref)
