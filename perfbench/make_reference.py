"""Write the output references in `perfbench/reference/` from the current program.

    python3 perfbench/make_reference.py [workload ...]

Run it only at a commit whose verdicts are trusted: the benchmark then
fails any later commit that flips a determinate verdict. For the exhaustive
census it stores the compared fields of every `--records` line. For
`lemmas-10` it stores each check's case count.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from check import (  # noqa: E402
    REFERENCE_DIR,
    parse_lemmas,
    reference_path,
    write_records_reference,
)
from workloads import WORKLOADS  # noqa: E402


def _run_cli(wl, tmp: str) -> tuple[str, str]:
    from stabcover.cli import main

    report = os.path.join(tmp, "report.out")
    records = os.path.join(tmp, "records.jsonl")
    rc = main(wl.argv(report, records))
    if rc != 0:
        raise SystemExit(f"{wl.name}: stabcover exited {rc}")
    return report, records


def write_reference(wl) -> None:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        report, records = _run_cli(wl, tmp)
        if wl.kind == "exhaustive":
            write_records_reference(records, reference_path(wl.name, "tsv.gz"))
            return
        with open(report) as f:
            got = parse_lemmas(f.read())
    if not all(ok for ok, _ in got.values()):
        raise SystemExit(f"{wl.name}: a check failed, not writing a reference")
    with open(reference_path(wl.name, "json"), "w") as f:
        json.dump({"cases": {k: n for k, (_, n) in got.items()}}, f, indent=1)
        f.write("\n")


def main(names: list[str]) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in names or list(WORKLOADS):
        write_reference(WORKLOADS[name])
        print(f"wrote reference for {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
