"""The benchmark's workloads: what each pass runs and how it is checked.

Shared by the runner (`run.py`), the measured child (`child.py`) and the
reference generator (`make_reference.py`). Importing this module loads
nothing from `stabcover`, so the runner's own start-up stays out of every
measurement.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "exhaustive" or "lemmas"
    group: str | None  # group spec, None for the lemma suite
    sets: int  # connection sets (or lemma check cases) one pass examines
    why: str

    def argv(self, report: str, records: str) -> list[str]:
        """Arguments for `stabcover.cli.main` for one pass."""
        if self.kind == "exhaustive":
            return ["census", self.group, "--workers", "1",
                    "--records", records, "--out", report]
        return ["check-lemmas", "--order-limit", "10", "--out", report]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census-c2xc10", "exhaustive", "C2xC10", 4096,
            "exhaustive C2xC10: small B(S), time in the autgrp search and the "
            "perms chain; the README's 60 s gate",
        ),
        Workload(
            "lemmas-10", "lemmas", None, 3496,
            "check-lemmas --order-limit 10: the only workload reaching verify; "
            "24 groups, bi-coset model check",
        ),
    )
}
