"""Command-line surface: classify, census, check-lemmas, and bounds.

Every command is deterministic given its flags; the census merges fixed
shards, so reports are identical for any worker count. Exit codes: 0 on
success, 1 when a verification check fails, 2 on parse or precondition
errors, 3 when --strict is set and capped searches left indeterminate
fields in the output.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import os
import sys
from dataclasses import dataclass

import mpmath as mp

from . import bounds as bounds_mod
from .census import exhaustive_census, monte_carlo_census, unlabeled_census
from .errors import CapExceededError, DomainError, StabcoverError
from .graphs import connection_set
from .groups import AbelianGroup, parse_group_spec
from .perms import DEFAULT_ENUM_CAP
from .stability import classify
from .verify import run_all_checks

WORKERS_ENV = "STABCOVER_WORKERS"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PRECONDITION = 2
EXIT_INDETERMINATE = 3


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs shared by the subcommands."""

    command: str
    group: str | None
    delta: float | None
    enum_cap: int
    seed: int | None
    workers: int
    out: str | None
    fmt: str
    strict: bool

    def __post_init__(self):
        if self.workers < 1:
            raise DomainError("worker count must be at least 1")
        if self.delta is not None and not 0 < self.delta < 0.5:
            raise DomainError("delta must lie strictly between 0 and 1/2")


def _default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        value = int(raw)
    except ValueError as e:
        raise DomainError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from e
    return value


def parse_set_literal(G: AbelianGroup, text: str) -> list[int]:
    """Element indices from `1,4` (cyclic) or `(1,0),(0,3)` (any rank).

    Tuples are coordinate vectors in the invariant-factor order; plain
    integers are only accepted for cyclic groups, where they are the
    single coordinate. Coordinates are reduced modulo the factor sizes.
    """
    try:
        parsed = ast.literal_eval(f"({text},)")
    except (ValueError, SyntaxError) as e:
        raise DomainError(f"cannot parse set literal {text!r}") from e
    out = []
    for item in parsed:
        if isinstance(item, int):
            if G.rank > 1:
                raise DomainError(
                    f"element {item} is a bare integer; rank-{G.rank} groups need tuples"
                )
            item = (item,)
        if not (
            isinstance(item, tuple)
            and len(item) == G.rank
            and all(isinstance(c, int) for c in item)
        ):
            raise DomainError(f"element {item!r} is not a length-{G.rank} integer tuple")
        out.append(G.index(item))
    return out


def _write(out_path: str | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as f:
            f.write(text)


def _mp_str(x) -> str:
    return mp.nstr(x, 12, strip_zeros=False)


# -- subcommands -------------------------------------------------------------


def cmd_classify(cfg: RunConfig, args) -> int:
    G = parse_group_spec(cfg.group)
    elements = parse_set_literal(G, args.set)
    S = connection_set(G, elements, symmetrize=args.symmetrize)
    rec = classify(G, S, cfg.enum_cap)
    if cfg.fmt == "csv":
        import io

        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(rec.CSV_COLUMNS)
        w.writerow(rec.to_csv_row())
        _write(cfg.out, buf.getvalue())
    else:
        _write(cfg.out, json.dumps(rec.to_json_dict(), indent=2) + "\n")
    if cfg.strict and rec.indeterminate:
        return EXIT_INDETERMINATE
    return EXIT_OK


def cmd_census(cfg: RunConfig, args) -> int:
    G = parse_group_spec(cfg.group)
    if args.unlabeled and cfg.fmt == "csv":
        raise DomainError("the unlabeled report has no CSV form; use --format json or jsonl")
    if args.samples is not None:
        if cfg.seed is None:
            raise DomainError("Monte-Carlo mode needs --seed for reproducibility")
        if args.records or args.unlabeled:
            raise DomainError("--records and --unlabeled need the exhaustive census, not --samples")
        report = monte_carlo_census(
            G,
            samples=args.samples,
            seed=cfg.seed,
            enum_cap=cfg.enum_cap,
            workers=cfg.workers,
        )
    else:
        report = exhaustive_census(G, enum_cap=cfg.enum_cap, workers=cfg.workers)
        if args.records:
            with open(args.records, "w") as f:
                for rec in report.set_records():
                    f.write(json.dumps(rec.to_json_dict()) + "\n")
    pieces = [report.to_json_dict()]
    if args.unlabeled:
        pieces.append(unlabeled_census(report).to_json_dict())
    if cfg.fmt == "csv":
        import io

        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(report.CSV_HEADER)
        w.writerows(report.to_csv_rows())
        _write(cfg.out, buf.getvalue())
    elif cfg.fmt == "jsonl":
        _write(cfg.out, "".join(json.dumps(p) + "\n" for p in pieces))
    else:
        _write(cfg.out, json.dumps(pieces[0] if len(pieces) == 1 else pieces, indent=2) + "\n")
    if cfg.strict and report.counts["indeterminate"] > 0:
        return EXIT_INDETERMINATE
    return EXIT_OK


def cmd_check_lemmas(cfg: RunConfig, args) -> int:
    results = run_all_checks(args.order_limit)
    failed = False
    lines = []
    for res in results:
        status = "pass" if res.passed else "FAIL"
        note = f"  [{res.note}]" if res.note else ""
        lines.append(f"{res.name}: {status} ({res.cases} cases){note}")
        for f in res.failures:
            lines.append(f"  {f}")
        failed = failed or not res.passed
    _write(cfg.out, "\n".join(lines) + "\n")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


BOUNDS_HEADER = (
    ["r", "delta", "h", "h_first_term", "h_second_term", "k", "k_undefined"]
    + list(bounds_mod.BOUND_NAMES)
    + [f"{name}_vacuous" for name in bounds_mod.BOUND_NAMES]
    + ["component_sum", "component_sum_le_h"]
)


def _bounds_row(r: int, delta: float, precision_bits: int) -> list[str]:
    profile = bounds_mod.lemma_bound_table(r, delta, precision_bits)
    first, second = bounds_mod.h_delta_terms(r, delta, precision_bits)
    row = [
        str(r),
        repr(delta),
        _mp_str(profile.h),
        _mp_str(first),
        _mp_str(second),
        "" if profile.k is None else _mp_str(profile.k),
        "true" if profile.k_undefined else "false",
    ]
    row += [_mp_str(profile.bounds[name]) for name in bounds_mod.BOUND_NAMES]
    row += [
        "true" if profile.vacuous[name] else "false" for name in bounds_mod.BOUND_NAMES
    ]
    row += [
        _mp_str(profile.component_sum),
        "true" if profile.component_sum_le_h else "false",
    ]
    return row


def cmd_bounds(cfg: RunConfig, args) -> int:
    import io

    if args.grid:
        points = bounds_mod.default_grid()
    else:
        if args.r is None or cfg.delta is None:
            raise DomainError("either --grid or both --r and --delta are required")
        points = [(args.r, cfg.delta)]
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(BOUNDS_HEADER)
    for r, delta in points:
        w.writerow(_bounds_row(r, delta, args.precision_bits))
    _write(cfg.out, buf.getvalue())
    return EXIT_OK


# -- argument plumbing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabcover",
        description="Cayley graph stability: classification, censuses, and bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand accepts only the options it reads
    def common(p, classifies=True):
        if classifies:
            p.add_argument("group", help="group spec, e.g. C5 or C2xC10")
            p.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
            p.add_argument("--strict", action="store_true",
                           help="exit 3 when capped searches leave indeterminate fields")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("classify", help="classify one connection set")
    common(p)
    p.add_argument("set", help="set literal, e.g. 1,4 or (1,0),(0,3)")
    p.add_argument("--symmetrize", action="store_true",
                   help="close the set under negation instead of erroring")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p = sub.add_parser("census", help="classify every set, or a uniform sample")
    common(p)
    p.add_argument("--samples", type=int, default=None,
                   help="Monte-Carlo sample count (switches mode)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help=f"parallel workers (default ${WORKERS_ENV} or 1)")
    p.add_argument("--unlabeled", action="store_true",
                   help="also compare canonical-form classes with holomorph orbits")
    p.add_argument("--records", default=None,
                   help="write one JSON record per set to this path")
    p.add_argument("--format", dest="fmt", choices=("json", "csv", "jsonl"),
                   default="json")

    p = sub.add_parser("check-lemmas", help="run the exact verification suite")
    common(p, classifies=False)
    p.add_argument("--order-limit", type=int, default=12,
                   help="check all abelian groups up to this order")

    p = sub.add_parser("bounds", help="evaluate the proportion bounds as CSV")
    common(p, classifies=False)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--grid", action="store_true", help="emit the default (r, delta) grid")
    p.add_argument("--precision-bits", type=int,
                   default=bounds_mod.DEFAULT_PRECISION_BITS)
    return parser


def _make_config(args) -> RunConfig:
    workers = getattr(args, "workers", None)
    if workers is None:
        workers = _default_workers()
    return RunConfig(
        command=args.command,
        group=getattr(args, "group", None),
        delta=getattr(args, "delta", None),
        enum_cap=getattr(args, "enum_cap", DEFAULT_ENUM_CAP),
        seed=getattr(args, "seed", None),
        workers=workers,
        out=args.out,
        fmt=getattr(args, "fmt", "json"),
        strict=getattr(args, "strict", False),
    )


COMMANDS = {
    "classify": cmd_classify,
    "census": cmd_census,
    "check-lemmas": cmd_check_lemmas,
    "bounds": cmd_bounds,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _make_config(args)
        return COMMANDS[args.command](cfg, args)
    except (DomainError, CapExceededError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except StabcoverError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
