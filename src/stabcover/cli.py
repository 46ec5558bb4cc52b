"""Command-line surface: classify, census, check-lemmas, and bounds.

Each subcommand is a `cmd_*` function of the parsed arguments alone; its
argument checks are the library's own. Every command is deterministic
given its flags: both census modes classify fixed shards of masks, a
Monte-Carlo census drawing them from the one stream of its seed, so
reports are identical for any `--workers` value, the only worker setting.
Exit codes: 0 on success, 1 when a verification check fails, 2 on parse
or precondition errors (an `--out` or `--records` path that cannot be
written, or the two naming one file, among them, checked before the
command runs), 3 when --strict is set and capped searches left
indeterminate fields in the output.
Only `cmd_bounds` imports mpmath, so the other commands start without it.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import os
import sys

from .census import exhaustive_census, monte_carlo_census, unlabeled_census
from .errors import CapExceededError, DomainError, StabcoverError
from .graphs import connection_set
from .groups import AbelianGroup, parse_group_spec
from .perms import DEFAULT_ENUM_CAP
from .stability import classify
from .verify import run_all_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PRECONDITION = 2
EXIT_INDETERMINATE = 3


def parse_set_literal(G: AbelianGroup, text: str) -> list[int]:
    """Element indices from `1,4` (cyclic) or `(1,0),(0,3)` (any rank).

    Tuples are coordinate vectors in the invariant-factor order; plain
    integers are only accepted for cyclic groups, where they are the
    single coordinate, and for the trivial group C1 (rank 0), where every
    integer is the identity `()`. Coordinates are reduced modulo the
    factor sizes. Blank text is the empty set. Booleans are not integers
    here: `True,4` is refused, not read as `1,4`.
    """
    if not text.strip():
        return []
    try:
        parsed = ast.literal_eval(f"({text},)")
    except (ValueError, SyntaxError) as e:
        raise DomainError(f"cannot parse set literal {text!r}") from e
    out = []
    for item in parsed:
        coords = item
        if type(item) is int:
            if G.rank > 1:
                raise DomainError(
                    f"element {item} is a bare integer; rank-{G.rank} groups need tuples"
                )
            coords = (item,) * G.rank
        if not (
            isinstance(coords, tuple)
            and len(coords) == G.rank
            and all(type(c) is int for c in coords)
        ):
            raise DomainError(
                f"element {item!r} of {text!r} is not a length-{G.rank} integer tuple"
            )
        out.append(G.index(coords))
    return out


def _write(out_path: str | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as f:
            f.write(text)


def _write_csv(out_path: str | None, header, rows) -> None:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    _write(out_path, buf.getvalue())


# -- subcommands -------------------------------------------------------------


def cmd_classify(args) -> int:
    G = parse_group_spec(args.group)
    elements = parse_set_literal(G, args.set)
    S = connection_set(G, elements, symmetrize=args.symmetrize)
    rec = classify(S, args.enum_cap)
    if args.fmt == "csv":
        row = rec.to_csv_dict()
        _write_csv(args.out, row, [row.values()])
    else:
        _write(args.out, json.dumps(rec.to_json_dict(), indent=2) + "\n")
    if args.strict and rec.indeterminate:
        return EXIT_INDETERMINATE
    return EXIT_OK


def cmd_census(args) -> int:
    G = parse_group_spec(args.group)
    if args.unlabeled and args.fmt == "csv":
        raise DomainError("the unlabeled report has no CSV form; use --format json or jsonl")
    if args.samples is not None:
        if args.seed is None:
            raise DomainError("Monte-Carlo mode needs --seed for reproducibility")
        if args.records or args.unlabeled:
            raise DomainError("--records and --unlabeled need the exhaustive census, not --samples")
        report = monte_carlo_census(
            G,
            samples=args.samples,
            seed=args.seed,
            enum_cap=args.enum_cap,
            workers=args.workers,
        )
    else:
        if args.seed is not None:
            raise DomainError("--seed needs --samples; the exhaustive census draws nothing")
        report = exhaustive_census(G, enum_cap=args.enum_cap, workers=args.workers)
        if args.records:
            with open(args.records, "w") as f:
                f.writelines(report.record_lines())
    pieces = [report.to_json_dict()]
    if args.unlabeled:
        pieces.append(unlabeled_census(report).to_json_dict())
    if args.fmt == "csv":
        _write_csv(args.out, report.CSV_HEADER, report.to_csv_rows())
    elif args.fmt == "jsonl":
        _write(args.out, "".join(json.dumps(p) + "\n" for p in pieces))
    else:
        _write(args.out, json.dumps(pieces[0] if len(pieces) == 1 else pieces, indent=2) + "\n")
    if args.strict and report.counts["indeterminate"] > 0:
        return EXIT_INDETERMINATE
    return EXIT_OK


def cmd_check_lemmas(args) -> int:
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
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_bounds(args) -> int:
    # only this subcommand loads mpmath, so no other run pays for importing it
    import mpmath as mp

    from . import bounds

    if args.grid:
        if (args.r, args.delta) != (None, None):
            raise DomainError("--grid excludes --r and --delta")
        points = bounds.default_grid()
    else:
        if args.r is None or args.delta is None:
            raise DomainError("either --grid or both --r and --delta are required")
        points = [(args.r, args.delta)]
    bits = bounds.DEFAULT_PRECISION_BITS if args.precision_bits is None else args.precision_bits
    names = bounds.BOUND_NAMES

    def num(x) -> str:
        return mp.nstr(x, 12, strip_zeros=False)

    def flag(b: bool) -> str:
        return "true" if b else "false"

    header = (
        ["r", "delta", "h", "h_first_term", "h_second_term", "k", "k_undefined"]
        + list(names)
        + [f"{name}_vacuous" for name in names]
        + ["component_sum", "component_sum_le_h"]
    )
    rows = []
    for r, delta in points:
        p = bounds.lemma_bound_table(r, delta, bits)
        rows.append(
            [str(r), repr(delta), num(p.h), *map(num, p.h_terms)]
            + ["" if p.k is None else num(p.k), flag(p.k_undefined)]
            + [num(p.bounds[name]) for name in names]
            + [flag(p.vacuous[name]) for name in names]
            + [num(p.component_sum), flag(p.component_sum_le_h)]
        )
    _write_csv(args.out, header, rows)
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
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes (reports do not depend on it)")
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
    p.add_argument("--precision-bits", type=int, default=None,
                   help="working precision in bits, at least 53 "
                        "(default: bounds.DEFAULT_PRECISION_BITS)")
    return parser


COMMANDS = {
    "classify": cmd_classify,
    "census": cmd_census,
    "check-lemmas": cmd_check_lemmas,
    "bounds": cmd_bounds,
}


def _probe_outputs(args, created: list[str]) -> None:
    """Open every output path for appending, so an unwritable one fails now.

    Append mode truncates no existing file. A missing file is created,
    and its path is added to `created`. Two paths naming one file are
    refused, as the report would overwrite the records; both exist once
    probed, so `os.path.samefile` compares them.
    """
    paths = [p for p in (args.out, getattr(args, "records", None)) if p is not None]
    for path in paths:
        try:
            open(path, "x").close()
            created.append(path)
        except FileExistsError:
            open(path, "a").close()
    if len(paths) == 2 and os.path.samefile(*paths):
        raise DomainError(f"--out and --records name the same file {paths[1]!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact orders print in full: the empty set's cover order at C780 is
    # 1560!, past the default int -> str limit of 4300 digits (3.10.7 on)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    created: list[str] = []
    try:
        # before the work, not after it
        _probe_outputs(args, created)
        return COMMANDS[args.command](args)
    except (StabcoverError, OSError) as e:
        # a refused command leaves no empty file behind
        for path in created:
            if os.path.getsize(path) == 0:
                os.remove(path)
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, (DomainError, CapExceededError, OSError)):
            return EXIT_PRECONDITION
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
