"""One measured step of the benchmark, in a fresh single-process interpreter.

    python3 perfbench/child.py setup --workload W
    python3 perfbench/child.py pass --workload W --out-dir DIR [--trace]

`setup` times importing `stabcover` and building the workload's group(s)
and their holomorphs, from the first line of this file. `pass` runs the
workload once through `stabcover.cli.main`, the entry point a user runs,
and times that call alone, while `HostSpeed` times a fixed calibration
slice every 50 ms; with `--trace` the layer functions are wrapped first
(see `layertrace.py`) and no slices run. Either mode prints one JSON
object as its last line of standard output. The `stabcover` imported is
the checkout's own `src/` tree.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import WORKLOADS  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_setup(wl) -> dict:
    import stabcover.cli  # noqa: F401  (the import a user's run pays)
    from stabcover.groups import all_abelian_groups, holomorph, parse_group_spec

    groups = all_abelian_groups(10) if wl.group is None else [parse_group_spec(wl.group)]
    hol_sizes = [len(holomorph(G)) for G in groups]
    return {"setup_s": time.perf_counter() - T0, "hol_sizes": hol_sizes}


_PERM = tuple((7 * i + 3) % 40 for i in range(40))


def calibration_slice() -> int:
    """A fixed piece of plain-Python work in three parts, like the program's mix.

    Dict stores and integer arithmetic; composing a permutation held as a
    tuple and hashing the results into a set; building, sorting and
    indexing a list of tuples. Together they track the program's speed
    better than any one of them alone.
    """
    s, d = 0, {}
    for i in range(4000):
        d[i & 63] = s
        s += i * i % 7
    p, seen = _PERM, set()
    for _ in range(60):
        p = tuple(_PERM[i] for i in p)
        seen.add(p)
    rows = sorted((i * 7919 % 257, i, str(i & 15)) for i in range(300))
    index = {r[:2]: r for r in rows}
    return s + len(seen) + len(index)


class HostSpeed:
    """Times `calibration_slice` every `PERIOD_S` of wall time during a pass.

    The slices run from a SIGALRM handler, so they interleave with the
    program in the same thread and see the same host speed as it does at
    that moment. Their typical duration (`slice_ms`) is the host's speed
    during the pass; their total is taken out of the pass's wall time.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self.slices: list[float] = []

    def _tick(self, signum, frame):
        t = time.perf_counter()
        calibration_slice()
        self.slices.append(time.perf_counter() - t)

    def slice_ms(self) -> float:
        """The slice's typical duration: 1 / its mean rate, trimmed by a tenth.

        Averaging rates weighs each 50 ms of the pass by how much work the
        host did in it; the trim drops slices that an interrupt lengthened.
        """
        rates = sorted(1.0 / d for d in self.slices)
        cut = len(rates) // 10
        kept = rates[cut:len(rates) - cut]
        return 1e3 * len(kept) / sum(kept)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(wl, out_dir: str, traced: bool) -> dict:
    import mpmath
    import stabcover.cli

    tracer = None
    if traced:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    report = os.path.join(out_dir, "report.out")
    records = os.path.join(out_dir, "records.jsonl")
    argv = wl.argv(report, records)
    # an untraced pass also measures the host speed while the program runs
    speed = HostSpeed() if tracer is None else contextlib.nullcontext()
    with speed:
        start = time.perf_counter()
        rc = stabcover.cli.main(argv)
        wall = time.perf_counter() - start
    slices = speed.slices if tracer is None else []
    out = {"rc": rc, "wall_s": wall - sum(slices), "cpu_s": time.process_time(),
           "slices": len(slices),
           "peak_rss_mb": _peak_rss_mb(), "argv": argv, "mpmath": mpmath.__version__}
    if slices:
        out["slice_ms"] = speed.slice_ms()
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["trace_missing"] = tracer.missing
        spans_path = os.path.join(out_dir, "spans.jsonl.gz")
        tracer.write_spans(spans_path)
        out["spans"] = spans_path
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "pass"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--out-dir", default=".")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    wl = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = run_setup(wl)
    else:
        result = run_pass(wl, args.out_dir, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
