"""Census benchmark: runs one workload of `stabcover` and prints its metrics.

    python3 perfbench/run.py --workload census-c2xc10 --seed 1 --seconds 60 --trace 0

Run it from anywhere inside a checkout; it measures that checkout's own
`src/` tree. It is a closed loop with one caller: each step is a fresh
single-process Python child (`child.py`), run one after another, with the
census at `--workers 1`.

With `--trace 0` it first times set-up (`SETUP_RUNS` fresh interpreters
importing `stabcover` and building the workload's group and holomorph),
then runs measured passes of the workload until `--seconds` would be
exceeded (always at least one pass). Each pass's output is checked against
the committed reference (`check.py`); a pass that exits non-zero, raises
or fails its check counts as failed, with all its sets. The end-to-end
metrics are medians over the set-ups and passes; pass times are scaled to
a reference host speed (see REF_SLICE_MS).

With `--trace 1` it runs one untraced and one traced pass and reports the
per-layer metrics of the traced one (`layertrace.py`), plus the tracing
overhead: traced wall time minus untraced wall time.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`. The line before it holds the run's metadata (git SHA,
nproc, Python and mpmath versions, seed, load average at start and end,
the share of CPU time stolen by the hypervisor during the run, and the
median raw pass time and calibration slice),
and the full result, passes included, is written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from check import OutputCheck  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 7
# The speed of the shared host drifts by up to 1.5 times over tens of
# seconds, so raw pass times of the same code spread past any useful bound.
# Each untraced pass also times a fixed calibration slice every 50 ms
# (`child.HostSpeed`); a pass's time is scaled to a host on which that
# slice takes REF_SLICE_MS, about its typical duration on the 2-vCPU VM
# the baseline was measured on. The raw times stay in the run's metadata.
REF_SLICE_MS = 1.0
# every child must end by this many seconds after the run starts, so the
# whole run ends within the 180 s a run may take
RUN_DEADLINE_S = 170
# fixed hash seed: the same set and dict layouts in every child
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class ChildFailed(Exception):
    pass


def run_child(args: list[str], deadline: float) -> dict:
    """Run child.py to completion and return its JSON result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"child {args[0]} exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(lines[-1])


def _proc(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def loadavg() -> str | None:
    text = _proc("/proc/loadavg")
    return text.strip() if text else None


def cpu_ticks() -> list[int] | None:
    """The machine-wide `cpu` line of /proc/stat: user ... steal, in ticks."""
    text = _proc("/proc/stat")
    return [int(x) for x in text.split("\n", 1)[0].split()[1:9]] if text else None


def steal_frac(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if not before or not after:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def one_pass(wl, check: OutputCheck, out_dir: str, traced: bool, deadline: float) -> dict:
    """One child pass of the workload, with its output checked."""
    pass_dir = os.path.join(out_dir, "pass")
    os.makedirs(pass_dir, exist_ok=True)
    args = ["pass", "--workload", wl.name, "--out-dir", pass_dir]
    try:
        res = run_child(args + (["--trace"] if traced else []), deadline)
    except (ChildFailed, subprocess.TimeoutExpired) as e:
        return {"ok": False, "problems": [str(e)]}
    problems = [] if res["rc"] == 0 else [f"stabcover exited {res['rc']}"]
    if not problems:
        try:
            problems = check(os.path.join(pass_dir, "report.out"),
                             os.path.join(pass_dir, "records.jsonl"))
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems = [f"output unreadable: {e!r}"]
    if traced:
        shutil.move(res["spans"], os.path.join(out_dir, "spans.jsonl.gz"))
    shutil.rmtree(pass_dir)
    res.update(ok=not problems, problems=problems[:5])
    return res


def measure(wl, seconds: float, check: OutputCheck, out_dir: str,
            deadline: float) -> tuple[dict, dict]:
    setups = [run_child(["setup", "--workload", wl.name], deadline) for _ in range(SETUP_RUNS)]
    passes = []
    start = time.monotonic()
    longest = 0.0
    while not passes or time.monotonic() - start + longest <= seconds:
        t = time.monotonic()
        passes.append(one_pass(wl, check, out_dir, False, deadline))
        longest = max(longest, time.monotonic() - t)
    timed = [p for p in passes if "slice_ms" in p]
    if not timed:
        raise ChildFailed("no pass produced a timing: " + "; ".join(passes[0]["problems"]))
    wall = statistics.median(p["wall_s"] * REF_SLICE_MS / p["slice_ms"] for p in timed)
    metrics = {
        "wall_ref_s": wall,
        "sets_per_ref_s": wl.sets / wall,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
    }
    detail = {"setups": setups, "passes": passes,
              "raw_wall_s": statistics.median(p["wall_s"] for p in timed),
              "slice_ms": statistics.median(p["slice_ms"] for p in timed)}
    return metrics, detail


def measure_traced(wl, check: OutputCheck, out_dir: str,
                   deadline: float) -> tuple[dict, dict]:
    plain = one_pass(wl, check, out_dir, False, deadline)
    traced = one_pass(wl, check, out_dir, True, deadline)
    if "wall_s" not in plain or "trace" not in traced:
        raise ChildFailed("; ".join(plain["problems"] + traced["problems"]))
    metrics = dict(traced.pop("trace"))
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    detail = {"passes": [plain, traced], "untraced_wall_s": plain["wall_s"],
              "spans": os.path.join(out_dir, "spans.jsonl.gz")}
    return metrics, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1,
                   help="recorded with the result; both workloads have fixed inputs")
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "stabcover", "cli.py")):
        print(f"error: no stabcover source tree under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    meta = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "loadavg_start": loadavg()}
    ticks = cpu_ticks()
    out_dir = os.path.join(HERE, "out", f"{wl.name}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    check = OutputCheck(wl)
    try:
        if args.trace:
            values, detail = measure_traced(wl, check, out_dir, deadline)
        else:
            values, detail = measure(wl, args.seconds, check, out_dir, deadline)
    except (ChildFailed, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    meta["loadavg_end"] = loadavg()
    meta["steal_frac"] = steal_frac(ticks, cpu_ticks())
    passes = detail["passes"]
    meta["mpmath"] = next((q["mpmath"] for q in passes if "mpmath" in q), None)
    meta.update((k, detail[k]) for k in ("raw_wall_s", "slice_ms") if k in detail)
    failed = sum(wl.sets for q in passes if not q["ok"])
    metrics = {}
    for m in declared:
        # a layer the workload never calls has no spans: report 0 for it
        value = values.get(m["name"], 0) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<42} {value:>14.6g} {m['unit']}")
    for q in passes:
        for problem in q["problems"]:
            print(f"check failed: {problem}")
        for name in q.get("trace_missing", ()):
            print(f"trace: stabcover has no {name}; its layer reads 0")
    result = {"correct": failed == 0, "attempted": wl.sets * len(passes),
              "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump({"meta": meta, **detail, "result": result}, f, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
