"""Benchmark of the blochstrata CLI: scan and conversion workloads, end to end and per layer.

Run from anywhere; the package is taken from ``src/`` next to this directory:

    python3 bench/run.py --workload strata-scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics of one workload in a fresh child
process: set-up time of a fresh CLI interpreter (median of several), items
per reference unit (median over rounds), and the child's peak resident memory.
--trace 1 runs every workload again in a fresh child, untraced and then with
every public function of the package wrapped in a span, and reports per-layer
calls and times.  Each command's output is checked; a command fails on a
non-zero exit or a failed check.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  README.md
describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("items_per_ref", "1/ref"), ("peak_rss_mb", "MB"))


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def layer_metrics(workload) -> list[tuple[str, str, object]]:
    """(name, unit, value from a traced child's summary) for each per-layer metric of a workload."""
    w = workload.name
    specs = []
    for fn in workload.layers:
        specs += [
            (f"{w}.{fn}.calls", "count", lambda s, fn=fn: s["functions"][fn]["calls"]),
            (f"{w}.{fn}.total_s", "s", lambda s, fn=fn: s["functions"][fn]["total_s"]),
            (
                f"{w}.{fn}.self_us_per_item", "us",
                lambda s, fn=fn: s["functions"][fn]["self_s"] / s["items"] * 1e6,
            ),
        ]
    for fn in workload.controls + workload.counted:
        specs.append((f"{w}.{fn}.calls", "count", lambda s, fn=fn: s["functions"][fn]["calls"]))
    specs.append((
        f"{w}.states.eigensolves_per_item", "count/item",
        lambda s: s["functions"]["states.hermitian_eigenvalues"]["calls"] / s["items"],
    ))
    if "basis.build_basis" in workload.layers:
        specs.append((f"{w}.basis.elements_bytes", "bytes", lambda s: s["elements_bytes"]))
    specs.append((f"{w}.cli.bytes_written", "bytes", lambda s: s["bytes_written"]))
    specs.append((f"{w}.trace.overhead_frac", "frac", lambda s: s["overhead_frac"]))
    return specs


def per_layer_specs() -> list[tuple[str, str, object, str]]:
    """Every per-layer metric of every workload, as (name, unit, value, workload)."""
    return [
        (name, unit, value, w)
        for w, cls in WORKLOADS.items()
        for name, unit, value in layer_metrics(cls)
    ]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["SOURCE_DATE_EPOCH"] = "0"
    for var in THREAD_VARS:  # README.md: a second BLAS thread made bloch-convert noisy
        env[var] = "1"
    return env


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, env) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
    }


def run_child(args, env, cwd, workload: str, mode: str, seconds: float) -> dict:
    command = [
        sys.executable, str(BENCH / "child.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", repr(seconds), "--mode", mode,
        "--src", str(SRC), "--spans", str(WORK / f"spans-{workload}.csv"),
    ]
    if args.tiny:
        command.append("--tiny")
    try:
        proc = subprocess.run(
            command, cwd=cwd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} child ran longer than {CHILD_TIMEOUT_S} s") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def timed(args, env, cwd) -> tuple[dict, dict]:
    summary = run_child(args, env, cwd, args.workload, "timed", args.seconds)
    metrics = {
        "setup_s": summary["setup_s"],
        "items_per_ref": summary["items_per_ref"],
        "peak_rss_mb": summary["peak_rss_kb"] / 1024,
    }
    return metrics, {args.workload: summary}


def traced(args, env, cwd) -> tuple[dict, dict]:
    summaries = {}
    for w in WORKLOADS:
        summaries[w] = run_child(args, env, cwd, w, "traced", args.seconds / len(WORKLOADS))
    metrics = {name: value(summaries[w]) for name, _, value, w in per_layer_specs()}
    return metrics, summaries


def report(args, env_record, metrics, units, summaries) -> dict:
    """Prints the human-readable table and returns the result line."""
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    problems = [p for s in summaries.values() for p in s["problems"] + s.get("trace_problems", [])]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<58} {value:>16.6g} {units[name]}")
    for s in summaries.values():
        if "items_per_s" in s:
            print(f"  {'items_per_s (wall clock, not gated)':<58} {s['items_per_s']:>16.6g} 1/s")
    print(f"  {'failed_frac':<58} {failed / attempted:>16.6g} frac")
    print(f"  {'ops_attempted':<58} {attempted:>16d} count")
    for w, s in summaries.items():
        if "data_sha256" in s:
            print(f"  {w} data_sha256 {s['data_sha256']}")
    for problem in problems:
        print(f"  FAILED {problem}")
    for w, s in summaries.items():
        for note in s.get("count_notes", []):
            print(f"  note {w}: {note}")
    print("  env " + json.dumps(env_record))
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run(args, env) -> dict:
    cwd = WORK / f"run-{args.workload}-{os.getpid()}"
    cwd.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, summaries = traced(args, env, cwd)
            units = {name: unit for name, unit, _, _ in per_layer_specs()}
        else:
            metrics, summaries = timed(args, env, cwd)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    env_record = {**environment(args, env), **next(iter(summaries.values()))["env"]}
    result = report(args, env_record, metrics, units, summaries)
    record = {"result": result, "env": env_record, "children": summaries}
    out = WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "blochstrata" / "cli.py").is_file():
        print(f"error: no blochstrata sources at {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        if args.workload != "all" or args.trace:  # one traced run covers every workload
            print(json.dumps(run(args, env)))
            return 0
        results = {}
        for w in WORKLOADS:
            results[w] = run(argparse.Namespace(**{**vars(args), "workload": w}), env)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
