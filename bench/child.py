"""Runs one workload's CLI commands inside this process and prints a JSON summary as its last line.

run.py starts it in a fresh interpreter for every workload, with a scratch
directory as the working directory and the package's sources on PYTHONPATH:

    child.py --workload NAME --seed S --seconds T --mode timed|traced
             --src DIR [--spans FILE] [--tiny]

Only the calls to ``blochstrata.cli.main`` are timed.  Input generation,
reading the outputs back and checking them happen between those calls.

timed:  one warm-up round, then rounds until T seconds have passed; reports
        the median items/s over the rounds, the peak resident memory, and
        the median set-up time of fresh interpreters started between rounds.
traced: one warm-up round, then a fixed number of rounds, each run untraced
        and again with every public function wrapped in a span;
        reports per-function calls and times, checks that both passes wrote
        the same bytes and that the call counts are the expected ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from tracing import Tracer
from workloads import WORKLOADS

MAX_PROBLEMS = 20
SETUP_SAMPLES = 15  # fresh-interpreter starts per timed run, spread over the run
SETUP_CODE = (
    "import time\n"
    "from blochstrata import cli\n"
    "cli.build_parser()\n"
    "print(repr(time.perf_counter()))\n"
)


class Tally:
    """Commands attempted and failed; a command fails on a non-zero exit or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op, code, text: str) -> None:
        problems = [f"exit code {code}"] if code != 0 else op.check(text)
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS - len(self.problems)
            self.problems.extend(f"{' '.join(op.argv)}: {p}" for p in problems[: max(room, 0)])

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


def invoke(cli, argv) -> int:
    """One CLI command, as the console script would run it, returning its exit code."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught error is a failed command, not the end of the run
        traceback.print_exc()
        return 1


class Round:
    """Outcome of one round: timed seconds, items, bytes written and output hashes.

    ``refs`` is the round's time in reference units: each command's seconds
    divided by the mean time of the workload's reference computation run just
    before and just after it, which measures the machine's speed at that moment.
    """

    def __init__(self):
        self.seconds = 0.0
        self.refs = 0.0
        self.items = 0
        self.bytes_written = 0
        self.output_hashes: list[str] = []
        self.data = hashlib.sha256()


def run_round(cli, ops, tally: Tally, reference) -> Round:
    """Runs the commands, timing each and the workload's reference computation around it."""
    result = Round()
    ref_before = reference()
    for op in ops:
        Path(op.out).unlink(missing_ok=True)
        start = perf_counter()
        code = invoke(cli, op.argv)
        seconds = perf_counter() - start
        ref_after = reference()
        result.seconds += seconds
        result.refs += seconds / ((ref_before + ref_after) / 2)
        ref_before = ref_after
        try:
            raw = Path(op.out).read_bytes()
        except FileNotFoundError:
            raw = b""
        text = raw.decode("utf-8", errors="replace")
        tally.record(op, code, text)
        result.items += op.items
        result.bytes_written += len(raw)
        result.output_hashes.append(hashlib.sha256(raw).hexdigest())
        result.data.update(checks.data_text(text).encode())
    return result


def setup_seconds() -> float:
    """Seconds from starting a fresh interpreter until the CLI is imported and its parser built."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing blochstrata.cli failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def trace_rounds(workload, seconds: float) -> int:
    """Rounds per traced pass: both passes together take about the given seconds.

    A pure function of the run length, so call counts repeat at a fixed seed.
    """
    return max(1, int(seconds / (2.2 * workload.round_seconds)))


def run_timed(cli, workload, seed: int, seconds: float, tally: Tally) -> dict:
    setup_seconds()  # the first start may compile the package's bytecode
    run_round(cli, workload.round_ops(seed, 0), tally, workload.reference)
    rounds, setup = [], []
    start = next_setup = perf_counter()
    r = 1
    while not rounds or perf_counter() - start < seconds:
        # starts spread over the run, between rounds, see the machine in all its states
        if perf_counter() >= next_setup:
            setup.append(setup_seconds())
            next_setup += seconds / SETUP_SAMPLES
        rounds.append(run_round(cli, workload.round_ops(seed, r), tally, workload.reference))
        r += 1
    rates = [x.items / x.seconds for x in rounds]
    per_ref = [x.items / x.refs for x in rounds]
    return {
        "rounds": len(rounds),
        "items": sum(x.items for x in rounds),
        "timed_s": sum(x.seconds for x in rounds),
        "items_per_s": statistics.median(rates),
        "items_per_ref": statistics.median(per_ref),
        "setup_s": statistics.median(setup),
        "setup_s_runs": setup,
        "round_items_per_s": rates,
        "round_items_per_ref": per_ref,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_traced(cli, workload, seed: int, seconds: float, tally: Tally, spans: str) -> dict:
    rounds = trace_rounds(workload, seconds)
    run_round(cli, workload.round_ops(seed, 0), tally, workload.reference)
    tracer = Tracer(item_root=workload.item_root)
    plain, traced = [], []
    # each round runs untraced, then traced, so both see the machine in the same state
    for r in range(1, rounds + 1):
        plain.append(run_round(cli, workload.round_ops(seed, r), tally, workload.reference))
        tracer.install()
        try:
            traced.append(run_round(cli, workload.round_ops(seed, r), tally, workload.reference))
        finally:
            tracer.uninstall()
    tracer.write_spans(spans)

    plain_s = sum(x.seconds for x in plain)
    traced_s = sum(x.seconds for x in traced)
    plain_refs = sum(x.refs for x in plain)
    traced_refs = sum(x.refs for x in traced)
    items = sum(x.items for x in traced)
    stats = tracer.summary()
    problems, notes = [], []
    if [h for x in plain for h in x.output_hashes] != [h for x in traced for h in x.output_hashes]:
        problems.append("traced outputs differ from untraced outputs")
    expected = workload.expected_calls(rounds)
    if stats["cli.main"]["calls"] != expected["cli.main"]:
        problems.append(f"cli.main traced {stats['cli.main']['calls']} of {expected['cli.main']} calls")
    # the other counts follow the package's call graph at v0.1.0; a change that
    # batches or bypasses a function moves them without being wrong
    for name, count in expected.items():
        if stats[name]["calls"] != count:
            notes.append(f"{name} called {stats[name]['calls']} times, {count} at v0.1.0")
    data = hashlib.sha256()
    for x in traced:
        data.update(x.data.digest())
    return {
        "rounds": rounds,
        "items": items,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "overhead_frac": (traced_refs - plain_refs) / plain_refs,
        "functions": stats,
        "elements_bytes": tracer.elements_bytes,
        "bytes_written": sum(x.bytes_written for x in traced),
        "data_sha256": data.hexdigest(),
        "trace_problems": problems,
        "count_notes": notes,
    }


def environment(blochstrata) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: deps.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blochstrata": blochstrata.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--src", required=True, help="directory the package must come from")
    parser.add_argument("--spans", help="where the traced mode writes its spans")
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    args = parser.parse_args()

    import blochstrata
    from blochstrata import cli

    src = Path(args.src).resolve()
    if src not in Path(blochstrata.__file__).resolve().parents:
        print(f"error: blochstrata imported from {blochstrata.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    tally = Tally()
    if args.mode == "timed":
        result = run_timed(cli, workload, args.seed, args.seconds, tally)
    else:
        result = run_traced(cli, workload, args.seed, args.seconds, tally, args.spans)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failed_frac=tally.failed_frac,
        problems=tally.problems,
        env=environment(blochstrata),
        pid=os.getpid(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
