"""The workload process: runs one workload in-process and writes its raw results.

Started by run.py as a fresh single process with one BLAS/OpenMP thread:

    python3 bench/child.py --workload W --seed N --seconds S --trace 0|1 --tmp DIR

Untraced (--trace 0), it runs rounds of operations in a closed loop with one
client, timing each operation.  The number of rounds follows from --seconds
and the nominal time of a round (ROUND_S), not from the clock, so a seed
fixes the whole list of operations, and with it `attempted` and `failed`.
Traced
(--trace 1), it runs a fixed list of operations, each once untraced and once
traced, so that the per-layer counts repeat exactly for a seed and the
outputs of both runs can be compared byte for byte.  Either way the bundled
fig2 config is run once first and its outputs must match the golden digests.
The results go to DIR/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent

# Rounds in the traced pass, about ten seconds of work per workload on one
# core; the list is fixed so that the counts repeat exactly for a seed.
TRACE_ROUNDS = {"fig2-scan": 24, "offres-scan": 16, "sommerfeld-near": 1, "sommerfeld-lateral": 1}

# Seconds one round of operations takes on one core of a two-vCPU x86-64
# host; an untraced run executes round(--seconds / ROUND_S) rounds.
ROUND_S = {"fig2-scan": 0.085, "offres-scan": 0.13, "sommerfeld-near": 2.0, "sommerfeld-lateral": 10.0}
# An untraced run stops early once it has taken this many times --seconds,
# so that a much slower program still ends within the per-run time limit.
OVERRUN = 2.0


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_check(cli, tmp: Path) -> list:
    """Run the unmodified bundled fig2 and compare digests; return mismatches."""
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))["fig2"]
    problems = []
    for command in workloads.GOLDEN_COMMANDS:
        out = tmp / f"golden-{command}.out"
        rc = cli.main([command, "--config", "fig2", "--out", str(out)])
        if rc != 0:
            problems.append(f"fig2 {command}: exit code {rc}")
        elif _digest(out) != golden[command]:
            problems.append(f"fig2 {command}: sha256 {_digest(out)} != golden {golden[command]}")
    return problems


def execute(cli, op: workloads.Op, tmp: Path) -> tuple:
    """Run one operation; return (seconds, None or (reason, known)).

    The config is written before the clock starts and the outputs are
    checked after it stops.  An operation fails on a nonzero exit code, an
    exception or a failed check, and counts at its time to failure; `known`
    marks the program's known defects (``workloads.known_failure``).  The
    off-resonant samples of a passing op are left in ``op.offres_samples``
    for run.py to check.
    """
    config_path = tmp / "op.json"
    config_path.write_text(workloads.config_text(op), encoding="utf-8")
    op.outputs.clear()
    for old in tmp.glob("*.out"):
        old.unlink()
    reason, exit_code = None, 0
    t0 = time.perf_counter()
    try:
        for command in op.commands:
            out = op.outputs[command] = tmp / f"{command}.out"
            exit_code = cli.main([command, "--config", str(config_path), "--out", str(out)])
            if exit_code != 0:
                reason = f"{command} exit code {exit_code}"
                break
    except (Exception, SystemExit):
        reason = "exception: " + traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if reason is None:
        try:
            workloads.check(op)
        except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
            reason = f"check: {exc}"
    if reason is None:
        return seconds, None
    return seconds, (reason, exit_code != 0 and workloads.known_failure(op, exit_code))


def _record(op: workloads.Op, failure, failures: list, deferred: list) -> None:
    if failure is not None:
        failures.append((op.label,) + failure)
    elif op.offres_samples:
        deferred.append((op.label, op.config, op.offres_samples))


def timed_run(cli, workload: str, seed: int, seconds: float, tmp: Path) -> dict:
    times, failures, deferred = [], [], []
    n_rounds = max(1, round(seconds / ROUND_S[workload]))
    deadline = time.perf_counter() + OVERRUN * seconds
    for index, ops in enumerate(itertools.islice(workloads.rounds(workload, seed), n_rounds)):
        if time.perf_counter() >= deadline:
            print(f"stopped after {index} of {n_rounds} rounds: over {OVERRUN:g} x --seconds", file=sys.stderr)
            break
        for op in ops:
            dt, failure = execute(cli, op, tmp)
            times.append(dt)
            _record(op, failure, failures, deferred)
    return {"op_s": times, "failures": failures, "deferred": deferred}


def _output_bytes(op: workloads.Op) -> dict:
    return {command: path.read_bytes() for command, path in op.outputs.items() if path.exists()}


def traced_run(cli, workload: str, seed: int, tmp: Path) -> dict:
    import vdwsurf.greens

    untraced, traced, failures, deferred, mismatches = [], [], [], [], []
    tracer = Tracer()
    bytes_out = 0
    for op in workloads.first_ops(workload, seed, TRACE_ROUNDS[workload]):
        dt, failure_u = execute(cli, op, tmp)
        untraced.append(dt)
        plain = _output_bytes(op)
        tracer.install()
        try:
            dt, failure = execute(cli, op, tmp)
        finally:
            tracer.uninstall()
        traced.append(dt)
        out = _output_bytes(op)
        bytes_out += sum(len(b) for b in out.values())
        if out != plain or failure != failure_u:
            mismatches.append(f"{op.label}: traced outputs differ from untraced ones")
        _record(op, failure, failures, deferred)
    layers = tracer.layer_metrics(getattr(vdwsurf.greens, "_TAIL_MAX_BLOCKS", None))
    layers["cli.bytes_out"] = bytes_out
    for name, calls, total, own in tracer.summary()[:12]:
        print(f"span {name:40s} calls {calls:9d} total {total:9.4f} s self {own:9.4f} s", file=sys.stderr)
    return {
        "op_s": traced,
        "untraced_op_s": untraced,
        "failures": failures,
        "deferred": deferred,
        "mismatches": mismatches,
        "layers": layers,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    args = parser.parse_args()

    import vdwsurf.cli as cli

    if Path(cli.__file__).resolve().parent.parent != args.src.resolve():
        print(f"vdwsurf was imported from {cli.__file__}, not from {args.src}", file=sys.stderr)
        return 1

    if args.trace:
        golden_tracer = Tracer()
        golden_tracer.install()
        try:
            golden = golden_check(cli, args.tmp)
        finally:
            golden_tracer.uninstall()
        result = traced_run(cli, args.workload, args.seed, args.tmp)
    else:
        golden = golden_check(cli, args.tmp)
        result = timed_run(cli, args.workload, args.seed, args.seconds, args.tmp)
    result["golden"] = golden
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (args.tmp / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
