"""vdwsurf benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; vdwsurf is imported from ./src.
Workloads (BENCHMARK.json lists those it gates on and why each was chosen):

    fig2-scan           spectrum -> enhancement -> peaks on a seeded fig2 config
    offres-scan         200-point spectrum with the off-resonant column; left
                        out of BENCHMARK.json so that the runs of the others
                        can be long enough to be steady within the time budget
    sommerfeld-near     validate, default 3-scale ladder, rho/dz in [0.5, 50]
    sommerfeld-lateral  validate, one scale, rho/dz alternating 500 and 5000;
                        its few 3-6 s operations per run make its medians
                        too unsteady on a shared host to gate changes on

The benchmark is single-process and closed-loop with one client.  It measures
set-up time in fresh interpreters, then runs the workload in a fresh child
process with one BLAS/OpenMP thread (bench/child.py), a number of rounds of
operations fixed by --seed and --seconds, checks every output,
checks that the checkout is unchanged afterwards, and prints the metrics:
with --trace 0 the end-to-end ones, with --trace 1 the per-layer ones from
a traced pass.  Human-readable lines go to stderr; the last stdout line is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

`failed` counts every operation that did not succeed, including the
program's known defects (see workloads.known_failure); `correct` is false
for any other failure, a golden-digest mismatch, traced output that
differs from untraced output, or a changed checkout.  bench/README.md
lists the checks and which per-layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0
# Prints the system-wide monotonic clock once set-up is done, so the parent
# can time it without depending on how often it polls for the exit.
SETUP_CODE = (
    "import time, vdwsurf, vdwsurf.cli, vdwsurf.config as c; "
    "c.load_config(c.resolve_config_path('fig2')); print(time.monotonic())"
)


def _units() -> tuple:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def _snapshot(root: Path) -> dict:
    """(size, mtime) of every file outside build output and bytecode caches."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in (".bench_build", "__pycache__", ".git")]
        for name in filenames:
            path = Path(dirpath, name)
            st = path.stat()
            state[str(path.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return state


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.pop("VDW_LOG_LEVEL", None)
    return env


def measure_setup(env: dict, cwd: Path) -> list:
    """Seconds from spawning a fresh interpreter until it has imported
    vdwsurf and parsed the fig2 config."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, cwd=cwd, check=True, timeout=60, capture_output=True, text=True,
        )
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def tail(times: list) -> tuple:
    """(seconds, percentile, n): the highest percentile with >= 10 ops beyond it.

    When that percentile would lie below the median (fewer than 22
    operations), the maximum (percentile 100) is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 22:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so subprocess.run kills the workload
    # process and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "vdwsurf" / "cli.py").is_file():
        print(f"no vdwsurf sources under {src}: run from the root of a checkout", file=sys.stderr)
        return 2
    end_to_end_units, layer_units = _units()
    env = _env(src)
    before = _snapshot(root)
    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="vdw-run-", dir=build))
    try:
        setup = measure_setup(env, tmp) if not args.trace else []
        child = [
            sys.executable, str(HERE / "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--tmp", str(tmp), "--src", str(src),
        ]
        proc = subprocess.run(child, env=env, cwd=tmp, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"workload process exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads((tmp / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    after = _snapshot(root)
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))

    times = result["op_s"]
    failures = result["failures"]
    for label, config, samples in result["deferred"]:
        try:
            workloads.check_offresonant(config, samples)
        except workloads.CheckFailed as exc:
            failures.append((label, f"check: {exc}", False))
    problems = list(result["golden"]) + result.get("mismatches", [])
    problems += [f"{label}: {reason}" for label, reason, expected in failures if not expected]
    problems += [f"checkout changed: {path}" for path in changed]
    for label, reason, expected in failures:
        print(f"failed {label}: {reason}{' (known)' if expected else ''}", file=sys.stderr)
    for problem in problems:
        print(f"INCORRECT {problem}", file=sys.stderr)

    if args.trace:
        values = dict(result["layers"])
        values["trace.overhead_s"] = statistics.median(times) - statistics.median(result["untraced_op_s"])
        values["failed_ratio"] = len(failures) / len(times)
        units = layer_units
    else:
        tail_s, pct, n = tail(times)
        values = {
            "setup_s": statistics.median(setup),
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = end_to_end_units
        print(f"op_s.tail is p{pct:.4g} of n={n} operations", file=sys.stderr)
        print(f"failed_ratio = {len(failures) / len(times):.6g} ({len(failures)} of {len(times)})", file=sys.stderr)
    differ = set(units) ^ set(values)
    if differ:
        print(f"metric set differs from BENCHMARK.json: {sorted(differ)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    line = {"correct": not problems, "attempted": len(times), "failed": len(failures), "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
