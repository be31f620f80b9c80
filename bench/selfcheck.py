"""Determinism self-check of the benchmark.

    python3 bench/selfcheck.py [--seed N] [--workload W ...]

Run from the root of a checkout.  For each workload it runs the traced pass
twice with the same seed and requires every count to repeat exactly (every
per-layer metric with unit count or bytes, among them quadrature.evals,
quadrature.panels, greens.tail_blocks, spectra.peaks.evals and
materials.eps.calls), and it requires another seed to generate different
configs.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: traced run is not correct\n{proc.stderr}")
    return result["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS), choices=workloads.WORKLOADS)
    args = parser.parse_args()
    ok = True
    for workload in args.workload:
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        counts = sorted(n for n, m in first.items() if m["unit"] in ("count", "bytes"))
        differ = [n for n in counts if first[n]["value"] != second[n]["value"]]
        inputs = [
            [workloads.config_text(op) for op in workloads.first_ops(workload, seed, 1)]
            for seed in (args.seed, args.seed + 1)
        ]
        same_inputs = inputs[0] == inputs[1]
        ok = ok and not differ and not same_inputs
        print(f"{workload}: {len(counts) - len(differ)}/{len(counts)} counts repeat"
              f"{' (differ: ' + ', '.join(differ) + ')' if differ else ''}; "
              f"seed {args.seed + 1} inputs {'IDENTICAL' if same_inputs else 'differ'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
