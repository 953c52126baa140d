"""Check that the benchmark is steady: run one workload once per seed
and report, for every metric, its median and its spread (distance
between the first and third quartile as a share of the median).

Usage, from the repository root::

    python3 perfbench/steady.py --workload serve-mixed --seeds 1-10

Each run is a separate ``perfbench/run.py`` process, run one after the
other.  The end-to-end metrics of ``BENCHMARK.json`` are listed first
with their bound; a spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import stats  # noqa: E402


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=HERE.parent, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout}\n{proc.stderr}")
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return json.loads(lines[-1]), record, wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict = {}
    for seed in seed_list(args.seeds):
        result, record, wall = run_once(args.workload, seed,
                                        spec["run_seconds"], args.trace)
        values.setdefault("run_wall_s", []).append(wall)
        for name, m in record["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, v in record["layers"].items():
            values.setdefault(name, []).append(v)
        shown = {n: round(m["value"], 4)
                 for n, m in result["metrics"].items()}
        print(f"seed {seed}: wall {wall:.1f}s correct {result['correct']} "
              f"{shown}", flush=True)

    print(f"\n{args.workload}: {len(values['run_wall_s'])} runs")
    names = [n for n in bounds if n in values] + sorted(
        n for n in values if n not in bounds)
    for name in names:
        vals = values[name]
        med = stats.median(vals)
        if len(vals) < 2 or not med:
            print(f"  {name:<34} median {med:.6g}")
            continue
        spread = stats.spread(vals)
        flag = ""
        if name in bounds:
            flag = f"  bound {bounds[name]}" + (
                "  ABOVE 1/3 BOUND" if spread > bounds[name] / 3 else "")
        print(f"  {name:<34} median {med:12.6g}  spread {spread:7.3f}"
              f"{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
