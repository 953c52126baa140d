"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload algos-local --seed 1 \\
        --seconds 20 --trace 0

``--workload`` is one of ``algos-local``, ``algos-cluster`` and
``serve-mixed`` (see ``perfbench/workloads.py`` for what each runs and
why).  ``--seed`` generates the graph and the operation stream.  With
``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it wraps each layer's entry points and reports the
per-layer metrics.  The metric names, units and bounds are those of
``BENCHMARK.json``.

Output: one line per named metric, then a ``record`` line (JSON: the
host stamp, workload parameters, per-kind operation counts and every
metric), then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every operation succeeded and matched its oracle.

``perfbench/steady.py`` repeats a workload over several seeds and
reports each metric's run-to-run spread; the benchmark's own tests run
with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import sys
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent


def _import_program():
    """Put the checkout's ``src`` and the benchmark package on the
    path and import the workloads; fails when the program is absent."""
    src = ROOT_DIR / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"error: no program sources under {src}")
    sys.path[:0] = [str(src), str(ROOT_DIR)]
    from perfbench import workloads
    return workloads


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git;
    empty outside a git checkout."""
    git = ROOT_DIR / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return ""


def source_digest() -> str:
    """SHA-1 over the program's source files, which identifies the
    code measured even where there is no git metadata."""
    h = hashlib.sha1()
    for path in sorted((ROOT_DIR / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT_DIR)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_stamp() -> dict:
    import numpy
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "git_sha": git_sha(), "source_sha1": source_digest()}


def _on_sigterm(signum, frame):
    # unwind through the workloads' ``finally`` blocks, which stop the
    # cluster, instead of dying with its server processes still up
    raise SystemExit(128 + signum)


def stop_children() -> None:
    """Stop every process this run started and wait for each: server
    processes a failed run left behind, then multiprocessing's resource
    tracker, which would otherwise outlive the run unreaped."""
    import multiprocessing
    from multiprocessing import resource_tracker
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    res = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                             bool(args.trace))
    ops = res.ops

    if args.trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = res.layers
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: v for name, (v, _) in res.metrics.items()}
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise SystemExit(f"error: run produced no value for {missing}")

    print(f"workload {res.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    for name, (value, unit) in res.metrics.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    for name in sorted(res.layers):
        print(f"  {name:<34} {res.layers[name]:>14.6g} {wanted.get(name, '')}")
    for err in ops.errors:
        print(f"  FAILED {err}")
    record = {
        "host": host_stamp(), "workload": res.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "params": res.params,
        "notes": res.notes, "setup_times_s": res.setup_times,
        "ops": {k: {"attempted": n, "failed": ops.failed.get(k, 0),
                    "completed": len(ops.latency.get(k, []))}
                for k, n in sorted(ops.attempted.items())},
        "errors": ops.errors,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in res.metrics.items()},
        "layers": res.layers,
    }
    print("record " + json.dumps(record, sort_keys=True))
    correct = ops.total_failed == 0
    print(json.dumps({
        "correct": correct, "attempted": ops.total_attempted,
        "failed": ops.total_failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in wanted.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
