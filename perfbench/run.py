"""lattice-orbits benchmark: one workload, one seed, every metric by name.

Run from the repository root:

    python3 perfbench/run.py --workload classify-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a readable
table and the run metadata. The table also holds the wall-clock timings over
every op (``ops_per_s``, ``op_ms_p50``, ``op_ms_p95``), which BENCHMARK.json
does not bound because the shared machine's speed moves them by up to 2x. Results and span files go to .bench_build/perfbench/.
Workloads and metrics are explained in perfbench/NOTES.md.

The workload runs in a child process (worker.py), so its peak memory and its
set-up are its own. Set-up is timed in SETUP_SAMPLES fresh processes, half
started before the measured run and half after it, and reported as their
median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("classify-batch", "invariance-words", "box-search", "cli-calls")
SETUP_SAMPLES = 9
TIMEOUT_S = 150
NEEDED = ("src/lattice_orbits/__init__.py", "tests/golden", "docs/schemas")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine, or zeros where unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def metadata(args, result: dict, steal: float) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_attempted": result["attempted"],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "python_flags": result["python_flags"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cpu_steal_share": steal,
        "LATTICE_ORBIT_THREADS": "unset in the workload process",
        "bytecode_cache": "on",
        "closed_loop_clients": 1,
    }


def worker_env() -> dict:
    # the library must run single-threaded, so the pool setting is dropped unread;
    # bytecode is cached, as it is for an installed package
    dropped = ("LATTICE_ORBIT_THREADS", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_worker(args, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT_DIR), *extra]
    spawned_at = time.perf_counter()
    proc = subprocess.Popen([*cmd, "--spawned-at", repr(spawned_at)], stdout=subprocess.PIPE,
                            env=worker_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: {args.workload} worker timed out after {TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"error: {args.workload} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in NEEDED if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a lattice-orbits checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    extra = 0 if args.trace else (SETUP_SAMPLES - 1) // 2
    setups = [spawn_worker(args, ["--setup-only"])["setup_s"] for _ in range(extra)]
    steal_before, total_before = _cpu_ticks()
    result = spawn_worker(args)
    steal_after, total_after = _cpu_ticks()
    setups.append(result["setup_s"])
    setups += [spawn_worker(args, ["--setup-only"])["setup_s"] for _ in range(extra)]
    # share of the machine's CPU time the hypervisor gave elsewhere during the run
    steal = (steal_after - steal_before) / max(1, total_after - total_before)
    table = result["metrics"]
    if not args.trace:
        table["setup_s"] = (statistics.median(setups), "s", f"median of {len(setups)} processes")

    attempted, failed = result["attempted"], result["failed"]
    for message in result["messages"]:
        print(f"check failed: {message}", file=sys.stderr)
    for name, (value, unit, note) in {**table, **result.get("unbounded", {})}.items():
        print(f"{name:<44} {value:>14.6g} {unit:<9} {note}")
    print(f"{'failed_ratio':<44} {failed / attempted:>14.6g} {'ratio':<9} {failed} of {attempted} ops")
    if args.trace:
        print(f"spans: {result['spans']} in {OUT_DIR.relative_to(ROOT)}/spans-{args.workload}.tsv")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in table.items()}
    meta = metadata(args, result, steal)
    print("meta: " + json.dumps(meta))
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**summary, "meta": meta, "messages": result["messages"]}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
