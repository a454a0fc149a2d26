"""One workload process: set up, run ops in a closed loop, print one JSON line.

Started by run.py, never by hand. One client: each op starts only after the
previous one has returned. The clock runs only around ``op``. A block of ops
runs back to back, then its outputs are checked, so a run measures
``--seconds`` of op time and its wall time is longer by the checks.

With ``--trace 1`` the budget is split in two: an untraced half gives the
reference ops/s for ``trace.overhead_ratio``, then a traced half, started
again from the same seed, records spans for the per-layer metrics.

The machine is shared, and its execution speed swings by up to 2x over
seconds to minutes. Thread CPU time swings with it, so the slowdown is not
scheduling and cannot be timed away, and even the fastest op of a kind
slows by 20-45% in a slow spell. So the run also times a fixed pure-Python
computation, the probe, before an op whenever PROBE_EVERY_S of wall time
has passed since the last probe. An op's adjusted latency is its wall-clock
latency times REF_PROBE_S over the median of the PROBE_NEIGHBOURS probes
nearest to it: its latency at the speed at which the probe takes exactly
1 ms. The timings that BENCHMARK.json bounds are adjusted ones:
``adj_op_ms_p50`` and ``adj_op_ms_p95`` over every op, and
``adj_ops_per_s``, the ops of one block of the mix over the sum of each
kind's median adjusted latency (a mean over every op would follow the rare
ops that a stall stretched). The plain wall-clock ``ops_per_s``,
``op_ms_p50`` and ``op_ms_p95`` are printed too.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, blocks

from lattice_orbits import lattices

MAX_MESSAGES = 5
CLI_SAMPLES = 7
PROBE_EVERY_S = 0.02
PROBE_NEIGHBOURS = 9
REF_PROBE_S = 1e-3
_PROBE_MATRIX = [[(7 * i + 3 * j) % 11 - 5 for j in range(8)] for i in range(8)]


def probe() -> float:
    """Seconds for six 8x8 integer matrix products in pure Python (about 1 ms).

    The collector is off while it runs, so that its time does not depend on
    how many objects the library keeps alive.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        m = _PROBE_MATRIX
        for _ in range(6):
            m = [[sum(a * b for a, b in zip(row, col)) % 1000003 for col in zip(*_PROBE_MATRIX)] for row in m]
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


@dataclass
class Phase:
    kinds: list = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    probe_starts: list[float] = field(default_factory=list)
    probe_times: list[float] = field(default_factory=list)
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    resolve_hits: int = 0

    def maybe_probe(self):
        if not self.probe_starts or time.perf_counter() - self.probe_starts[-1] >= PROBE_EVERY_S:
            self.probe_starts.append(time.perf_counter())
            self.probe_times.append(probe())

    def adjusted(self) -> list[float]:
        """Each op's latency at the speed at which the probe takes REF_PROBE_S."""
        half = PROBE_NEIGHBOURS // 2
        out = []
        for start, elapsed in zip(self.starts, self.latencies):
            at = bisect_right(self.probe_starts, start)
            near = self.probe_times[max(0, at - half - 1):at + half]
            out.append(elapsed * REF_PROBE_S / statistics.median(near))
        return out

    def adj_ops_per_s(self, workload) -> float:
        """Ops of one block over the sum of each kind's median adjusted latency."""
        by_kind = defaultdict(list)
        for kind, elapsed in zip(self.kinds, self.adjusted()):
            by_kind[kind].append(elapsed)
        typical = {kind: statistics.median(times) for kind, times in by_kind.items()}
        return len(workload.BLOCK) / sum(typical[kind] for kind in workload.BLOCK)


def run_phase(workload, seed: int, budget: float, recorder=None) -> Phase:
    """Whole blocks of ops until ``budget`` seconds of op time have passed."""
    phase = Phase()
    stream = blocks(workload, random.Random(seed))
    busy = 0.0
    while busy < budget:
        block = next(stream)
        outcomes = [run_op(workload, inp, phase, recorder) for _, inp in block]
        for (kind, inp), (out, error) in zip(block, outcomes):
            phase.kinds.append(kind)
            check(workload, inp, out, error, phase)
        busy += sum(phase.latencies[-len(block):])
    return phase


def run_op(workload, inp, phase: Phase, recorder):
    """Time one op and record its latency; returns (output, error message)."""
    phase.maybe_probe()
    cache_info = getattr(lattices.resolve, "cache_info", None)
    if recorder is not None:
        recorder.op_id = len(phase.latencies)
        recorder.active = True
        hits_before = cache_info().hits if cache_info else 0
        root = recorder.open("op")
    start = time.perf_counter()
    try:
        out, error = workload.op(inp), None
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        out, error = None, f"{inp}: op raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if recorder is not None:
        recorder.close(root)
        recorder.active = False
        phase.resolve_hits += (cache_info().hits - hits_before) if cache_info else 0
    phase.starts.append(start)
    phase.latencies.append(elapsed)
    return out, error


def check(workload, inp, out, error, phase: Phase):
    if error is None:
        try:
            error = workload.check(inp, out)
        except Exception as exc:
            error = f"{inp}: check raised {type(exc).__name__}: {exc}"
    if error is not None:
        phase.failed += 1
        if len(phase.messages) < MAX_MESSAGES:
            phase.messages.append(error)


def _p50_p95(times) -> tuple[float, float]:
    cuts = statistics.quantiles(times, n=20, method="inclusive")
    return cuts[9], cuts[18]


def end_to_end(phase: Phase, workload) -> tuple[dict, dict]:
    """(bounded, unbounded) metrics, each name -> (value, unit, note with sample count)."""
    lat = phase.latencies
    n = len(lat)
    beyond = f"{n - math.ceil(0.95 * n)} beyond"
    cli = workload.name == "cli-calls"
    # ru_maxrss is in KiB on Linux; for cli-calls it is the largest CLI child
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF).ru_maxrss
    probes = f"{len(phase.probe_times)} probes, median {statistics.median(phase.probe_times) * 1e3:.3f} ms"
    adj50, adj95 = _p50_p95(phase.adjusted())
    p50, p95 = _p50_p95(lat)
    bounded = {
        "adj_ops_per_s": (phase.adj_ops_per_s(workload), "1/s",
                          f"one block of {len(workload.BLOCK)} over its kinds' median adjusted latency; {probes}"),
        "adj_op_ms_p50": (adj50 * 1e3, "ms", f"adjusted, of {n} ops"),
        "adj_op_ms_p95": (adj95 * 1e3, "ms", f"adjusted, of {n} ops, {beyond}"),
        "peak_rss_mb": (rss / 1024, "MB", "largest CLI child" if cli else "workload process"),
    }
    unbounded = {
        "ops_per_s": (n / sum(lat), "1/s", f"{n} ops over their op time, wall clock"),
        "op_ms_p50": (p50 * 1e3, "ms", f"of {n} ops, wall clock"),
        "op_ms_p95": (p95 * 1e3, "ms", f"of {n} ops, {beyond}, wall clock"),
    }
    return bounded, unbounded


def _median_ms(argv_list, run) -> float:
    times = []
    for argv in argv_list:
        start = time.perf_counter()
        run(argv)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def cli_layers(workload, seed: int) -> dict:
    """Interpreter start, package import and in-process ``cli.run``, each a median."""
    from lattice_orbits import cli

    def spawn(argv):
        subprocess.run(argv, check=True, capture_output=True, env=workload.env, timeout=60)

    interpreter = _median_ms([[sys.executable, "-c", "pass"]] * CLI_SAMPLES, spawn)
    imported = _median_ms([[sys.executable, "-c", "import lattice_orbits.cli"]] * CLI_SAMPLES, spawn)
    argvs = [inp[1] for _, inp in next(blocks(workload, random.Random(seed)))]
    run_ms = _median_ms(argvs, lambda argv: cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO()))
    return {"cli.interpreter_ms": interpreter, "cli.import_ms": imported - interpreter, "cli.run_ms": run_ms}


def per_layer(recorder, traced: Phase, untraced: Phase, cli: dict | None, workload) -> dict:
    """name -> (value, unit, note); the note says whether it was seen from outside."""
    import tracing

    ops = len(traced.latencies)
    totals = recorder.totals()
    setup_totals = recorder.totals(setup=True)
    hidden = "not visible: runs in the CLI child process" if cli is not None else None
    idle = "measured: not called on this workload"
    metrics = {}
    for name in tracing.SPANS:
        if name == "enumeration.short_vectors_definite":
            # the reflection pool is built once, in set-up; report set-up totals
            calls, self_s = setup_totals[name]
            units, scale = ("count", "s"), 1
        else:
            calls, self_s = totals[name]
            units, scale = ("calls/op", "s/op"), ops
        note = hidden or ("measured" if calls else idle)
        metrics[f"{name}.calls"] = (calls / scale, units[0], note)
        metrics[f"{name}.self_s"] = (self_s / scale, units[1], note)
    cache_info = getattr(lattices.resolve, "cache_info", None)
    note = hidden or ("measured" if cache_info else "not visible: resolve has no cache_info")
    metrics["lattices.resolve.hits"] = (traced.resolve_hits / ops, "calls/op", note)
    metrics["lattices.resolve.misses"] = (cache_info().misses if cache_info else 0, "count",
                                          note + ", process total")
    metrics["isometries.certifications"] = (recorder.certifications / ops, "calls/op",
                                            hidden or "measured: Isometry.__post_init__ calls")
    witness_calls = totals["orbits.even_witness"][0]
    metrics["orbits.even_witness.found_ratio"] = (
        recorder.witness_found / witness_calls if witness_calls else 0.0, "ratio",
        hidden or ("measured: witnesses found / calls" if witness_calls else idle))
    metrics["oracle.enumerate_primitive.hit_ratio"] = (
        recorder.enum_hits / recorder.enum_box if recorder.enum_box else 0.0, "ratio",
        hidden or ("computed: hits / (2*bound+1)^rank" if recorder.enum_box else idle))
    for name in ("cli.interpreter_ms", "cli.import_ms", "cli.run_ms"):
        metrics[name] = ((cli or {}).get(name, 0.0), "ms",
                         f"measured: median of {CLI_SAMPLES}+ samples" if cli else "measured: not exercised on this workload")
    metrics["trace.overhead_ratio"] = (
        traced.adj_ops_per_s(workload) / untraced.adj_ops_per_s(workload), "ratio",
        "measured: traced adj_ops_per_s over untraced, same seed")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's perf_counter() just before spawning this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", type=Path)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        recorder.install()
    workload = WORKLOADS[args.workload]()
    workload.setup()
    # CLOCK_MONOTONIC is system-wide, so the parent's reading is comparable
    setup_s = time.perf_counter() - args.spawned_at
    flags = {name: getattr(sys.flags, name) for name in sys.flags.__match_args__}
    result = {"setup_s": setup_s, "python_flags": {k: v for k, v in flags.items() if v}}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if recorder is None:
        phase = run_phase(workload, args.seed, args.seconds)
        metrics, unbounded = end_to_end(phase, workload)
        with open(args.out_dir / f"ops-{args.workload}-seed{args.seed}.tsv", "w", encoding="utf-8") as ops:
            ops.write("kind\tseconds\tadjusted_seconds\n")
            ops.writelines(f"{kind!r}\t{elapsed!r}\t{adjusted!r}\n"
                           for kind, elapsed, adjusted in zip(phase.kinds, phase.latencies, phase.adjusted()))
        result.update(attempted=len(phase.latencies), failed=phase.failed,
                      messages=phase.messages, metrics=metrics, unbounded=unbounded)
    else:
        recorder.uninstall()
        untraced = run_phase(workload, args.seed, args.seconds / 2)
        recorder.reset_counters()
        recorder.install()
        traced = run_phase(workload, args.seed, args.seconds / 2, recorder)
        recorder.uninstall()
        cli = cli_layers(workload, args.seed) if args.workload == "cli-calls" else None
        metrics = per_layer(recorder, traced, untraced, cli, workload)
        recorder.write(args.out_dir / f"spans-{args.workload}.tsv")
        result.update(
            attempted=len(untraced.latencies) + len(traced.latencies),
            failed=untraced.failed + traced.failed,
            messages=untraced.messages + traced.messages,
            metrics=metrics,
            spans=len(recorder.starts),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
