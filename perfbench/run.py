"""Benchmark harness for l1ppr: one workload per invocation.

    python3 perfbench/run.py --workload local_ring --seed 1 --seconds 24 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file. With ``--trace 0`` the last stdout line is a JSON
object carrying the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it carries the per-layer metrics. The lines before it name
every metric with its unit and sample count, plus the machine facts. The
full result (and, when traced, every span) is written under
``.perfbench-out/`` in the checkout.

Order of a run: ``SETUPS`` set-ups (``setup_s`` is their median), the first
followed by one untimed warm-up pass, and each followed by a share of the
timed phase: passes run until the summed pass time reaches
``--seconds * (i + 1) / SETUPS`` after set-up ``i``, and at least
``MIN_PASSES`` run in all. Spreading the timed passes between the set-ups
spreads the samples over the whole run. A reference job runs after every
timed pass, and all reported times are scaled by it (see ``Reference``). A traced run then adds a fixed number of traced passes, so
its counters repeat exactly, and reports the traced minus untraced
latencies as the tracing overhead. Output checks run after the passes,
never inside a timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
MIN_PASSES = 3  # repeats are compared across passes, and a median needs a middle
REF_SHARE = 0.05  # reference-job time after a pass, as a share of the pass
REF_S = 0.040  # median time of the reference job where the benchmark was written
TIME_UNITS = {"s", "ms", "ns"}
RATE_UNITS = {"solves/s", "MB/s"}


class Reference:
    """Machine speed, from a fixed job that calls nothing of l1ppr.

    The job mixes the kinds of work the workloads do: an integer loop and a
    dict loop in the interpreter, numpy gathers and a weighted ``bincount``
    on cache-sized arrays, and fills, adds and scans of 10^6-element arrays
    (allocated once, so the job does not move the peak RSS). It runs after
    each timed pass, so its samples spread over the run like the passes',
    and each reported time is scaled by ``REF_S`` over the job's median
    time: a run on a busier or slower machine reports about what the
    reference speed would give. A program change cannot move the job, so it
    still moves the scaled figures in full.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.small_idx = rng.integers(0, 10**4, 10**5)
        self.small_w = rng.random(10**5)
        self.small_x = rng.random(10**4)
        self.big_idx = rng.integers(0, 10**6, 2000)
        self.big_w = rng.random(2000)
        self.big = np.empty(10**6)
        self.big2 = rng.random(10**6)
        self.times: list[float] = []

    def job(self) -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i
        d: dict = {}
        for i in range(30_000):
            d[i] = d.get(i - 1, 0.0) + 1.5
        for _ in range(10):
            sums = np.bincount(self.small_idx, self.small_x[self.small_idx] * self.small_w,
                               minlength=10**4)
            np.flatnonzero(sums > 0.5)
        for _ in range(5):
            self.big.fill(0.0)
            np.add.at(self.big, self.big_idx, self.big_w)
            self.big += self.big2
            np.flatnonzero(self.big > 0.5)
        return time.perf_counter() - t0

    def run_for(self, seconds: float) -> None:
        """Run the job at least once, and until its time reaches ``seconds``."""
        spent = 0.0
        while not spent or spent < seconds:
            self.times.append(self.job())
            spent += self.times[-1]

    def scale(self) -> float:
        return REF_S / float(np.median(self.times))


def scaled(values: dict, units: dict, k: float) -> dict:
    """Times multiplied and rates divided by the speed scale ``k``."""
    return {name: v * k if units[name] in TIME_UNITS else v / k if units[name] in RATE_UNITS else v
            for name, v in values.items()}


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def machine_facts(lib) -> dict:
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as fh:
            l3 = fh.read().strip()
    except OSError:
        l3 = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_version,
        "backend": lib.kernels.active_backend(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l3": l3,
    }


def timed_pass(wl, state, tracer, scope, ops: list, times: list, ref: Reference) -> None:
    t0 = time.perf_counter()
    new = wl.run_pass(state, tracer, scope)
    times.append(time.perf_counter() - t0)
    wl.release(state, new)
    ops += new
    ref.run_for(REF_SHARE * times[-1])


def latencies_ms(wl, ops, methods) -> dict[str, list[float]]:
    return {m: [s.seconds * 1e3 for op in ops for s in wl.latency_solves(op) if s.method == m]
            for m in methods}


def end_to_end(wl, ops, times, methods) -> tuple[dict, dict]:
    """Latencies per method, verified solves per second, pass time; and the
    sample count behind each."""
    lat = latencies_ms(wl, ops, methods)
    verified = sum(len(op.solves) for op in ops if not op.failure)
    values, samples = {}, {}
    for m in methods:
        values[f"{m}_p50_ms"] = _pct(lat[m], 50)
        values[f"{m}_p90_ms"] = _pct(lat[m], 90)
        samples[f"{m}_p50_ms"] = samples[f"{m}_p90_ms"] = len(lat[m])
    values["solves_per_s"] = verified / sum(times)
    samples["solves_per_s"] = verified
    values["pipeline_s"] = _pct(times, 50)
    samples["pipeline_s"] = len(times)
    return values, samples


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="l1ppr benchmark: one workload per run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one op's output before the checks (self-test only)")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "l1ppr" / "__init__.py").is_file():
        print(f"error: no l1ppr package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import l1ppr
    import l1ppr.cli  # noqa: F401  (not imported by the package itself)

    if Path(l1ppr.__file__).resolve().parent != src / "l1ppr":
        print(f"error: imported l1ppr from {l1ppr.__file__}, not from {src}", file=sys.stderr)
        return 2

    from tracing import Tracer, instrument, layer_metrics
    from workloads import METHODS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    outdir = ROOT / ".perfbench-out"
    workdir = outdir / f"work-{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](l1ppr)
    tracer = Tracer()
    instrument(tracer, l1ppr, layers=bool(args.trace))
    ref = Reference()
    op_ids = itertools.count()

    def traced_op():
        return tracer.recording(f"op{next(op_ids)}")

    try:
        setup_times, ops, times = [], [], []
        state = None
        for i in range(SETUPS):
            state = None
            gc.collect()
            t0 = time.perf_counter()
            with tracer.recording(f"setup{i}") if args.trace else contextlib.nullcontext():
                state = wl.setup(args.seed, str(workdir))
            setup_times.append(time.perf_counter() - t0)
            for _ in range(wl.warmup_passes if i == 0 else 0):
                wl.run_pass(state, tracer, contextlib.nullcontext)
            gc.collect()
            deadline = args.seconds * (i + 1) / SETUPS
            while sum(times) < deadline or (i == SETUPS - 1 and len(times) < MIN_PASSES):
                timed_pass(wl, state, tracer, contextlib.nullcontext, ops, times, ref)
        traced_ops, traced_times = [], []
        for _ in range(wl.trace_passes if args.trace else 0):
            timed_pass(wl, state, tracer, traced_op, traced_ops, traced_times, ref)
        extra, probe_ops = wl.probe(state, tracer) if args.trace else ({}, [])
        if args.inject_fault:
            wl.inject_fault(ops)
        wl.check(state, ops + traced_ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_ops = ops + traced_ops + probe_ops
    failed = sum(1 for op in all_ops if op.failure)
    untraced, samples = end_to_end(wl, ops, times, METHODS)
    values = untraced | {"setup_s": _pct(setup_times, 50), "peak_rss_mb": peak_rss_mb}
    samples |= {"setup_s": len(setup_times), "peak_rss_mb": 1}
    if args.trace:
        traced, _ = end_to_end(wl, traced_ops, traced_times, METHODS)
        values = layer_metrics(tracer) | extra | {
            f"trace.overhead_{name}": traced[name] - untraced[name]
            for name in ("fista_p50_ms", "ista_p50_ms", "pipeline_s")}
        samples = {}
        tracer.write(str(outdir / f"spans-{args.workload}-seed{args.seed}.jsonl"))

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    k = ref.scale()
    values = scaled({name: values[name] for name in units}, units, k)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    facts = machine_facts(l1ppr)
    failures = sorted({op.failure for op in all_ops if op.failure})

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds} attempted={len(all_ops)} failed={failed}")
    print("machine " + json.dumps(facts))
    if facts["numba"] is None:
        print("numba is not installed: only the numpy kernel backend is measured")
    print(f"reference job: median {np.median(ref.times) * 1e3:.4g} ms, n={len(ref.times)}; "
          f"times below are scaled by {k:.4f}")
    for name, m in metrics.items():
        n = f"  n={samples[name]}" if name in samples else ""
        print(f"{name:<40} {m['value']:.6g} {m['unit']}{n}")
    print(f"{'failed_frac':<40} {failed / len(all_ops):.6g} share  n={len(all_ops)}")
    for msg in failures[:10]:
        print(f"failure: {msg}")

    result = {"correct": failed == 0, "attempted": len(all_ops), "failed": failed,
              "metrics": metrics}
    with open(outdir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        raw = {"pass_s": times, "setup_s": setup_times, "reference_s": ref.times} | \
            latencies_ms(wl, ops, METHODS)
        json.dump(result | {"machine": facts, "samples": samples, "speed_scale": k, "raw": raw,
                            "failures": failures,
                            "failed_frac": failed / len(all_ops)}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
