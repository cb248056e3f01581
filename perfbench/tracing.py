"""In-memory spans around the l1ppr functions that form each layer's boundary.

A wrapper is installed at the module attribute through which the caller looks
a function up (``l1ppr.solver.prox_grad_step`` is what ``solve`` calls, and
``l1ppr.synth.build_from_edges`` is what ``generate`` calls), so the package
itself is unchanged. Each wrapped call records a span ``[name, start, end,
parent, op]``; ``op`` is shared by every span of one solve or one pipeline
pass. Counters that must repeat exactly (edges read, iterations, ledger work,
edges built) are computed from call arguments and results, never from clocks.

The same wrappers time every ``solve`` call, traced or not: in an untraced
run only the ``solve`` wrappers are installed, and they are the only
instrument.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Solved:
    """One ``solve`` call: its method, wall time and result."""

    method: str
    seconds: float
    sol: object


class Tracer:
    """Records a span per wrapped call while ``enabled`` is set, and every
    ``solve`` call in ``solves``.

    Span times are read from a clock that stops while a counting hook runs,
    so no span, nor its parents, is charged for the counting.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.solves: list[Solved] = []
        self.enabled = False
        self.op: str | None = None
        self._stack: list[int] = []
        self._hook_s = 0.0

    def _now(self) -> float:
        return time.perf_counter() - self._hook_s

    def _hook(self, fn, *args) -> None:
        t0 = time.perf_counter()
        fn(self.counts, *args)
        self._hook_s += time.perf_counter() - t0

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self._now()
        return span

    def _close(self, span: list) -> None:
        span[2] = self._now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a call the harness itself makes into a layer."""
        if not self.enabled:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def recording(self, op: str):
        """Record spans under op id ``op`` for the duration of the block."""
        self.enabled, self.op = True, op
        try:
            yield
        finally:
            self.enabled, self.op = False, None

    def wrap(self, module, attr: str, name: str, before=None, after=None, timed=None) -> None:
        """Replace ``module.attr`` by a wrapper.

        While ``enabled`` is set the wrapper records a span and runs the
        counting hooks ``before(counts, args, kwargs)`` and
        ``after(counts, args, kwargs, result)``. ``timed(seconds, args,
        result)``, when given, runs on every call with the call's wall time,
        hooks included.
        """
        original = getattr(module, attr)

        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            if not self.enabled:
                result = original(*args, **kwargs)
            else:
                if before is not None:
                    self._hook(before, args, kwargs)
                span = self._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(span)
                if after is not None:
                    self._hook(after, args, kwargs, result)
            if timed is not None:
                timed(time.perf_counter() - t0, args, result)
            return result

        setattr(module, attr, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, total duration, and self time (duration
        minus the time its direct child spans cover; calls are strictly
        nested, so children never overlap)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child[i]
        return calls, total, self_time


def _count_kernel_read(counts, args, kwargs) -> None:
    # prox_grad_step(g, p, z_dense, z_act, ...): the kernel reads the rows of z_act
    counts["kernels.edges_read"] += int(args[0].degrees[args[3]].sum())


def _count_solve(counts, args, kwargs, sol) -> None:
    counts["solver.iterations"] += sol.trace.iterations
    counts["solver.ledger_work"] += sol.trace.total_work


def _count_built(counts, args, kwargs, result) -> None:
    counts["graph.edges_built"] += result[0].edge_count


def _count_loaded(counts, args, kwargs) -> None:
    counts["graph.parse_bytes"] += os.path.getsize(args[0])


def _count_rows(counts, args, kwargs) -> None:
    counts["sweep.rows"] += len(args[0])


def instrument(tracer: Tracer, lib, layers: bool) -> None:
    """Time every ``solve`` of the l1ppr package ``lib``; with ``layers``,
    wrap every other layer boundary too."""

    def record(seconds, args, sol) -> None:
        tracer.solves.append(Solved(args[2].method, seconds, sol))

    w = tracer.wrap
    for mod in (lib.solver, lib.sweep, lib.cli):
        w(mod, "solve", "solver.solve", after=_count_solve, timed=record)
    if not layers:
        return
    w(lib.solver, "prox_grad_step", "kernels.prox_grad_step", before=_count_kernel_read)
    w(lib.solver, "rate_envelope", "solver.rate_envelope")
    for mod in (lib.solver, lib.objective):
        w(mod, "objective_value", "objective.objective_value")
    w(lib.diagnostics, "forward_map", "objective.forward_map")
    for mod in (lib.graph, lib.synth):
        w(mod, "build_from_edges", "graph.build_from_edges", after=_count_built)
    w(lib.sweep, "parse_snap_edgelist", "graph.parse_snap_edgelist")
    for mod in (lib.sweep, lib.cli):
        w(mod, "load_edgelist", "sweep.load_edgelist", before=_count_loaded)
    for mod in (lib.synth, lib.cli):
        w(mod, "generate", "synth.generate")
    w(lib.cli, "run_sweep", "sweep.run_sweep")
    w(lib.cli, "write_rows_csv", "sweep.write_rows_csv", before=_count_rows)
    w(lib.cli, "check_no_percolation", "diagnostics.check_no_percolation")
    for fn in ("verify_confinement", "jump_audit", "slacks"):
        w(lib.diagnostics, fn, f"diagnostics.{fn}")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer table, from spans and exact counters."""
    calls, total, self_time = tracer.totals()
    c = tracer.counts
    kernel = "kernels.prox_grad_step"
    parse = "graph.parse_snap_edgelist"
    build = "graph.build_from_edges"

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "kernels.calls": calls[kernel],
        "kernels.self_s": self_time[kernel],
        "kernels.edges_read": c["kernels.edges_read"],
        "kernels.ns_per_edge_read": ratio(self_time[kernel] * 1e9, c["kernels.edges_read"]),
        "solver.iterations": c["solver.iterations"],
        "solver.ledger_work": c["solver.ledger_work"],
        "solver.self_s": self_time["solver.solve"],
        "solver.kernel_calls_per_iter": ratio(calls[kernel], c["solver.iterations"]),
        "solver.edges_read_per_ledger_work": ratio(c["kernels.edges_read"], c["solver.ledger_work"]),
        "graph.parse_calls": calls[parse],
        "graph.parse_self_s": self_time[parse],
        "graph.parse_mb_per_s": ratio(c["graph.parse_bytes"] / 1e6, self_time[parse]),
        "graph.build_calls": calls[build],
        "graph.build_s": total[build],
        "graph.edges_built": c["graph.edges_built"],
        "synth.generate_self_s": self_time["synth.generate"],
        "cli.gen_write_s": self_time["cli.gen"],
        "cli.gen_bytes": c["cli.gen_bytes"],
        "cli.solve_s": total["cli.solve"],
        "cli.check_s": total["cli.check"],
        "cli.sweep_s": total["cli.sweep"],
        "sweep.run_self_s": self_time["sweep.run_sweep"],
        "sweep.csv_write_s": total["sweep.write_rows_csv"],
        "sweep.rows": c["sweep.rows"],
        "sweep.csv_bytes": c["sweep.csv_bytes"],
        "diagnostics.check_no_percolation_s": total["diagnostics.check_no_percolation"],
        "diagnostics.verify_confinement_s": total["diagnostics.verify_confinement"],
        "diagnostics.jump_audit_s": total["diagnostics.jump_audit"],
        "diagnostics.slacks_s": total["diagnostics.slacks"],
        "solver.rate_envelope_s": total["solver.rate_envelope"],
        "objective.forward_map_calls": calls["objective.forward_map"],
        "objective.forward_map_s": total["objective.forward_map"],
        "objective.objective_value_calls": calls["objective.objective_value"],
        "objective.objective_value_s": total["objective.objective_value"],
        "trace.spans": len(tracer.spans),
    }
