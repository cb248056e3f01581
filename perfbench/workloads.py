"""The benchmark's workloads.

Each workload is one closed-loop caller in one process: the next operation
starts when the previous one returns. A workload sets up its input, runs
passes, and checks every operation's output once the passes are done,
outside the timed region. An operation (op) fails when it raises, when a
solve does not converge, or when its output check fails.

* ``local_ring``  – a 20-clique joined by one edge to a cycle of 10^6 nodes.
  The local problem is tiny and fixed, so solve time is set by the terms that
  grow with n (the kernel's ``bincount(minlength=n)``, the solver's n-length
  buffers). An op is one solve; a pass solves every (seed, method) key once.
* ``cli_pipeline`` – the documented user path through ``l1ppr.cli.main``:
  gen (with a smaller exterior than the defaults), solve, check, sweep, then
  a library load with full-trace solves and every audit. An op is one pass.
  It is the only workload that parses edge lists and uses the full-trace
  solver, the diagnostics and the dict-based objective. Its sweep solves are
  O(vol)-bound on a small graph, where removing an O(n) term should not show.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

METHODS = ("fista", "ista")


@dataclass
class Op:
    key: object
    solves: list = field(default_factory=list)
    failure: str | None = None
    artifacts: dict = field(default_factory=dict)


def fingerprint(sol) -> tuple:
    """Everything a bit-identical repeat must reproduce."""
    items = list(sol.x.items())
    nodes = tuple(i for i, _ in items)
    values = np.array([v for _, v in items], dtype=np.float64).tobytes()
    return nodes, values, sol.trace.iterations, sol.trace.total_work


def _run_op(op: Op, tracer, scope, body) -> Op:
    first = len(tracer.solves)
    try:
        with scope():
            body(op)
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        op.failure = f"raised {type(exc).__name__}: {exc}"
    op.solves = tracer.solves[first:]
    del tracer.solves[first:]
    return op


class Workload:
    """What the harness calls: ``setup``, ``run_pass``, ``release``,
    ``latency_solves``, ``check``, ``inject_fault`` and, in a traced run,
    ``probe``."""

    name = ""
    warmup_passes = 1  # untimed, after the first set-up
    trace_passes = 1

    def __init__(self, lib) -> None:
        self.lib = lib

    def probe(self, state, tracer) -> tuple[dict, list[Op]]:
        """Extra per-layer metrics and the ops run to get them."""
        return {"solver.locality_ratio": 0.0}, []

    def latency_solves(self, op: Op) -> list:
        """The solves of ``op`` that the latency percentiles count."""
        return op.solves

    def release(self, state, ops: list[Op]) -> None:
        """Drop what the checks no longer need, once a timed pass is over,
        so that a run's peak memory does not grow with its number of passes."""


# ------------------------------------------------------------ local ring

@dataclass
class RingState:
    g: object
    keys: list[tuple[int, str]]


class LocalRing(Workload):
    """Repeated solves over a fixed set of (clique seed node, method) keys on
    a 20-clique joined by one edge to a cycle of 10^6 nodes."""

    name = "local_ring"
    alpha, rho, eps = 0.2, 1e-4, 1e-8
    seeds_per_run = 4
    trace_passes = 6
    clique = 20
    ring_nodes = 10**6
    probe_ring_nodes = 10**3
    probe_passes = 6

    def keys(self, seeds) -> list[tuple[int, str]]:
        return [(int(s), m) for s in seeds for m in METHODS]

    def params(self, seed: int):
        return self.lib.objective.ProblemParams(alpha=self.alpha, rho=self.rho, seed=seed)

    def run_pass(self, state: RingState, tracer, scope) -> list[Op]:
        lib = self.lib

        def body(op: Op) -> None:
            seed, method = op.key
            lib.solver.solve(state.g, self.params(seed),
                             lib.solver.SolverConfig(method=method, eps=self.eps))

        return [_run_op(Op(key), tracer, scope, body) for key in state.keys]

    def check(self, state: RingState, ops: list[Op]) -> None:
        first: dict = {}
        for op in ops:
            if op.failure:
                continue
            sol = op.solves[0].sol
            if not sol.trace.converged:
                op.failure = "did not converge"
                continue
            fp = fingerprint(sol)
            if op.key not in first:
                first[op.key] = (fp, sol, [op])
            elif fp != first[op.key][0]:
                op.failure = "result differs from the first solve of the same key"
            else:
                first[op.key][2].append(op)
        for (seed, _), (_, sol, group) in first.items():
            try:
                self.lib.diagnostics.slacks(state.g, self.params(seed), sol.x)
            except ValueError as exc:
                for op in group:
                    op.failure = f"slacks rejected the result: {exc}"

    def inject_fault(self, ops: list[Op]) -> None:
        """Perturb one value of the last solve's result by a relative 1e-12."""
        lib = self.lib
        solved = ops[-1].solves[0]
        items = list(solved.sol.x.items())
        node, value = items[0]
        wrong = lib.objective.SparseVector(dict(items) | {node: value * (1.0 + 1e-12)})
        ops[-1].solves[0] = replace(solved, sol=replace(solved.sol, x=wrong))


    def edges(self, ring_nodes: int) -> np.ndarray:
        k = self.clique
        iu, ju = np.triu_indices(k, 1)
        ring = np.arange(k, k + ring_nodes, dtype=np.int64)
        return np.concatenate([
            np.stack([iu, ju], axis=1).astype(np.int64),
            np.stack([ring, np.roll(ring, -1)], axis=1),
            np.array([[k - 1, k]], dtype=np.int64),
        ])

    def setup(self, seed: int, workdir: str) -> RingState:
        g, _ = self.lib.graph.build_from_edges(self.edges(self.ring_nodes))
        seeds = np.random.default_rng(seed).choice(self.clique, self.seeds_per_run, replace=False)
        return RingState(g, self.keys(seeds))

    def probe(self, state: RingState, tracer) -> tuple[dict, list[Op]]:
        """Per-iteration FISTA time at n~10^6 over the same local problem at
        n~10^3 (same clique, same seeds; only the ring is shorter). Passes on
        the two graphs alternate, so a drift in machine speed hits both."""
        g_small, _ = self.lib.graph.build_from_edges(self.edges(self.probe_ring_nodes))
        small = RingState(g_small, state.keys)
        big_ops: list[Op] = []
        small_ops: list[Op] = []
        for _ in range(self.probe_passes):
            big_ops += self.run_pass(state, tracer, contextlib.nullcontext)
            small_ops += self.run_pass(small, tracer, contextlib.nullcontext)
        self.check(state, big_ops)
        self.check(small, small_ops)

        def per_iter(ops):
            return float(np.median([
                s.seconds / s.sol.trace.iterations
                for op in ops if not op.failure
                for s in op.solves if s.method == "fista"]))

        return {"solver.locality_ratio": per_iter(big_ops) / per_iter(small_ops)}, big_ops + small_ops


# ------------------------------------------------------------ CLI pipeline

@dataclass
class PipelineState:
    graph: object
    part: object
    files: dict
    gen_args: list[str]
    solve_seed: int
    audit_seeds: tuple[int, int]


class CliPipeline(Workload):
    """One pass: gen, solve, check, sweep through the CLI, then load the edge
    list and audit full-trace FISTA solves from a core and a boundary seed."""

    name = "cli_pipeline"
    # A smaller exterior than the defaults (107,570 edges instead of 527,570)
    # keeps a pass near 10 s, so that three timed passes fit in a run.
    synth = {"exterior_size": 400, "deg_ext": 398}
    solve_args = ("--alpha", "0.1", "--rho", "3e-5", "--eps", "1e-8")
    # the no-percolation certificate holds on this graph at this penalty
    # (worst ratio ~0.53), so the expected exit code is 0
    check_args = ("--alpha", "0.2", "--rho", "3e-3")
    # A narrow rho range and 10 boundary seeds give 40 sweep solves of
    # similar cost per method and pass, so that the latency percentiles rest
    # on 120 like samples in three passes, 12 of them beyond p90.
    sweep_grid_log = "2e-5, 5e-5, 4"
    sweep_seeds = 10
    audit_alpha, audit_rho, audit_eps, ref_eps = 0.05, 2e-6, 1e-8, 1e-12

    def __init__(self, lib) -> None:
        super().__init__(lib)
        self._refs: dict = {}

    def setup(self, seed: int, workdir: str) -> PipelineState:
        lib = self.lib
        g, part = lib.synth.generate(lib.synth.SynthParams(**self.synth))
        draw = np.random.default_rng(seed)
        solve_seed = int(draw.choice(part.core.ids))
        audit_seeds = (int(draw.choice(part.core.ids)), int(draw.choice(part.boundary.ids)))
        sweep_seeds = ",".join(str(int(v)) for v in draw.choice(part.boundary.ids, self.sweep_seeds, replace=False))
        files = {k: os.path.join(workdir, v) for k, v in (
            ("graph", "graph.tsv"), ("partition", "regions.csv"), ("trace", "trace.csv"),
            ("solution", "x.csv"), ("spec", "sweep.spec"), ("csv", "sweep.csv"))}
        with open(files["spec"], "w", encoding="utf-8") as fh:
            fh.write(f"axis = rho\ngrid_log = {self.sweep_grid_log}\nalpha = 0.1\neps = 1e-8\n"
                     f"seeds = {sweep_seeds}\nedgelist_path = {files['graph']}\n")
        gen_args = [f"--{k.replace('_', '-')}={v}" for k, v in self.synth.items()]
        return PipelineState(g, part, files, gen_args, solve_seed, audit_seeds)

    def _cli(self, tracer, op: Op, step: str, argv: list[str]) -> None:
        out = io.StringIO()
        with tracer.span(f"cli.{step}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            op.artifacts["rc"][step] = self.lib.cli.main([step, *argv])
        op.artifacts["output"][step] = out.getvalue()

    def run_pass(self, state: PipelineState, tracer, scope) -> list[Op]:
        lib, f = self.lib, state.files

        def body(op: Op) -> None:
            a = op.artifacts
            a["rc"], a["output"] = {}, {}
            start = len(tracer.solves)
            self._cli(tracer, op, "gen", [*state.gen_args, "--out", f["graph"],
                                          "--partition-out", f["partition"]])
            gen_bytes = os.path.getsize(f["graph"]) + os.path.getsize(f["partition"])
            self._cli(tracer, op, "solve", [
                f["graph"], "--seed-node", str(state.solve_seed), *self.solve_args,
                "--trace", f["trace"], "--solution-out", f["solution"]])
            self._cli(tracer, op, "check", [
                f["graph"], "--core-set", f["partition"], *self.check_args])
            first = len(tracer.solves) - start
            self._cli(tracer, op, "sweep", [f["spec"], "--out", f["csv"]])
            a["sweep_solves"] = slice(first, len(tracer.solves) - start)
            if tracer.enabled:
                tracer.counts["cli.gen_bytes"] += gen_bytes
                tracer.counts["sweep.csv_bytes"] += os.path.getsize(f["csv"])
            a["graph"], a["remap"] = lib.sweep.load_edgelist(f["graph"])
            a["audits"] = [self._audit(a["graph"], seed, state.part.core) for seed in state.audit_seeds]
            for name in ("csv", "solution", "trace"):
                with open(f[name], "rb") as fh:
                    a[name] = fh.read()

        return [_run_op(Op("pass"), tracer, scope, body)]

    def _reference(self, g, p) -> tuple:
        """The high-precision solution and its objective that the audits
        compare against. The graph is the same in every pass (the checks
        hold it to that), so each is computed once per run, in the untimed
        warm-up pass."""
        if p.seed not in self._refs:
            ref = self.lib.solver.solve(g, p, self.lib.solver.SolverConfig(method="fista", eps=self.ref_eps))
            self._refs[p.seed] = ref.x, self.lib.objective.objective_value(g, p, ref.x)
        return self._refs[p.seed]

    def _audit(self, g, seed: int, core) -> dict:
        lib = self.lib
        p = lib.objective.ProblemParams(alpha=self.audit_alpha, rho=self.audit_rho, seed=seed)
        cfg = lib.solver.SolverConfig(method="fista", eps=self.audit_eps, trace_level="full")
        sol = lib.solver.solve(g, p, cfg)
        ref_x, f_star = self._reference(g, p)
        lib.diagnostics.verify_confinement(g, p, cfg, core, sol.trace)
        lib.diagnostics.slacks(g, p, sol.x)
        return {
            "fingerprint": fingerprint(sol),
            "jumps": len(lib.diagnostics.jump_audit(g, p, sol.trace, ref_x)),
            "envelope": sum(pt.violates() for pt in lib.solver.rate_envelope(g, p, cfg, sol.trace, f_star)),
        }

    def latency_solves(self, op: Op) -> list:
        """The sweep's solves: many like solves, so that p90 falls inside one
        group and not between the sweep and the costlier audit solves."""
        return op.solves[op.artifacts.get("sweep_solves", slice(0))]

    def release(self, state: PipelineState, ops: list[Op]) -> None:
        """Check the loaded graph and each solve's convergence now, and keep
        the results in place of the graph and the solutions."""
        for op in ops:
            a = op.artifacts
            g, remap = a.pop("graph", None), a.pop("remap", None)
            a["graph_equal"] = g is not None and g.equals(state.graph) and \
                np.array_equal(remap, np.arange(g.n))
            a["converged"] = all(s.sol.trace.converged for s in op.solves)
            op.solves = [replace(s, sol=None) for s in op.solves]

    def check(self, state: PipelineState, ops: list[Op]) -> None:
        expected = {"gen": 0, "solve": 0, "check": 0, "sweep": 0}
        first = None
        for op in ops:
            a = op.artifacts
            if op.failure:
                continue
            rows = a["csv"].decode().splitlines()[1:]
            same = ("csv", "solution", "trace")
            if a["rc"] != expected:
                op.failure = f"exit codes {a['rc']}, expected {expected}; output {a['output']}"
            elif not a["graph_equal"]:
                op.failure = "loaded graph differs from the generated one"
            elif not rows or any(r.split(",")[6] != "true" for r in rows):
                op.failure = "sweep CSV has a row with converged=false"
            elif not a["converged"]:
                op.failure = "a solve did not converge"
            elif any(au["jumps"] or au["envelope"] for au in a["audits"]):
                op.failure = f"audit violations: {a['audits']}"
            elif first is None:
                first = a
            elif any(a[k] != first[k] for k in same) or \
                    [au["fingerprint"] for au in a["audits"]] != \
                    [au["fingerprint"] for au in first["audits"]]:
                op.failure = "output differs from the first pass"

    def inject_fault(self, ops: list[Op]) -> None:
        """Flip one digit of the last pass's sweep CSV."""
        csv = ops[-1].artifacts["csv"]
        ops[-1].artifacts["csv"] = csv[:-2] + bytes([csv[-2] ^ 1]) + csv[-1:]

WORKLOADS = {cls.name: cls for cls in (LocalRing, CliPipeline)}
