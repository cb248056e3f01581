"""Parameter-sweep harness and CSV emission.

A sweep walks one axis (rho, alpha, epsilon, or boundary_size), runs both
solver methods for every (grid value, seed node) pair under an otherwise
identical setup, and collects one flat row per run. Everything is
deterministic: fresh per-point graphs draw their generator seeds from a
stable hash of (base_rng_seed, point index), and rerunning a spec produces a
byte-identical CSV.

Solver errors inside a run are recorded as a converged=false row plus an
entry in ``SweepResult.errors`` (so callers can distinguish "errored" from
"merely hit the iteration cap"); they never abort the sweep.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .graph import _MAX_ID, Graph, NodeSet, parse_snap_edgelist, volume
from .objective import ProblemParams, SettingError
from .solver import NumericalDivergenceError, SolverConfig, solve
from .synth import RegionPartition, SynthParams, generate

__all__ = [
    "SWEEP_AXES",
    "CSV_HEADER",
    "SweepSpec",
    "SweepRow",
    "SweepError",
    "SweepResult",
    "TradeoffRow",
    "log_grid",
    "derive_rng_seed",
    "load_edgelist",
    "sample_seeds",
    "run_sweep",
    "tradeoff_ratios",
    "write_rows_csv",
]

SWEEP_AXES = ("rho", "alpha", "epsilon", "boundary_size")
METHODS = ("ista", "fista")


def log_grid(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """Log-spaced grid endpoints included; both must be positive and finite."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"log spacing requires finite bounds, got {lo}, {hi}")
    if lo <= 0.0 or hi <= 0.0:
        raise ValueError("log spacing requires lo > 0 and hi > 0")
    return tuple(float(v) for v in np.geomspace(lo, hi, count))


def derive_rng_seed(base_rng_seed: int, point_index: int) -> int:
    """Stable per-point generator seed: first 8 bytes of sha256("base:index")."""
    digest = hashlib.sha256(f"{base_rng_seed}:{point_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def load_edgelist(path: str, max_nodes: int | None = None):
    """Parse a whitespace edge list file, optionally truncated for smoke tests
    (see :func:`l1ppr.graph.parse_snap_edgelist` for ``max_nodes``)."""
    return parse_snap_edgelist(Path(path), max_nodes)


def sample_seeds(g: Graph, k: int, rng_seed: int) -> NodeSet:
    """k distinct nodes, uniform without replacement, fixed by rng_seed."""
    if k > g.n:
        raise ValueError(f"cannot sample {k} seeds from {g.n} nodes")
    if k < 0:
        raise ValueError("k must be non-negative")
    rng = np.random.default_rng(rng_seed)
    return NodeSet(rng.choice(g.n, size=k, replace=False))


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis, its grid, and everything held fixed."""

    sweep_axis: str
    grid: tuple[float, ...]
    alpha: float = 0.20
    rho: float = 1e-4
    eps: float = 1e-6
    reg_factor: int = 1
    synth: SynthParams | None = None
    edgelist_path: str | None = None
    max_nodes: int | None = None
    seeds: tuple[int, ...] | None = (0,)
    seed_count: int = 1
    per_point_fresh_graph: bool = False
    base_rng_seed: int = 0
    max_iter: int = 50000

    def __post_init__(self) -> None:
        if self.sweep_axis not in SWEEP_AXES:
            raise SettingError(f"sweep_axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}",
                               "sweep_axis")
        if not self.grid:
            raise SettingError("grid must be nonempty", "grid")
        if (self.synth is None) == (self.edgelist_path is None):
            raise SettingError("exactly one of synth params or edgelist_path required",
                               "edgelist_path", "synth")
        if self.sweep_axis == "boundary_size" and self.synth is None:
            raise SettingError("boundary_size sweeps require a synthetic graph source",
                               "sweep_axis", "edgelist_path")
        if self.per_point_fresh_graph and self.synth is None:
            raise SettingError("fresh per-point graphs require a synthetic graph source",
                               "per_point_fresh_graph", "edgelist_path")
        # Every run's settings, checked by the classes the runs use: first the
        # fixed keys and seeds, with 1.0 (valid on every axis) standing in for
        # the swept value, then each grid value with its generator settings,
        # so an error names the grid only when a grid value is at fault.
        for seed in self.seeds if self.seeds is not None else (0,):
            self._run_params(1.0, seed, METHODS[0])
        for idx, v in enumerate(self.grid):
            try:
                self._run_params(v, 0, METHODS[0])
                if self.synth is not None:
                    self._point_synth(idx, v)
            except ValueError as exc:
                raise SettingError(f"{self.sweep_axis} grid value {v}: {exc}", "grid") from None

    def _run_params(self, value: float, seed: int, method: str) -> tuple[ProblemParams, SolverConfig]:
        """The problem and solver settings of the run at grid value ``value``."""
        alpha = value if self.sweep_axis == "alpha" else self.alpha
        rho = value if self.sweep_axis == "rho" else self.rho
        eps = value if self.sweep_axis == "epsilon" else self.eps
        return (ProblemParams(alpha=alpha, rho=rho, seed=seed, reg_factor=self.reg_factor),
                SolverConfig(method=method, eps=eps, max_iter=self.max_iter))

    def _point_synth(self, idx: int, value: float) -> SynthParams:
        """The generator settings of grid point ``idx`` at value ``value``."""
        sp = self.synth
        if self.sweep_axis == "boundary_size":
            # int(v) truncates the non-integer values of a log grid; inf, nan
            # and values past the int64 node ids cannot size a graph
            if not 0.0 <= value <= _MAX_ID:
                raise ValueError(f"boundary_size must lie in [0, {_MAX_ID}]")
            sp = replace(sp, boundary_size=int(value))
        if self.per_point_fresh_graph:
            sp = replace(sp, rng_seed=derive_rng_seed(self.base_rng_seed, idx))
        return sp


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    method: str
    seed: int
    iters: int
    total_work: int
    converged: bool
    residual: float
    vol_supp: int
    spurious_vol: int | None  # None without a baseline (edge-list graphs)
    work_per_iter: float


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))

# statistics of a run whose solve raised
_ERRORED_RUN = dict(iters=0, total_work=0, converged=False, residual=float("nan"),
                    vol_supp=0, spurious_vol=0, work_per_iter=0.0)


@dataclass(frozen=True)
class SweepError:
    value: float
    method: str
    seed: int
    message: str


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    errors: tuple[SweepError, ...]


def _prepare_points(spec: SweepSpec) -> list[tuple[float, Graph, RegionPartition | None]]:
    if spec.edgelist_path is not None:
        g, _ = load_edgelist(spec.edgelist_path, spec.max_nodes)
        return [(float(v), g, None) for v in spec.grid]
    if not spec.per_point_fresh_graph and spec.sweep_axis != "boundary_size":
        g, part = generate(spec.synth)
        return [(float(v), g, part) for v in spec.grid]
    return [(float(v), *generate(spec._point_synth(idx, v))) for idx, v in enumerate(spec.grid)]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run both methods over the grid x seed set; deterministic given spec."""
    points = _prepare_points(spec)
    if spec.seeds is not None:
        seeds = tuple(int(s) for s in spec.seeds)
    else:
        seeds = tuple(int(s) for s in sample_seeds(points[0][1], spec.seed_count, spec.base_rng_seed).ids)
    rows: list[SweepRow] = []
    errors: list[SweepError] = []
    for value, g, part in points:
        baseline = part.core if part is not None else None
        for method in METHODS:
            for seed in seeds:
                try:
                    sol = solve(g, *spec._run_params(value, seed, method), spurious_baseline=baseline)
                except (ValueError, NumericalDivergenceError) as exc:
                    errors.append(SweepError(value, method, seed, str(exc)))
                    stats = _ERRORED_RUN
                else:
                    tr = sol.trace
                    stats = dict(
                        iters=tr.iterations,
                        total_work=tr.total_work,
                        converged=tr.converged,
                        residual=tr.final_residual,
                        vol_supp=volume(g, sol.support),
                        spurious_vol=tr.spurious_total,
                        work_per_iter=tr.total_work / tr.iterations if tr.iterations else 0.0,
                    )
                rows.append(SweepRow(axis=spec.sweep_axis, value=value, method=method, seed=seed,
                                     **stats))
    rows.sort(key=lambda r: (r.value, r.method, r.seed))
    return SweepResult(tuple(rows), tuple(errors))


@dataclass(frozen=True)
class TradeoffRow:
    value: float
    seed: int
    iter_ratio: float
    per_iter_ratio: float
    work_ratio: float


def tradeoff_ratios(rows: Iterable[SweepRow]) -> list[TradeoffRow]:
    """Per (value, seed) decomposition of the accelerated/plain work ratio
    into an iteration-count ratio times a per-iteration-work ratio.

    Pairs with a missing counterpart or a zero-iteration run are skipped with
    a warning. The identity work_ratio = iter_ratio * per_iter_ratio is
    checked to 1e-12 relative.
    """
    by_key: dict[tuple[float, int, str], SweepRow] = {}
    for r in rows:
        by_key[(r.value, r.seed, r.method)] = r
    pairs = sorted({(v, s) for (v, s, _) in by_key})
    out = []
    for value, seed in pairs:
        ri = by_key.get((value, seed, "ista"))
        rf = by_key.get((value, seed, "fista"))
        if ri is None or rf is None:
            warnings.warn(f"unmatched methods at value={value}, seed={seed}; skipping")
            continue
        if ri.iters == 0 or rf.iters == 0 or ri.total_work == 0:
            warnings.warn(
                f"degenerate run at value={value}, seed={seed} (zero iterations or work); skipping"
            )
            continue
        iter_ratio = rf.iters / ri.iters
        per_iter_ratio = (rf.total_work / rf.iters) / (ri.total_work / ri.iters)
        work_ratio = rf.total_work / ri.total_work
        if abs(work_ratio - iter_ratio * per_iter_ratio) > 1e-12 * abs(work_ratio):
            raise AssertionError(
                f"ratio identity broken at value={value}, seed={seed}"
            )
        out.append(TradeoffRow(value, seed, iter_ratio, per_iter_ratio, work_ratio))
    return out


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _csv_cell(value) -> str:
    if isinstance(value, bool):  # before int: bool is an int subclass
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return "" if value is None else str(value)


def write_rows_csv(rows: Iterable[SweepRow], out: IO[str]) -> None:
    """Fixed-header CSV, rows sorted by (value, method, seed), floats at 12
    significant digits; byte-identical across reruns of the same spec."""
    out.write(CSV_HEADER + "\n")
    for r in sorted(rows, key=lambda r: (r.value, r.method, r.seed)):
        out.write(",".join(_csv_cell(getattr(r, f.name)) for f in fields(r)) + "\n")
