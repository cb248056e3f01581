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
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .graph import _MAX_ID, Graph, NodeSet, _find, _is_int, parse_snap_edgelist, volume
from .objective import ProblemParams, SettingError, _check_ints
from .solver import METHODS, NumericalDivergenceError, SolverConfig, solve
from .synth import RegionPartition, SynthParams, generate

__all__ = [
    "SWEEP_AXES",
    "CSV_HEADER",
    "SweepSpec",
    "SweepRow",
    "SweepError",
    "SweepResult",
    "log_grid",
    "derive_rng_seed",
    "load_edgelist",
    "sample_seeds",
    "run_sweep",
    "write_rows_csv",
]

SWEEP_AXES = ("rho", "alpha", "epsilon", "boundary_size")


def log_grid(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """Log-spaced grid endpoints included; both must be positive and finite."""
    if not _is_int(count) or count < 1:
        raise ValueError(f"count must be an integer of at least 1, got {count!r}")
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
    (see :func:`l1ppr.graph.parse_snap_edgelist` for ``max_nodes``). A file
    that cannot be read raises ``ValueError``, as a malformed one does."""
    try:
        return parse_snap_edgelist(Path(path), max_nodes)
    except OSError as exc:
        raise ValueError(f"cannot read graph file: {exc}") from exc


def _map_original_ids(remap: np.ndarray, nodes: list[int], what: str) -> list[int]:
    """Translate original edge-list ids to compact graph ids (``remap`` is
    strictly increasing)."""
    # an id outside int64 becomes -1, which no graph holds
    query = np.array([node if 0 <= node <= _MAX_ID else -1 for node in nodes], dtype=np.int64)
    found, at = _find(remap, query)
    if not found.all():
        raise ValueError(f"{what} {nodes[int(np.argmin(found))]} not present in the graph")
    return at.tolist()


def sample_seeds(g: Graph, k: int, rng_seed: int) -> NodeSet:
    """k distinct nodes, uniform without replacement, fixed by rng_seed."""
    if not _is_int(k) or not 0 <= k <= g.n:
        raise ValueError(f"cannot sample {k!r} seeds from {g.n} nodes: k must be a non-negative integer "
                         "no larger than n")
    rng = np.random.default_rng(rng_seed)
    return NodeSet(rng.choice(g.n, size=k, replace=False))


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis, its grid, and everything held fixed."""

    sweep_axis: str
    grid: tuple[float, ...]
    alpha: float = 0.20
    rho: float = 1e-4
    eps: float = SolverConfig.eps
    reg_factor: int = ProblemParams.reg_factor
    synth: SynthParams | None = None
    edgelist_path: str | None = None
    max_nodes: int | None = None
    seeds: tuple[int, ...] | None = (0,)
    seed_count: int = 1
    per_point_fresh_graph: bool = False
    base_rng_seed: int = 0
    max_iter: int = SolverConfig.max_iter

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
        _check_ints(self, "seed_count", "base_rng_seed")
        if self.max_nodes is not None:
            _check_ints(self, "max_nodes")
        if self.seeds is None and self.seed_count < 1:
            raise SettingError("seed_count must be at least 1", "seed_count")
        if self.seeds is not None and not self.seeds:
            raise SettingError("seeds must be nonempty", "seeds")
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

# statistics of a run whose solve raised: nothing was measured, so the
# residual is nan and the spurious volume empty
_ERRORED_RUN = dict(iters=0, total_work=0, converged=False, residual=float("nan"),
                    vol_supp=0, spurious_vol=None, work_per_iter=0.0)


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


def _prepare_points(spec: SweepSpec) -> tuple[list[tuple[float, Graph, RegionPartition | None]], np.ndarray | None]:
    """The (grid value, graph, partition) of each point, and the edge list's
    compact-to-original id map (None for a synthetic graph)."""
    if spec.edgelist_path is not None:
        g, remap = load_edgelist(spec.edgelist_path, spec.max_nodes)
        return [(float(v), g, None) for v in spec.grid], remap
    synth = [spec._point_synth(idx, v) for idx, v in enumerate(spec.grid)]
    # each distinct setting once, in grid order: points that share their
    # generator settings share one graph
    built = {sp: generate(sp) for sp in dict.fromkeys(synth)}
    return [(float(v), *built[sp]) for v, sp in zip(spec.grid, synth)], None


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run both methods over the grid x seed set; deterministic given spec.
    On an edge list, seeds are the file's node ids, in the spec and in the
    rows."""
    points, remap = _prepare_points(spec)
    if spec.seeds is not None:
        seeds = tuple(int(s) for s in spec.seeds)
    else:
        sampled = sample_seeds(points[0][1], spec.seed_count, spec.base_rng_seed).ids
        seeds = tuple(int(s) for s in (sampled if remap is None else remap[sampled]))
    rows: list[SweepRow] = []
    errors: list[SweepError] = []
    for value, g, part in points:
        baseline = part.core if part is not None else None
        for method in METHODS:
            for seed in seeds:
                try:
                    node = seed if remap is None else _map_original_ids(remap, [seed], "seed node")[0]
                    sol = solve(g, *spec._run_params(value, node, method), spurious_baseline=baseline)
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


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _csv_cell(value) -> str:
    if isinstance(value, bool):  # before int: bool is an int subclass
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return "" if value is None else str(value)


def _write_csv(out: IO[str], header: str, rows: Iterable[Iterable]) -> None:
    """The CSV of every table: the line ``header``, then one line per row,
    each cell formatted by ``_csv_cell``."""
    out.write(header + "\n")
    for row in rows:
        out.write(",".join(map(_csv_cell, row)) + "\n")


def write_rows_csv(rows: Iterable[SweepRow], out: IO[str]) -> None:
    """Fixed-header CSV, rows sorted by (value, method, seed), floats at 12
    significant digits; byte-identical across reruns of the same spec."""
    _write_csv(out, CSV_HEADER, ((getattr(r, f.name) for f in fields(r))
                                 for r in sorted(rows, key=lambda r: (r.value, r.method, r.seed))))
