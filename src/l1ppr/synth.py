"""Deterministic graph families used in experiments and tests.

Three constructions live here:

* the core/boundary/exterior block family (clique or sparsified core, modular
  core-to-boundary fan-out, circulant boundary and exterior, one boundary
  attachment per exterior node);
* its variant for teleportation sweeps, where the exterior is a clique and
  only the first m exterior nodes touch the boundary, with the exterior size
  chosen as the smallest value passing the no-percolation check at the
  smallest swept teleportation value;
* two closed-form instances (star and path) whose minimizer, slack values and
  regularization breakpoint are known analytically and serve as ground truth.

Node ordering is always core block first, then boundary, then exterior, so
partition checks are trivial and node 0 is the conventional seed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
import numpy as np

from .graph import Graph, NodeSet, build_from_edges
from .objective import ProblemParams, SparseVector

__all__ = [
    "SynthParams",
    "RegionPartition",
    "AnalyticInstance",
    "generate",
    "generate_alpha_sweep_instance",
    "star_instance",
    "path_instance",
]


@dataclass(frozen=True)
class SynthParams:
    """Block sizes and degree targets for the synthetic family."""

    core_size: int = 60
    boundary_size: int = 600
    exterior_size: int = 1000
    c_bnd: int = 20          # boundary neighbors per core node
    deg_b: int = 82          # boundary circulant degree (adjusted even, capped)
    deg_ext: int = 998       # exterior circulant degree (must be < exterior_size)
    core_density: float = 1.0  # 1.0 = clique; < 1 keeps a random connected subgraph
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.core_size < 1:
            raise ValueError("core_size must be at least 1")
        if min(self.boundary_size, self.exterior_size, self.c_bnd, self.deg_b, self.deg_ext) < 0:
            raise ValueError("sizes and degrees must be non-negative")
        if self.boundary_size == 0 and self.c_bnd > 0:
            raise ValueError("c_bnd > 0 requires a non-empty boundary")
        if self.boundary_size > 0 and self.c_bnd > self.boundary_size:
            raise ValueError(
                f"c_bnd={self.c_bnd} exceeds boundary_size={self.boundary_size}"
            )
        if self.exterior_size > 0 and self.boundary_size == 0:
            raise ValueError("exterior nodes need a boundary to attach to")
        if self.exterior_size > 0 and self.deg_ext >= self.exterior_size:
            raise ValueError(
                f"deg_ext={self.deg_ext} must be smaller than exterior_size={self.exterior_size}"
            )
        if not (0.0 < self.core_density <= 1.0):
            raise ValueError("core_density must lie in (0, 1]")
        if self.core_density * self._core_pairs() < self.core_size - 1:
            raise ValueError("core_density too low for the core to stay connected")

    def _core_pairs(self) -> int:
        return self.core_size * (self.core_size - 1) // 2

    @property
    def total_nodes(self) -> int:
        return self.core_size + self.boundary_size + self.exterior_size


@dataclass(frozen=True)
class RegionPartition:
    """Disjoint core/boundary/exterior node sets covering the whole graph."""

    core: NodeSet
    boundary: NodeSet
    exterior: NodeSet


def _even_circulant_degree(deg: int, size: int) -> int:
    """Round down to even, cap at size-1, round down to even again."""
    if size <= 1:
        return 0
    k = deg - (deg % 2)
    k = min(k, size - 1)
    return max(k - (k % 2), 0)


def _circulant_edges(first: int, size: int, deg: int) -> np.ndarray:
    """(u, v) rows of the circulant: offset by offset, node by node."""
    k = _even_circulant_degree(deg, size)
    i = np.arange(size, dtype=np.int64)
    off = np.arange(1, k // 2 + 1, dtype=np.int64)[:, None]
    u, v = np.broadcast_arrays(first + i, first + (i + off) % size)
    return np.stack((u.ravel(), v.ravel()), axis=1)


def _random_spanning_tree(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Uniform random labeled tree on n nodes (Pruefer decode)."""
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = rng.integers(0, n, size=n - 2)
    deg = np.ones(n, dtype=np.int64)
    np.add.at(deg, seq, 1)
    leaves = [i for i in range(n) if deg[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq.tolist():
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, s), max(leaf, s)))
        deg[leaf] -= 1
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(leaves, s)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((min(a, b), max(a, b)))
    return edges


def _core_edges(params: SynthParams) -> np.ndarray:
    s = params.core_size
    if params.core_density == 1.0:
        return np.stack(np.triu_indices(s, 1), axis=1).astype(np.int64)
    rng = np.random.default_rng(params.rng_seed)
    tree = _random_spanning_tree(s, rng)
    target = int(round(params.core_density * params._core_pairs()))
    extra = target - len(tree)
    if extra > 0:
        tree_set = set(tree)
        pool = [(i, j) for i in range(s) for j in range(i + 1, s) if (i, j) not in tree_set]
        picks = rng.choice(len(pool), size=extra, replace=False)
        tree = tree + [pool[t] for t in sorted(picks.tolist())]
    return np.array(tree, dtype=np.int64).reshape(-1, 2)


def _block_graph(
    params: SynthParams, ext_size: int, ext_edges: np.ndarray, n_attach: int
) -> tuple[Graph, RegionPartition]:
    """Core, fan-out and boundary circulant from ``params``, plus the given
    exterior edges (an int64 (k, 2) array of global ids) and one boundary
    attachment for each of the first ``n_attach`` exterior nodes."""
    s, b, c = params.core_size, params.boundary_size, params.c_bnd
    b0, e0 = s, s + b
    total = e0 + ext_size
    if n_attach and not b:
        raise ValueError("exterior nodes need a boundary to attach to")
    # with b == 0 both ranges are empty (c is then 0), so % b never divides
    fan = np.arange(s * c, dtype=np.int64)  # core node u's j-th edge is u*c + j
    attach = np.arange(n_attach, dtype=np.int64)
    edges = np.concatenate((
        _core_edges(params),
        np.stack((np.repeat(np.arange(s, dtype=np.int64), c), b0 + fan % b), axis=1),
        _circulant_edges(b0, b, params.deg_b),
        ext_edges,
        np.stack((e0 + attach, b0 + attach % b), axis=1),
    ))
    g, remap = build_from_edges(edges)
    if g.n != total:
        missing = np.setdiff1d(np.arange(total), remap).tolist()
        raise ValueError(
            f"construction left {len(missing)} isolated node(s), first few: {missing[:5]}"
        )
    part = RegionPartition(
        core=NodeSet(np.arange(s)),
        boundary=NodeSet(np.arange(b0, e0)),
        exterior=NodeSet(np.arange(e0, total)),
    )
    return g, part


def generate(params: SynthParams) -> tuple[Graph, RegionPartition]:
    """Build the block instance; bit-identical for identical params."""
    e = params.exterior_size
    e0 = params.core_size + params.boundary_size
    return _block_graph(params, e, _circulant_edges(e0, e, params.deg_ext), e)


def _alpha_sweep_candidate(
    base: SynthParams, m_ext_edges: int, ext_size: int
) -> tuple[Graph, RegionPartition]:
    """Variant instance: exterior clique, only m exterior-boundary edges."""
    e0 = base.core_size + base.boundary_size
    clique = e0 + np.stack(np.triu_indices(ext_size, 1), axis=1).astype(np.int64)
    return _block_graph(base, ext_size, clique, m_ext_edges)


def generate_alpha_sweep_instance(
    base: SynthParams,
    m_ext_edges: int,
    alpha_min: float,
    rho: float = 1e-4,
    ext_cap: int = 2048,
) -> tuple[Graph, RegionPartition]:
    """Clique-exterior variant sized so confinement is certified at alpha_min.

    The exterior size is the smallest value for which the no-percolation
    check passes at ``(alpha_min, rho)`` with the core as the candidate set;
    the check's violation ratio is strictly decreasing in the exterior size,
    so a binary search finds the threshold. The check only becomes easier for
    larger teleportation values, so the certificate covers every
    ``alpha >= alpha_min`` in a sweep.
    """
    from .diagnostics import check_no_percolation

    if m_ext_edges < 0:
        raise ValueError("m_ext_edges must be non-negative")
    lo = max(m_ext_edges, 2)
    if lo > ext_cap:
        raise ValueError(f"m_ext_edges={m_ext_edges} exceeds ext_cap={ext_cap}")
    probe = ProblemParams(alpha_min, rho, seed=0, reg_factor=2)

    def passes(ext_size: int) -> tuple[bool, Graph, RegionPartition]:
        g, part = _alpha_sweep_candidate(base, m_ext_edges, ext_size)
        report = check_no_percolation(g, probe, part.core)
        return report.holds, g, part

    ok, g, part = passes(lo)
    if ok:
        return g, part
    ok, g_hi, part_hi = passes(ext_cap)
    if not ok:
        raise ValueError(
            f"no exterior size up to {ext_cap} satisfies the no-percolation "
            f"check at alpha={alpha_min}, rho={rho}"
        )
    lo_fail, hi_pass = lo, ext_cap
    best = (g_hi, part_hi)
    while hi_pass - lo_fail > 1:
        mid = (lo_fail + hi_pass) // 2
        ok, g_mid, part_mid = passes(mid)
        if ok:
            hi_pass = mid
            best = (g_mid, part_mid)
        else:
            lo_fail = mid
    return best


@dataclass(frozen=True)
class AnalyticInstance:
    """Graph with closed-form minimizer, slacks, and breakpoint.

    ``family`` is "star" (seed at the center of an m-leaf star) or "path"
    (seed at endpoint 0 of a path with m interior nodes, n = m + 2). Formulas
    are only valid for rho in ``valid_interval(alpha)``; the evaluators reject
    anything else. All formulas describe reg_factor=1 problems.
    """

    graph: Graph
    seed: int
    family: str
    m: int

    def rho_breakpoint(self, alpha: float) -> float:
        """Regularization value where the tightest inactive slack hits zero."""
        self._check_alpha(alpha)
        if self.family == "star":
            return (1.0 - alpha) / (2.0 * self.m)
        return (1.0 - alpha) / (3.0 + alpha)

    def valid_interval(self, alpha: float) -> tuple[float, float]:
        hi = 1.0 / self.m if self.family == "star" else 1.0
        return self.rho_breakpoint(alpha), hi

    def _check_alpha(self, alpha: float) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")

    def _check(self, alpha: float, rho: float) -> None:
        lo, hi = self.valid_interval(alpha)
        if rho <= 0.0 or not (lo <= rho < hi):
            raise ValueError(
                f"rho={rho} outside validity interval [{lo}, {hi}) "
                f"for {self.family} instance with m={self.m}, alpha={alpha}"
            )

    def solution_formula(self, alpha: float, rho: float) -> SparseVector:
        """Closed-form minimizer (supported on the seed only)."""
        self._check(alpha, rho)
        if self.family == "star":
            val = 2.0 * alpha * (1.0 - rho * self.m) / ((1.0 + alpha) * math.sqrt(self.m))
        else:
            val = 2.0 * alpha * (1.0 - rho) / (1.0 + alpha)
        return SparseVector({self.seed: val})

    def slack_formula(self, alpha: float, rho: float) -> dict[int, float]:
        """Closed-form degree-normalized slack for every inactive node."""
        self._check(alpha, rho)
        rho0 = self.rho_breakpoint(alpha)
        if self.family == "star":
            leaf = (2.0 * alpha / (1.0 + alpha)) * (rho - rho0)
            return {i: leaf for i in range(1, self.m + 1)}
        near = (alpha * (3.0 + alpha) / (2.0 * (1.0 + alpha))) * (rho - rho0)
        out = {1: near}
        for i in range(2, self.m + 2):
            out[i] = alpha * rho
        return out


def star_instance(m: int) -> AnalyticInstance:
    """Star with center seed 0 and leaves 1..m."""
    if m < 1:
        raise ValueError("star needs at least one leaf")
    g, _ = build_from_edges([(0, k) for k in range(1, m + 1)])
    return AnalyticInstance(graph=g, seed=0, family="star", m=m)


def path_instance(m: int) -> AnalyticInstance:
    """Path 0-1-...-(m+1) with seed at endpoint 0 and m interior nodes."""
    if m < 2:
        raise ValueError("path needs at least two interior nodes")
    g, _ = build_from_edges([(i, i + 1) for i in range(m + 1)])
    return AnalyticInstance(graph=g, seed=0, family="path", m=m)
