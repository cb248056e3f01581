"""Deterministic graph families used in experiments and tests.

Two constructions live here:

* the core/boundary/exterior block family (clique or sparsified core, modular
  core-to-boundary fan-out, circulant boundary and exterior, one boundary
  attachment per exterior node);
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

from .graph import _MAX_ID, Graph, NodeSet, _is_int, build_from_edges
from .objective import SettingError, SparseVector, _check_alpha, _check_ints

__all__ = [
    "SynthParams",
    "RegionPartition",
    "AnalyticInstance",
    "generate",
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
        _check_ints(self, "core_size", "boundary_size", "exterior_size", "c_bnd", "deg_b",
                    "deg_ext", "rng_seed")
        if self.core_size < 1:
            raise SettingError("core_size must be at least 1", "core_size")
        for name in ("boundary_size", "exterior_size", "c_bnd", "deg_b", "deg_ext"):
            if getattr(self, name) < 0:
                raise SettingError("sizes and degrees must be non-negative", name)
        if self.total_nodes > _MAX_ID:
            # the largest block is the likeliest culprit
            blocks = sorted(("core_size", "boundary_size", "exterior_size"),
                            key=lambda name: -getattr(self, name))
            raise SettingError(
                f"total_nodes={self.total_nodes} exceeds the int64 node-id bound {_MAX_ID}", *blocks
            )
        if self.boundary_size == 0 and self.c_bnd > 0:
            raise SettingError("c_bnd > 0 requires a non-empty boundary", "c_bnd", "boundary_size")
        if self.boundary_size > 0 and self.c_bnd > self.boundary_size:
            raise SettingError(f"c_bnd={self.c_bnd} exceeds boundary_size={self.boundary_size}",
                               "c_bnd", "boundary_size")
        if self.exterior_size > 0 and self.boundary_size == 0:
            raise SettingError("exterior nodes need a boundary to attach to",
                               "exterior_size", "boundary_size")
        if self.exterior_size > 0 and self.deg_ext >= self.exterior_size:
            raise SettingError(
                f"deg_ext={self.deg_ext} must be smaller than exterior_size={self.exterior_size}",
                "deg_ext", "exterior_size",
            )
        if not (0.0 < self.core_density <= 1.0):
            raise SettingError("core_density must lie in (0, 1]", "core_density")
        if self.core_density * self._core_pairs() < self.core_size - 1:
            raise SettingError("core_density too low for the core to stay connected",
                               "core_density", "core_size")

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


def generate(params: SynthParams) -> tuple[Graph, RegionPartition]:
    """Build the block instance; bit-identical for identical params."""
    s, b, e, c = params.core_size, params.boundary_size, params.exterior_size, params.c_bnd
    b0, e0 = s, s + b
    total = e0 + e
    # with b == 0 the fan-out and the attachments are empty (SynthParams then
    # requires c == 0 and e == 0), so % b never divides
    fan = np.arange(s * c, dtype=np.int64)  # core node u's j-th edge is u*c + j
    attach = np.arange(e, dtype=np.int64)
    edges = np.concatenate((
        _core_edges(params),
        np.stack((np.repeat(np.arange(s, dtype=np.int64), c), b0 + fan % b), axis=1),
        _circulant_edges(b0, b, params.deg_b),
        _circulant_edges(e0, e, params.deg_ext),
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
        _check_alpha(alpha)
        if self.family == "star":
            return (1.0 - alpha) / (2.0 * self.m)
        return (1.0 - alpha) / (3.0 + alpha)

    def valid_interval(self, alpha: float) -> tuple[float, float]:
        hi = 1.0 / self.m if self.family == "star" else 1.0
        return self.rho_breakpoint(alpha), hi

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
        return SparseVector.from_arrays([self.seed], [val])

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
    if not _is_int(m) or m < 1:
        raise ValueError(f"star needs an integer count of at least one leaf, got m={m!r}")
    leaves = np.arange(1, m + 1, dtype=np.int64)
    g, _ = build_from_edges(np.stack((np.zeros_like(leaves), leaves), axis=1))
    return AnalyticInstance(graph=g, seed=0, family="star", m=m)


def path_instance(m: int) -> AnalyticInstance:
    """Path 0-1-...-(m+1) with seed at endpoint 0 and m interior nodes."""
    if not _is_int(m) or m < 2:
        raise ValueError(f"path needs an integer count of at least two interior nodes, got m={m!r}")
    nodes = np.arange(m + 1, dtype=np.int64)
    g, _ = build_from_edges(np.stack((nodes, nodes + 1), axis=1))
    return AnalyticInstance(graph=g, seed=0, family="path", m=m)
