"""Dense reference implementations, used only by the tests.

Everything here trades speed for trustworthiness: the quadratic's matrix is
materialized as a full array, the solve is plain dense ISTA iterated to a
near machine-precision fixed point, and nothing is shared with the library's
sparse code paths. A size cap keeps accidental big-graph usage out.

The graph families and the memory measure that the tests and the tools in
``tests/`` share live here too: ``random_connected_graph``, the clique on a
ring (``clique_ring_edges``, ``clique_ring``) and ``traced``.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass

import numpy as np

from l1ppr.graph import Graph, build_from_edges
from l1ppr.objective import ProblemParams

SIZE_CAP = 2000


@dataclass(frozen=True)
class DenseProblem:
    q: np.ndarray    # (n, n) symmetric, eigenvalues in [alpha, 1]
    b: np.ndarray    # alpha * D^{-1/2} e_seed
    tau: np.ndarray  # per-node soft threshold reg_factor*alpha*rho*sqrt(d_i)


def build_dense(g: Graph, p: ProblemParams, check_spectrum: bool = True) -> DenseProblem:
    if g.n > SIZE_CAP:
        raise ValueError(f"dense oracle capped at {SIZE_CAP} nodes, got {g.n}")
    n = g.n
    adj = np.zeros((n, n))
    adj[np.repeat(np.arange(n), np.diff(g.row_offsets)), g.neighbors] = 1.0
    isd = g.inv_sqrt_degrees
    q = p.hp * np.eye(n) - p.hm * (isd[:, None] * adj * isd[None, :])
    if check_spectrum:
        eig = np.linalg.eigvalsh(q)
        assert eig[0] >= p.alpha - 1e-9 and eig[-1] <= 1.0 + 1e-9, (
            f"spectrum [{eig[0]}, {eig[-1]}] outside [{p.alpha}, 1]"
        )
    b = np.zeros(n)
    b[p.seed] = p.alpha * isd[p.seed]
    tau = p.reg_level * g.sqrt_degrees
    return DenseProblem(q=q, b=b, tau=tau)


def dense_gradient(dp: DenseProblem, x: np.ndarray) -> np.ndarray:
    return dp.q @ x - dp.b


def dense_objective(dp: DenseProblem, x: np.ndarray) -> float:
    return float(0.5 * x @ dp.q @ x - dp.b @ x + dp.tau @ np.abs(x))


def _soft(w: np.ndarray, tau: np.ndarray) -> np.ndarray:
    return np.sign(w) * np.maximum(np.abs(w) - tau, 0.0)


def dense_solve(dp: DenseProblem, tol: float = 1e-14, cap: int = 10**6) -> np.ndarray:
    """Plain dense proximal-gradient iteration (unit step, no momentum)."""
    x = np.zeros_like(dp.b)
    for _ in range(cap):
        nxt = _soft(x - dense_gradient(dp, x), dp.tau)
        if np.max(np.abs(nxt - x)) <= tol:
            return nxt
        x = nxt
    raise RuntimeError(f"dense solve did not reach tol={tol} within {cap} iterations")


def dense_solve_linear(dp: DenseProblem) -> np.ndarray:
    """Unregularized limit: solve q x = b directly."""
    return np.linalg.solve(dp.q, dp.b)


def breakpoint_scan(
    g: Graph, seed: int, alpha: float, rho_grid, predicted_support
) -> float:
    """Smallest grid rho whose dense solution support equals the prediction."""
    predicted = sorted(int(i) for i in predicted_support)
    for rho in rho_grid:
        p = ProblemParams(alpha=alpha, rho=float(rho), seed=seed, reg_factor=1)
        x = dense_solve(build_dense(g, p, check_spectrum=False))
        if sorted(np.flatnonzero(x).tolist()) == predicted:
            return float(rho)
    raise AssertionError("no grid point produced the predicted support")


def random_connected_graph(rng: np.random.Generator, n: int, extra_edges: int | None = None):
    """Random tree plus random extra edges; always connected, no isolated nodes."""
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    if extra_edges is None:
        extra_edges = int(rng.integers(0, 2 * n))
    for _ in range(extra_edges):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            edges.append((min(u, v), max(u, v)))
    g, _ = build_from_edges(edges)
    assert g.n == n
    return g


def clique_ring_edges(ring_nodes: int, clique: int = 20, shift: int = 0) -> np.ndarray:
    """The int64 (m, 2) edges of a ``clique``-clique whose last node joins a
    cycle of ``ring_nodes`` nodes numbered on from the clique, every id plus
    ``shift``: the graph of the ``local_ring`` benchmark workload."""
    iu, ju = np.triu_indices(clique, 1)
    ring = np.arange(clique, clique + ring_nodes, dtype=np.int64)
    edges = np.concatenate([
        np.stack([iu, ju], axis=1).astype(np.int64),
        np.stack([ring, np.roll(ring, -1)], axis=1),
        np.array([[clique - 1, clique]], dtype=np.int64),
    ])
    edges += shift
    return edges


def clique_ring(ring_nodes: int, clique: int = 20) -> Graph:
    """The graph of ``clique_ring_edges``."""
    return build_from_edges(clique_ring_edges(ring_nodes, clique))[0]


def traced(call):
    """The tracemalloc peak and the held bytes of ``call()`` above those at
    its start, and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base, held - base, out
