"""Seeded, degree-weighted l1-regularized PageRank objective.

The composite objective solved throughout the library is

    F(x) = f(x) + c * alpha * rho * sum_i sqrt(d_i) |x_i|,
    f(x) = 0.5 <x, Q x> - alpha <D^{-1/2} e_v, x>,
    Q    = ((1+alpha)/2) I - ((1-alpha)/2) D^{-1/2} A D^{-1/2},

with seed node v and regularization factor c in {1, 2} (c=2 doubles every
soft threshold; nothing else changes). Q has its spectrum inside
[alpha, 1], so f is alpha-strongly convex and 1-smooth.

``gradient``, ``forward_map``, ``objective_value``, ``kkt_residual`` and the
step kernel in :mod:`l1ppr.kernels` share one gather core, ``_gather``: it
reads the adjacency rows of supp(x) only and returns the candidates supp(x) +
N(supp(x)) + {v} with (Qx) at each of them, so every one of these costs
O(vol(supp(x))). Its accumulation order is fixed (sources in ascending node
order, CSR row order within a source). ``prox``, ``kkt_residual`` and the
kernel share one weighted soft threshold, ``_soft_threshold``. The dict-based
implementations these functions replaced live on in ``tests/reference.py``,
and the tests check the two bit for bit.

The dense n-length buffers the core works in come from a workspace kept per
graph (weakly, so it goes with the graph), shared with
:func:`l1ppr.solver.solve`, and zeroed after each use at the indices that
use wrote.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .graph import Graph

__all__ = [
    "SparseVector",
    "ProblemParams",
    "gradient",
    "prox",
    "forward_map",
    "objective_value",
    "kkt_residual",
]


class SparseVector:
    """Sparse node -> value map. Entries are never exactly zero.

    Values that round to exact 0.0 are purged at construction; there is no
    epsilon pruning anywhere (dropping small-but-nonzero entries would
    silently change support volumes, and those are the measured quantity).
    """

    __slots__ = ("_d",)

    def __init__(self, data: Mapping[int, float] | Iterable[tuple[int, float]] | None = None):
        d: dict[int, float] = {}
        if data is not None:
            items = data.items() if isinstance(data, Mapping) else data
            for k, val in items:
                val = float(val)
                if val != 0.0:
                    d[int(k)] = val
        self._d = d

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> "SparseVector":
        nz = np.flatnonzero(arr)
        return cls.from_arrays(nz, arr[nz])

    @classmethod
    def from_arrays(cls, nodes: np.ndarray, values: np.ndarray) -> "SparseVector":
        """Vector with ``values[t]`` at ``nodes[t]`` (distinct nodes); exact
        zeros are dropped."""
        keep = values != 0.0
        out = cls.__new__(cls)
        out._d = dict(zip(nodes[keep].tolist(), values[keep].tolist()))
        return out

    def support(self) -> np.ndarray:
        """Sorted int64 array of nodes with nonzero value."""
        return np.array(sorted(self._d), dtype=np.int64)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The support and the values on it, in ascending node order."""
        nodes = sorted(self._d)
        return np.array(nodes, dtype=np.int64), np.array([self._d[k] for k in nodes], dtype=np.float64)

    def get(self, node: int, default: float = 0.0) -> float:
        return self._d.get(node, default)

    def __getitem__(self, node: int) -> float:
        return self._d.get(node, 0.0)

    def __contains__(self, node: int) -> bool:
        return node in self._d

    def __len__(self) -> int:
        return len(self._d)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SparseVector) and self._d == other._d

    def __repr__(self) -> str:
        return f"SparseVector({dict(sorted(self._d.items()))!r})"

    def items(self) -> Iterator[tuple[int, float]]:
        """(node, value) pairs in ascending node order."""
        return iter(sorted(self._d.items()))

    def to_dense(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        for k, val in self._d.items():
            out[k] = val
        return out

    def max_abs_diff(self, other: "SparseVector") -> float:
        r = 0.0
        for k in self._d.keys() | other._d.keys():
            r = max(r, abs(self._d.get(k, 0.0) - other._d.get(k, 0.0)))
        return r


@dataclass(frozen=True)
class ProblemParams:
    """Problem instance parameters: teleportation, regularization, seed."""

    alpha: float
    rho: float
    seed: int
    reg_factor: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not self.rho > 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.seed < 0:
            raise ValueError(f"seed node must be non-negative, got {self.seed}")
        if self.reg_factor not in (1, 2):
            raise ValueError(f"reg_factor must be 1 or 2, got {self.reg_factor}")

    @property
    def hp(self) -> float:
        """Diagonal coefficient (1+alpha)/2 of the quadratic."""
        return 0.5 * (1.0 + self.alpha)

    @property
    def hm(self) -> float:
        """Off-diagonal coefficient (1-alpha)/2 of the quadratic."""
        return 0.5 * (1.0 - self.alpha)

    @property
    def reg_level(self) -> float:
        """c * alpha * rho; the per-node threshold is this times sqrt(d_i)."""
        return float(self.reg_factor) * (self.alpha * self.rho)


def _check_seed(g: Graph, p: ProblemParams) -> None:
    if p.seed >= g.n:
        raise ValueError(f"seed node {p.seed} out of range for graph with n={g.n}")


def _check_eta(eta: float) -> None:
    if not eta > 0.0:
        raise ValueError(f"step size eta must be positive, got {eta}")


# Per-graph dense buffers: four float64 arrays (the solver's two iterates,
# extrapolated point and residual step; the functions below load their point
# into the first), all zero between uses, and the gather core's int64
# position scratch. A caller takes its graph's workspace out of the table and
# puts it back when done, so a call that overlaps another on the same graph
# allocates its own.
_WORKSPACES: weakref.WeakKeyDictionary[Graph, tuple[np.ndarray, ...]] = weakref.WeakKeyDictionary()


def _new_workspace(n: int) -> tuple[np.ndarray, ...]:
    return (np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64))


def _gather(g: Graph, p: ProblemParams, z: np.ndarray, act: np.ndarray, pos: np.ndarray) -> tuple:
    """Gather core: the candidates, z at them and (Qz) at them.

    The candidates are ``act`` (sorted, distinct, covering the nonzeros of
    the dense point ``z``), its neighbors and the seed, in ascending order;
    only the rows of ``act`` are read. ``pos`` is an int64 array of length n
    whose contents are ignored on entry (every entry read is written first);
    on return ``pos[i]`` is the position of candidate ``i``.
    """
    row_offsets, isd = g.row_offsets, g.inv_sqrt_degrees
    lens = row_offsets[act + 1] - row_offsets[act]
    total = int(lens.sum())
    shift = np.repeat(row_offsets[act] - np.concatenate(([0], np.cumsum(lens)[:-1])), lens)
    nbrs = g.neighbors[np.arange(total, dtype=np.int64) + shift]
    push = z[act] * isd[act]
    weights = np.repeat(push, lens) * isd[nbrs]
    idx = np.concatenate((act, nbrs, np.array([p.seed], dtype=np.int64)))
    # Dedup through the position scratch: exactly one position per distinct
    # node survives the scatter, whichever write lands last.
    at = np.arange(idx.size, dtype=np.int64)
    pos[idx] = at
    cand = np.sort(idx[pos[idx] == at])
    pos[cand] = np.arange(cand.size, dtype=np.int64)
    # bincount adds in edge order: sources ascending, CSR order within a row
    sums = np.bincount(pos[nbrs], weights=weights, minlength=cand.size)
    zc = z[cand]
    return cand, zc, p.hp * zc - p.hm * sums


def _soft_threshold(g: Graph, p: ProblemParams, nodes: np.ndarray, u: np.ndarray, eta: float) -> tuple:
    """Weighted soft threshold of the values ``u`` at ``nodes``: shrink each
    by eta*c*alpha*rho*sqrt(d_i). Returns the mask of entries that survive
    (an entry exactly on its threshold does not) and their shrunk values."""
    thresholds = (eta * p.reg_level) * g.sqrt_degrees[nodes]
    mag = np.abs(u)
    keep = mag > thresholds
    return keep, np.sign(u[keep]) * (mag[keep] - thresholds[keep])


def _gather_at(g: Graph, p: ProblemParams, x: SparseVector) -> tuple:
    """The gather core at x, run in the graph's workspace: the candidates,
    x and (Qx) at them, the positions of supp(x) and of the seed among them."""
    _check_seed(g, p)
    act, vals = x.arrays()
    ws = _WORKSPACES.pop(g, None) or _new_workspace(g.n)
    z, pos = ws[0], ws[4]
    try:
        z[act] = vals
        cand, xc, qx = _gather(g, p, z, act, pos)
        return cand, xc, qx, pos[act], int(pos[p.seed])
    finally:
        z[act] = 0.0
        _WORKSPACES[g] = ws


def _gradient_at(g: Graph, p: ProblemParams, x: SparseVector) -> tuple[np.ndarray, ...]:
    """The candidates of x, x at them and grad f(x) = Qx - alpha D^{-1/2} e_v
    at them."""
    cand, xc, grad, _, at_seed = _gather_at(g, p, x)
    grad[at_seed] -= p.alpha * g.inv_sqrt_degrees[p.seed]
    return cand, xc, grad


def gradient(g: Graph, p: ProblemParams, x: SparseVector) -> SparseVector:
    """grad f at x; support is contained in supp(x), its neighbors, and {v}."""
    cand, _, grad = _gradient_at(g, p, x)
    return SparseVector.from_arrays(cand, grad)


def prox(g: Graph, p: ProblemParams, w: SparseVector, eta: float = 1.0) -> SparseVector:
    """Weighted soft threshold: shrink each entry by eta*c*alpha*rho*sqrt(d_i).

    Entries that land exactly on the threshold map to zero and leave the
    support.
    """
    _check_eta(eta)
    nodes, vals = w.arrays()
    keep, shrunk = _soft_threshold(g, p, nodes, vals, eta)
    return SparseVector.from_arrays(nodes[keep], shrunk)


def forward_map(g: Graph, p: ProblemParams, x: SparseVector, eta: float = 1.0) -> SparseVector:
    """u(x) = x - eta * grad f(x)."""
    cand, xc, grad = _gradient_at(g, p, x)
    return SparseVector.from_arrays(cand, xc - eta * grad)


def _sum_in_order(terms: np.ndarray) -> float:
    """0.0 + terms[0] + terms[1] + ..., added left to right; np.sum and the
    builtin sum group the additions differently."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def objective_value(g: Graph, p: ProblemParams, x: SparseVector) -> float:
    """Composite value F(x); F(0) is exactly 0.

    The quadratic and l1 terms are each summed over supp(x) in ascending node
    order.
    """
    cand, xc, qx, at, _ = _gather_at(g, p, x)
    xs = xc[at]
    quad = _sum_in_order(xs * (0.5 * qx[at]))
    l1 = _sum_in_order(g.sqrt_degrees[cand[at]] * np.abs(xs))
    seed_term = p.alpha * float(g.inv_sqrt_degrees[p.seed])
    return quad - seed_term * x[p.seed] + p.reg_level * l1


def kkt_residual(g: Graph, p: ProblemParams, x: SparseVector, eta: float = 1.0) -> float:
    """Fixed-point residual ||x - prox(x - eta grad f(x))||_inf.

    Zero exactly at the minimizer; used as the stopping criterion.
    """
    cand, xc, grad = _gradient_at(g, p, x)
    _check_eta(eta)
    keep, shrunk = _soft_threshold(g, p, cand, xc - eta * grad, eta)
    # the candidates cover supp(x) and supp(T(x)); both are 0 elsewhere
    t = np.zeros(cand.size)
    t[keep] = shrunk
    return float(np.max(np.abs(xc - t)))
