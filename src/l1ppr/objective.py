"""Seeded, degree-weighted l1-regularized PageRank objective.

The composite objective solved throughout the library is

    F(x) = f(x) + c * alpha * rho * sum_i sqrt(d_i) |x_i|,
    f(x) = 0.5 <x, Q x> - alpha <D^{-1/2} e_v, x>,
    Q    = ((1+alpha)/2) I - ((1-alpha)/2) D^{-1/2} A D^{-1/2},

with seed node v and regularization factor c in {1, 2} (c=2 doubles every
soft threshold; nothing else changes). Q has its spectrum inside
[alpha, 1], so f is alpha-strongly convex and 1-smooth.

All operations here touch adjacency rows only for nodes in the support of
their input, so their cost is proportional to vol(supp(x)). Accumulation
order is fixed (sources in ascending node order, CSR row order within a
source) and the hot kernels in :mod:`l1ppr.kernels` replicate it exactly, so
the two paths agree bit for bit.
"""

from __future__ import annotations

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
        return cls(zip(nz.tolist(), arr[nz].tolist()))

    def support(self) -> np.ndarray:
        """Sorted int64 array of nodes with nonzero value."""
        return np.array(sorted(self._d), dtype=np.int64)

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


def _neighbor_sums(g: Graph, x: SparseVector) -> dict[int, float]:
    """acc[i] = sum over supported j ~ i of x_j / sqrt(d_i d_j).

    Sources are scanned in ascending node order and each row in CSR order,
    which fixes the floating-point accumulation order.
    """
    isd = g.inv_sqrt_degrees
    acc: dict[int, float] = {}
    for j, xj in x.items():
        push = xj * isd[j]
        for i in map(int, g.neighbors_of(j)):
            acc[i] = acc.get(i, 0.0) + push * isd[i]
    return acc


def gradient(g: Graph, p: ProblemParams, x: SparseVector) -> SparseVector:
    """grad f at x; support is contained in supp(x), its neighbors, and {v}."""
    _check_seed(g, p)
    acc = _neighbor_sums(g, x)
    hp, hm = p.hp, p.hm
    seed_term = p.alpha * float(g.inv_sqrt_degrees[p.seed])
    touched = set(acc)
    touched.update(int(i) for i in x.support())
    touched.add(p.seed)
    out: dict[int, float] = {}
    for i in touched:
        gval = hp * x[i] - hm * acc.get(i, 0.0)
        if i == p.seed:
            gval = gval - seed_term
        if gval != 0.0:
            out[i] = gval
    return SparseVector(out)


def prox(g: Graph, p: ProblemParams, w: SparseVector, eta: float = 1.0) -> SparseVector:
    """Weighted soft threshold: shrink each entry by eta*c*alpha*rho*sqrt(d_i).

    Entries that land exactly on the threshold map to zero and leave the
    support.
    """
    if not eta > 0.0:
        raise ValueError(f"step size eta must be positive, got {eta}")
    sd = g.sqrt_degrees
    tau = eta * p.reg_level
    out: dict[int, float] = {}
    for i, wi in w.items():
        t = tau * float(sd[i])
        a = abs(wi)
        if a > t:
            s = 1.0 if wi > 0.0 else -1.0
            out[i] = s * (a - t)
    return SparseVector(out)


def forward_map(g: Graph, p: ProblemParams, x: SparseVector, eta: float = 1.0) -> SparseVector:
    """u(x) = x - eta * grad f(x)."""
    gr = gradient(g, p, x)
    out: dict[int, float] = {}
    keys = {int(i) for i in x.support()} | {int(i) for i in gr.support()}
    for i in keys:
        ui = x[i] - eta * gr[i]
        if ui != 0.0:
            out[i] = ui
    return SparseVector(out)


def objective_value(g: Graph, p: ProblemParams, x: SparseVector) -> float:
    """Composite value F(x); F(0) is exactly 0."""
    _check_seed(g, p)
    acc = _neighbor_sums(g, x)
    hp, hm = p.hp, p.hm
    sd = g.sqrt_degrees
    quad = 0.0
    l1 = 0.0
    for i, xi in x.items():
        qx_i = hp * xi - hm * acc.get(i, 0.0)
        quad += xi * (0.5 * qx_i)
        l1 += float(sd[i]) * abs(xi)
    seed_term = p.alpha * float(g.inv_sqrt_degrees[p.seed])
    return quad - seed_term * x[p.seed] + p.reg_level * l1


def kkt_residual(g: Graph, p: ProblemParams, x: SparseVector, eta: float = 1.0) -> float:
    """Fixed-point residual ||x - prox(x - eta grad f(x))||_inf.

    Zero exactly at the minimizer; used as the stopping criterion.
    """
    t = prox(g, p, forward_map(g, p, x, eta), eta)
    r = 0.0
    for i in {int(i) for i in x.support()} | {int(i) for i in t.support()}:
        r = max(r, abs(x[i] - t[i]))
    return r
