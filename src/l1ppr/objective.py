"""Seeded, degree-weighted l1-regularized PageRank objective.

The composite objective solved throughout the library is

    F(x) = f(x) + c * alpha * rho * sum_i sqrt(d_i) |x_i|,
    f(x) = 0.5 <x, Q x> - alpha <D^{-1/2} e_v, x>,
    Q    = ((1+alpha)/2) I - ((1-alpha)/2) D^{-1/2} A D^{-1/2},

with seed node v and regularization factor c in {1, 2} (c=2 doubles every
soft threshold; nothing else changes). Q has its spectrum inside
[alpha, 1], so f is alpha-strongly convex and 1-smooth.

``gradient``, ``forward_map``, ``objective_value``, ``kkt_residual`` and the
prox-gradient step ``prox_grad_step`` share one gather core, ``_gather``: it
reads the adjacency rows of supp(x) only and returns the candidates supp(x) +
N(supp(x)) + {v} with (Qx) at each of them, so every one of these costs
O(vol(supp(x))). Its accumulation order is fixed (sources in ascending node
order, CSR row order within a source). ``prox`` and the step share one
weighted soft threshold, ``_soft_threshold``, and ``kkt_residual`` is the
residual the step returns. The dict-based
implementations these functions replaced live on in ``tests/reference.py``,
and the tests check the two bit for bit.

Points enter and leave as their (sorted nodes, values) arrays; nothing is
held in an n-length float buffer. The only n-length array is the core's int64
position scratch, kept per graph (weakly, so it goes with the graph) and
shared with :func:`l1ppr.solver.solve`. Its contents are ignored on entry, so
it is never reset.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .graph import Graph, _find, _rows

__all__ = [
    "SparseVector",
    "SettingError",
    "ProblemParams",
    "gradient",
    "prox",
    "forward_map",
    "objective_value",
    "kkt_residual",
    "prox_grad_step",
]


class SparseVector:
    """Sparse node -> value map. Entries are never exactly zero.

    Held as two read-only arrays, as :class:`l1ppr.graph.NodeSet` holds its
    ids: strictly increasing int64 nodes and the float64 values at them.
    Values that round to exact 0.0 are purged at construction; there is no
    epsilon pruning anywhere (dropping small-but-nonzero entries would
    silently change support volumes, and those are the measured quantity).
    """

    __slots__ = ("_nodes", "_values")

    def __init__(self, data: Mapping[int, float] | Iterable[tuple[int, float]] | None = None):
        # a later value for a node replaces an earlier one, unless it is zero
        d: dict[int, float] = {}
        if data is not None:
            items = data.items() if isinstance(data, Mapping) else data
            for k, val in items:
                val = float(val)
                if val != 0.0:
                    d[int(k)] = val
        self._set(np.fromiter(d, np.int64, len(d)), np.fromiter(d.values(), np.float64, len(d)))

    def _set(self, nodes: np.ndarray, values: np.ndarray) -> None:
        keep = np.flatnonzero(values != 0.0)
        keep = keep[np.argsort(nodes[keep])]
        nodes, values = nodes[keep], values[keep]  # copies: the caller keeps its arrays
        nodes.setflags(write=False)
        values.setflags(write=False)
        self._nodes, self._values = nodes, values

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> "SparseVector":
        return cls.from_arrays(np.arange(len(arr)), arr)

    @classmethod
    def from_arrays(cls, nodes: np.ndarray, values: np.ndarray) -> "SparseVector":
        """Vector with ``values[t]`` at ``nodes[t]`` (distinct nodes, in any
        order); exact zeros are dropped."""
        out = cls.__new__(cls)
        out._set(np.asarray(nodes, dtype=np.int64), np.asarray(values, dtype=np.float64))
        return out

    def support(self) -> np.ndarray:
        """Sorted int64 array of nodes with nonzero value (read-only)."""
        return self._nodes

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The support and the values on it, in ascending node order
        (read-only)."""
        return self._nodes, self._values

    def values_at(self, nodes: np.ndarray) -> np.ndarray:
        """float64 array of the values at the int array ``nodes`` (0.0 off
        the support)."""
        found, j = _find(self._nodes, nodes)
        out = np.zeros(found.size)
        out[found] = self._values[j[found]]
        return out

    def get(self, node: int, default: float = 0.0) -> float:
        found, j = _find(self._nodes, np.array([node]))
        return float(self._values[j[0]]) if found[0] else default

    __getitem__ = get

    def __contains__(self, node: int) -> bool:
        return bool(_find(self._nodes, np.array([node]))[0][0])

    def __len__(self) -> int:
        return int(self._nodes.size)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparseVector)
            and np.array_equal(self._nodes, other._nodes)
            and np.array_equal(self._values, other._values)
        )

    def __repr__(self) -> str:
        return f"SparseVector({dict(self.items())!r})"

    def items(self) -> Iterator[tuple[int, float]]:
        """(node, value) pairs in ascending node order."""
        return zip(self._nodes.tolist(), self._values.tolist())

    def to_dense(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        out[self._nodes] = self._values
        return out

    def max_abs_diff(self, other: "SparseVector") -> float:
        nodes = np.union1d(self._nodes, other._nodes)
        return float(np.max(np.abs(self.values_at(nodes) - other.values_at(nodes)), initial=0.0))


class SettingError(ValueError):
    """A setting no run can use. ``fields`` names the settings at fault, the
    likeliest first, so a caller can point at where they were set."""

    def __init__(self, message: str, *fields: str) -> None:
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class ProblemParams:
    """Problem instance parameters: teleportation, regularization, seed."""

    alpha: float
    rho: float
    seed: int
    reg_factor: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise SettingError(f"alpha must lie in (0, 1], got {self.alpha}", "alpha")
        if not self.rho > 0.0:
            raise SettingError(f"rho must be positive, got {self.rho}", "rho")
        if self.seed < 0:
            raise SettingError(f"seed node must be non-negative, got {self.seed}", "seed")
        if self.reg_factor not in (1, 2):
            raise SettingError(f"reg_factor must be 1 or 2, got {self.reg_factor}", "reg_factor")

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


# Per-graph int64 position scratch for the gather core. Its contents are
# ignored on entry, so it is never reset. A caller takes it out of the table
# while in use, so a call that overlaps another on the same graph allocates its
# own; a call that raises drops it, and the next one allocates a fresh one.
_SCRATCH: weakref.WeakKeyDictionary[Graph, np.ndarray] = weakref.WeakKeyDictionary()


@contextmanager
def _position_scratch(g: Graph) -> Iterator[np.ndarray]:
    pos = _SCRATCH.pop(g, None)
    if pos is None:
        pos = np.empty(g.n, dtype=np.int64)
    yield pos
    _SCRATCH[g] = pos


def _gather(g: Graph, p: ProblemParams, act: np.ndarray, vals: np.ndarray, pos: np.ndarray) -> tuple:
    """Gather core: the candidates, the point at them and (Qz) at them.

    The point z is ``vals`` at the sorted, distinct nodes ``act`` and zero
    elsewhere. The candidates are ``act``, its neighbors and the seed, in
    ascending order; only the rows of ``act`` are read. ``pos`` is an int64
    array of length n whose contents are ignored on entry (every entry read
    is written first); on return ``pos[i]`` is the position of candidate
    ``i``.
    """
    isd = g.inv_sqrt_degrees
    nbrs, lens = _rows(g, act)
    push = vals * isd[act]
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
    zc = np.zeros(cand.size)
    zc[pos[act]] = vals
    return cand, zc, p.hp * zc - p.hm * sums


def _soft_threshold(g: Graph, p: ProblemParams, nodes: np.ndarray, u: np.ndarray) -> tuple:
    """Weighted soft threshold of the values ``u`` at ``nodes``: shrink each
    by c*alpha*rho*sqrt(d_i). Returns the mask of entries that survive
    (an entry exactly on its threshold does not) and their shrunk values."""
    thresholds = p.reg_level * g.sqrt_degrees[nodes]
    mag = np.abs(u)
    keep = mag > thresholds
    return keep, np.sign(u[keep]) * (mag[keep] - thresholds[keep])


def prox_grad_step(
    g: Graph,
    p: ProblemParams,
    z_vals: np.ndarray,
    z_act: np.ndarray,
    pos_scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One fused prox-gradient step from the point z that is ``z_vals`` at
    the sorted, distinct nodes ``z_act``: x = prox(z - grad f(z)), the unit
    step 1/L, equal to ``prox(forward_map(z))`` bit for bit.

    Returns the sorted support of x, the values on it, and the fixed-point
    residual ||z - x||_inf, which is ``kkt_residual`` at z. ``pos_scratch``
    is an int64 array of length ``g.n`` whose contents are ignored on entry
    and left undefined on return.
    """
    cand, zc, grad = _gather(g, p, z_act, z_vals, pos_scratch)
    grad[pos_scratch[p.seed]] -= p.alpha * g.inv_sqrt_degrees[p.seed]
    keep, vals = _soft_threshold(g, p, cand, zc - grad)
    # the candidates cover supp(z) and supp(x); both are 0 elsewhere
    x = np.zeros(cand.size)
    x[keep] = vals
    return cand[keep], vals, float(np.max(np.abs(zc - x)))


def _gather_at(g: Graph, p: ProblemParams, x: SparseVector) -> tuple:
    """The gather core at x: the candidates, x and (Qx) at them, the
    positions of supp(x) and of the seed among them."""
    _check_seed(g, p)
    act, vals = x.arrays()
    with _position_scratch(g) as pos:
        cand, xc, qx = _gather(g, p, act, vals, pos)
        return cand, xc, qx, pos[act], int(pos[p.seed])


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


def prox(g: Graph, p: ProblemParams, w: SparseVector) -> SparseVector:
    """Weighted soft threshold: shrink each entry by c*alpha*rho*sqrt(d_i).

    Entries that land exactly on the threshold map to zero and leave the
    support.
    """
    nodes, vals = w.arrays()
    keep, shrunk = _soft_threshold(g, p, nodes, vals)
    return SparseVector.from_arrays(nodes[keep], shrunk)


def forward_map(g: Graph, p: ProblemParams, x: SparseVector) -> SparseVector:
    """u(x) = x - grad f(x), the gradient step at the unit step 1/L."""
    cand, xc, grad = _gradient_at(g, p, x)
    return SparseVector.from_arrays(cand, xc - grad)


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


def kkt_residual(g: Graph, p: ProblemParams, x: SparseVector) -> float:
    """Fixed-point residual ||x - prox(x - grad f(x))||_inf.

    Zero exactly at the minimizer; used as the stopping criterion.
    """
    _check_seed(g, p)
    act, vals = x.arrays()
    with _position_scratch(g) as pos:
        return prox_grad_step(g, p, vals, act, pos)[2]
