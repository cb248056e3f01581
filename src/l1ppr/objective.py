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
reads the adjacency rows of supp(x) only and returns a frame of node ids that
holds the candidates supp(x) + N(supp(x)) + {v}, with (Qx) at each id of it,
so every one of these costs O(vol(supp(x))). Its accumulation order is fixed
(sources in ascending node order, CSR row order within a source). ``prox``,
the step and FISTA's step from the forward maps in ``l1ppr.solver`` share
one weighted soft threshold, ``_soft_threshold``, and ``kkt_residual`` is
the residual the step returns. The threshold returns the shrunk frame, the
shrunk value at every entry it is given and a signed zero at each it drops,
and its callers take the values that survive from it by its mask. The step
takes x on its frame from that one, so it fills no zero array, and forms
its residual in place in it. The dict-based implementations these functions
replaced live on in ``tests/reference.py``, and the tests check the two bit
for bit.

Points enter and leave as their (sorted nodes, values) arrays; nothing is
held in an array of length n. The core keeps one thing per graph (weakly,
so it goes with the graph), known to ``_gather`` alone: the plan of the
last support it read, the frame and the edge-aligned bins and weights
that depend on the seed and the support only.

A build frames the candidates in one of two ways. When the largest candidate
id, top, is below the number of row entries the build reads, the frame is
the whole id span [0, top] and a row entry's bin is its node id. An id of
the span that is no candidate gets no term, so the point, (Qz) and the
forward map are +0.0 there, and the threshold drops it, as every node has
degree at least one. Otherwise the frame is the candidates alone, and a
bin is the node's position among them, found by one sorted search of the
support, the rows read and the seed. Either frame is no longer than the
read, and every bin gets the same terms in the same order, so the two give
the same bits. The zero point reads no row; its frame is the seed alone.
A call at the seed and support of the previous one, which is most steps of
a solve once its support settles, reuses the plan: it reads no adjacency
row, and does the same products and the same per-bin sums in edge order as
a call that builds the plan.

A support a step returns may be the plan's read-only copy of its input
support: it is, exactly when the step leaves the support unchanged. A call
given that very array at the plan's seed finds the plan by identity, without
building a key from the support's bytes; any other array, such as a caller's
writable one, is compared by its bytes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .graph import Graph, _as_ids, _check_nodes, _distinct, _find, _is_int, _rows, _union

__all__ = [
    "SparseVector",
    "SettingError",
    "REG_FACTORS",
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

    Every vector is built by :meth:`from_arrays` from a one-dimensional
    array of distinct, non-negative integer nodes in any order and an array
    of as many values; anything else raises ValueError. ``SparseVector(m)``
    is ``from_arrays(list(m), list(m.values()))`` for a mapping ``m``.
    Values that are exact 0.0 are dropped; there is no epsilon pruning
    anywhere (dropping small-but-nonzero entries would silently change
    support volumes, and those are the measured quantity).
    """

    __slots__ = ("_nodes", "_values")

    def __init__(self, data: Mapping[int, float] | None = None):
        data = {} if data is None else data
        self._set(list(data), list(data.values()))

    def _set(self, nodes, values) -> None:
        nodes = _as_ids(nodes)
        values = np.asarray(values, dtype=np.float64)
        if nodes.ndim != 1 or values.shape != nodes.shape:
            raise ValueError(f"nodes must be one-dimensional with one value each, "
                             f"got shapes {nodes.shape} and {values.shape}")
        order = np.argsort(nodes)
        nodes, values = nodes[order], values[order]  # copies: the caller keeps its arrays
        dup = nodes[1:] == nodes[:-1]
        if dup.any():
            raise ValueError(f"duplicate node {int(nodes[1:][dup][0])}")
        keep = values != 0.0
        nodes, values = nodes[keep], values[keep]
        nodes.setflags(write=False)
        values.setflags(write=False)
        self._nodes, self._values = nodes, values

    @classmethod
    def from_arrays(cls, nodes: np.ndarray, values: np.ndarray) -> "SparseVector":
        """Vector with ``values[t]`` at ``nodes[t]`` (distinct integer nodes,
        in any order); exact zeros are dropped."""
        out = cls.__new__(cls)
        out._set(nodes, values)
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

    def max_abs_diff(self, other: "SparseVector") -> float:
        nodes = _union(self._nodes, other._nodes)
        return float(np.max(np.abs(self.values_at(nodes) - other.values_at(nodes)), initial=0.0))


# the penalty multipliers c of the paper: the base problem and the doubled one
REG_FACTORS = (1, 2)


class SettingError(ValueError):
    """A setting no run can use. ``fields`` names the settings at fault, the
    likeliest first, so a caller can point at where they were set."""

    def __init__(self, message: str, *fields: str) -> None:
        super().__init__(message)
        self.fields = fields


def _check_ints(settings, *names: str) -> None:
    """Raise SettingError naming the first of the fields ``names`` of
    ``settings`` whose value is not an integer."""
    for name in names:
        if not _is_int(getattr(settings, name)):
            raise SettingError(f"{name} must be an integer, got {getattr(settings, name)!r}", name)


def _check_alpha(alpha: float) -> None:
    """Raise SettingError unless the teleportation ``alpha`` lies in (0, 1]."""
    if not (0.0 < alpha <= 1.0):
        raise SettingError(f"alpha must lie in (0, 1], got {alpha}", "alpha")


def _check_rho(rho: float) -> None:
    """Raise SettingError unless the penalty ``rho`` is positive (nan is not)."""
    if not rho > 0.0:
        raise SettingError(f"rho must be positive, got {rho}", "rho")


@dataclass(frozen=True)
class ProblemParams:
    """Problem instance parameters: teleportation, regularization, seed."""

    alpha: float
    rho: float
    seed: int
    reg_factor: int = 1

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        _check_rho(self.rho)
        _check_ints(self, "seed", "reg_factor")
        if self.seed < 0:
            raise SettingError(f"seed node must be non-negative, got {self.seed}", "seed")
        if self.reg_factor not in REG_FACTORS:
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


class _Plan(NamedTuple):
    """What the gather core derives from the graph, the seed and the support
    ``act`` alone: its own copy of ``act``, D^{-1/2} at ``act`` and its row
    lengths, then per entry of those rows, in edge order, the bin of its node
    and D^{-1/2} at it, then the frame, sqrt(d) at each id of it, which of
    them are in ``act``, and the positions of ``act`` and of the seed in it.
    Its arrays are read-only.

    A build frames the candidates in one of two ways, and every bin gets the
    same terms in the same order either way. When the largest candidate id,
    top, is below the number of row entries the build reads, the frame is
    the id span [0, top], no longer than those rows, and a bin is the node
    id itself. Otherwise the frame is the candidates, and a bin is the
    node's position among them, found by one sorted search, so a support
    whose neighbors reach ids far above its volume costs no more than that
    volume."""

    key: tuple  # (seed, len(act), act.tobytes())
    act: np.ndarray
    isd_act: np.ndarray
    lens: np.ndarray
    bins: np.ndarray
    isd_nbrs: np.ndarray
    cand: np.ndarray
    sqrt_cand: np.ndarray
    in_act: np.ndarray
    act_pos: np.ndarray
    at_seed: int


# The plan of the last support each graph's gather core read. A call reads
# it once into a local, and a plan is never changed, only replaced, so
# overlapping calls on one graph each see a whole one.
_PLANS: weakref.WeakKeyDictionary[Graph, _Plan] = weakref.WeakKeyDictionary()


def _build_plan(g: Graph, seed: int, act: np.ndarray, key: tuple) -> _Plan:
    # only a build checks the ids: a call that finds a plan has the seed and
    # support of one this graph built, and so checked
    _check_nodes(g.n, (seed,), "seed node")
    _check_nodes(g.n, act)
    isd = g.inv_sqrt_degrees
    nbrs, lens = _rows(g, act)
    # the largest candidate id; the rows' largest, each one's last entry,
    # are searched only when the seed and the support's last node are below
    # the count of entries read
    top = max(seed, int(act[-1])) if act.size else seed
    if top < nbrs.size:
        top = max(top, int(g.neighbors[g.row_offsets[act + 1] - 1].max()))
    own = act.astype(np.int64)  # a copy: the caller's array stays writable
    if top < nbrs.size:
        # bin by node id over the frame of the whole id span [0, top], no
        # longer than the rows read; an id that is no candidate gets no term
        cand, bins, act_pos, at_seed = np.arange(top + 1), nbrs, own, seed
        sqrt_cand = g.sqrt_degrees[:top + 1]
    else:
        # bin by position among the candidates, found by one sorted search
        # of act, the rows read and the seed
        idx = np.concatenate((act, nbrs, np.array([seed], dtype=np.int64)))
        cand = _distinct(idx)
        at = np.searchsorted(cand, idx)
        act_pos, bins, at_seed = at[:act.size], at[act.size:-1], int(at[-1])
        sqrt_cand = g.sqrt_degrees[cand]
    in_act = np.zeros(cand.size, dtype=bool)
    in_act[act_pos] = True
    arrays = (own, isd[act], lens, bins, isd[nbrs], cand, sqrt_cand, in_act, act_pos)
    for a in arrays:
        a.setflags(write=False)
    return _Plan(key, *arrays, at_seed)


def _gather(g: Graph, p: ProblemParams, act: np.ndarray, vals: np.ndarray) -> tuple:
    """Gather core: the plan of the support ``act``, the point on its frame
    and (Qz) there.

    The point z is ``vals`` at the sorted, distinct nodes ``act`` and zero
    elsewhere. The frame holds the candidates, ``act``, its neighbors and
    the seed, in ascending order; only the rows of ``act`` are read, and only
    when the graph's plan is for another seed or support. ``act`` that is
    the plan's own array, as a step returns on an unchanged support, finds
    the plan without building a key.
    """
    plan = _PLANS.get(g)
    if plan is None or act is not plan.act or plan.key[0] != p.seed:
        key = (p.seed, act.size, act.tobytes())  # the size tells int widths apart
        if plan is None or plan.key != key:
            plan = None
            _PLANS.pop(g, None)  # so that two plans never coexist
            plan = _PLANS[g] = _build_plan(g, p.seed, act, key)
    weights = (vals * plan.isd_act).repeat(plan.lens)
    weights *= plan.isd_nbrs
    # bincount adds in edge order: sources ascending, CSR order within a row
    sums = np.bincount(plan.bins, weights=weights, minlength=plan.cand.size)
    zc = np.zeros(plan.cand.size)
    zc[plan.act_pos] = vals
    qz = p.hp * zc
    qz -= p.hm * sums
    return plan, zc, qz


def _gradient_at(g: Graph, p: ProblemParams, act: np.ndarray, vals: np.ndarray) -> tuple:
    """The plan of the point z (``vals`` at ``act``), z on its frame and
    grad f(z) = Qz - alpha D^{-1/2} e_v there."""
    plan, zc, grad = _gather(g, p, act, vals)
    grad[plan.at_seed] -= p.alpha * g.inv_sqrt_degrees[p.seed]
    return plan, zc, grad


def _soft_threshold(p: ProblemParams, sqrt_deg: np.ndarray, u: np.ndarray) -> tuple:
    """Weighted soft threshold of the values ``u`` at nodes whose sqrt(d_i)
    are ``sqrt_deg``: shrink each by c*alpha*rho*sqrt(d_i). Returns the mask
    of entries that survive (an entry exactly on its threshold does not, nor
    does a nan) and the shrunk frame, a new array as long as ``u``: the
    shrunk value at each entry that survives and +0.0 or -0.0 at each other.
    Callers take the values that survive as ``frame[keep]``.

    The frame is ``sign(u) * (|u| - t)`` bit for bit where the mask holds,
    as ``copysign(|u| - t, u)``: ``|u| - t > 0`` exactly when ``|u| > t``,
    since IEEE subtraction underflows gradually, and ``fmax`` sends the
    difference of a dropped entry, nan included, to zero."""
    over = np.abs(u)
    over -= p.reg_level * sqrt_deg
    return over > 0.0, np.copysign(np.fmax(over, 0.0), u)


def prox_grad_step(
    g: Graph,
    p: ProblemParams,
    z_vals: np.ndarray,
    z_act: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray, np.ndarray, np.ndarray]:
    """One fused prox-gradient step from the point z that is ``z_vals`` at
    the sorted, distinct nodes ``z_act``: x = prox(z - grad f(z)), the unit
    step 1/L, equal to ``prox(forward_map(z))`` bit for bit.

    Returns the sorted support of x, the values on it, the fixed-point
    residual ||z - x||_inf, which is ``kkt_residual`` at z, and the frame of
    z the step worked in: the gather plan's read-only array of ids, z at
    each (``z_vals`` at ``z_act``, +0.0 at every other id) and the forward
    map u(z) = z - grad f(z) that the step thresholded, ``forward_map`` at z
    bit for bit with its zeros kept. The frame, the candidates
    supp(z) + N(supp(z)) + {v} or the id span [0, top] that holds them,
    covers supp(z) and supp(x). When supp(x) equals supp(z), the support
    returned is the plan's read-only copy of ``z_act``, and a step from it
    finds the plan by identity.

    x on the frame is the soft threshold's frame itself, with a signed
    zero at each dropped entry, so the step fills no zero array and
    scatters nothing; once the values on supp(x) are taken from it, the
    residual is formed in place in it.
    """
    plan, zc, grad = _gradient_at(g, p, z_act, z_vals)
    u = zc - grad
    keep, x = _soft_threshold(p, plan.sqrt_cand, u)
    vals = x[keep]
    # comparing the masks' bytes costs less than np.array_equal on short ones
    act = plan.act if keep.tobytes() == plan.in_act.tobytes() else plan.cand[keep]
    # the frame covers supp(z) and supp(x); both are 0 elsewhere, and
    # |z - x| takes no sign from x's signed zeros
    np.subtract(zc, x, out=x)
    return act, vals, float(np.abs(x, out=x).max()), plan.cand, zc, u


def gradient(g: Graph, p: ProblemParams, x: SparseVector) -> SparseVector:
    """grad f at x; support is contained in supp(x), its neighbors, and {v}."""
    plan, _, grad = _gradient_at(g, p, *x.arrays())
    return SparseVector.from_arrays(plan.cand, grad)


def prox(g: Graph, p: ProblemParams, w: SparseVector) -> SparseVector:
    """Weighted soft threshold: shrink each entry by c*alpha*rho*sqrt(d_i).

    Entries that land exactly on the threshold map to zero and leave the
    support.
    """
    nodes, vals = w.arrays()
    _check_nodes(g.n, nodes)
    keep, shrunk = _soft_threshold(p, g.sqrt_degrees[nodes], vals)
    return SparseVector.from_arrays(nodes[keep], shrunk[keep])


def forward_map(g: Graph, p: ProblemParams, x: SparseVector) -> SparseVector:
    """u(x) = x - grad f(x), the gradient step at the unit step 1/L."""
    plan, xc, grad = _gradient_at(g, p, *x.arrays())
    return SparseVector.from_arrays(plan.cand, xc - grad)


def _sum_in_order(terms: np.ndarray) -> float:
    """0.0 + terms[0] + terms[1] + ..., added left to right; np.sum and the
    builtin sum group the additions differently."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def objective_value(g: Graph, p: ProblemParams, x: SparseVector) -> float:
    """Composite value F(x); F(0) is exactly 0.

    The quadratic and l1 terms are each summed over supp(x) in ascending node
    order.
    """
    plan, xc, qx = _gather(g, p, *x.arrays())
    at = np.flatnonzero(xc)  # supp(x): its values are never zero
    xs = xc[at]
    quad = _sum_in_order(xs * (0.5 * qx[at]))
    l1 = _sum_in_order(plan.sqrt_cand[at] * np.abs(xs))
    seed_term = p.alpha * float(g.inv_sqrt_degrees[p.seed])
    return quad - seed_term * float(xc[plan.at_seed]) + p.reg_level * l1


def kkt_residual(g: Graph, p: ProblemParams, x: SparseVector) -> float:
    """Fixed-point residual ||x - prox(x - grad f(x))||_inf.

    Zero exactly at the minimizer; used as the stopping criterion.
    """
    act, vals = x.arrays()
    return prox_grad_step(g, p, vals, act)[2]
