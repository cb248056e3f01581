"""The fused proximal-gradient step kernel (numpy).

The kernel computes one step from a point z:

    u_i = z_i - eta * grad_i f(z)        on candidates supp(z) + N(supp(z)) + {v}
    x_i = soft_threshold(u_i, eta * c * alpha * rho * sqrt(d_i))

reading adjacency rows only for nodes in supp(z), i.e. cost O(vol(supp(z))).

It is the gather core and the soft threshold shared with the objective
functions (:func:`l1ppr.objective._gather` finds the candidates and
accumulates (Qz) at them; :func:`l1ppr.objective._soft_threshold` shrinks),
so it equals ``prox(forward_map(z))`` bit for bit. It keeps the O(vol) bound
in wall clock too: it never touches an n-length array except at candidate
positions, using a caller-owned int64 position scratch of length n that may
hold anything on entry. ``tests/reference.py`` holds the dict-based
reference it is checked against.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .objective import ProblemParams, _gather, _soft_threshold

__all__ = ["active_backend", "prox_grad_step"]


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def prox_grad_step(
    g: Graph,
    p: ProblemParams,
    z_dense: np.ndarray,
    z_act: np.ndarray,
    eta: float,
    out_dense: np.ndarray,
    pos_scratch: np.ndarray,
) -> np.ndarray:
    """One fused prox-gradient step from the point held in (z_dense, z_act).

    ``out_dense`` must be all zeros on entry; on return its entries at the
    returned (sorted) index array hold the new point and everything else is
    still zero. ``pos_scratch`` is an int64 array of length ``g.n`` whose
    contents are ignored on entry and left undefined on return.
    """
    cand, zc, grad = _gather(g, p, z_dense, z_act, pos_scratch)
    grad[pos_scratch[p.seed]] -= p.alpha * g.inv_sqrt_degrees[p.seed]
    keep, vals = _soft_threshold(g, p, cand, zc - eta * grad, eta)
    out_act = cand[keep]
    out_dense[out_act] = vals
    return out_act
