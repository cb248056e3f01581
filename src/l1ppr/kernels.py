"""Hot proximal-gradient step kernels with a numba and a pure-numpy backend.

The backend is selected by the ``L1PPR_BACKEND`` environment variable:
``numba`` (default when numba is importable), or ``numpy`` for the fallback
path. Both backends accumulate neighbor contributions in the same order
(ascending source node, CSR row order within a source), so their outputs are
bit-identical; tests assert this.

The kernel computes one fused step from a point z:

    u_i = z_i - eta * grad_i f(z)        on candidates supp(z) + N(supp(z)) + {v}
    x_i = soft_threshold(u_i, eta * c * alpha * rho * sqrt(d_i))

reading adjacency rows only for nodes in supp(z), i.e. cost O(vol(supp(z))).

The numpy backend keeps that bound in wall clock too: it never touches an
n-length array except at candidate positions. Candidates are deduplicated
through a caller-owned int64 position scratch of length n (write each
candidate's position, keep the positions that survive, sort only the distinct
nodes), and the same scratch maps each edge's target to a compact id for a
``bincount`` over the candidates alone. The scratch is always written before
it is read, so it may hold anything on entry. The numba backend does not use
the scratch; it still allocates n-length marker and accumulator arrays per
call.
"""

from __future__ import annotations

import os

import numpy as np

from .graph import Graph
from .objective import ProblemParams

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised where numba is absent
    njit = None
    HAS_NUMBA = False

BACKEND_ENV_VAR = "L1PPR_BACKEND"

__all__ = ["HAS_NUMBA", "BACKEND_ENV_VAR", "active_backend", "prox_grad_step"]


def active_backend() -> str:
    """Resolve the kernel backend from the environment ('numba' or 'numpy')."""
    choice = os.environ.get(BACKEND_ENV_VAR, "auto").strip().lower()
    if choice in ("", "auto"):
        return "numba" if HAS_NUMBA else "numpy"
    if choice == "numba":
        if not HAS_NUMBA:
            raise RuntimeError("L1PPR_BACKEND=numba but numba is not installed")
        return "numba"
    if choice == "numpy":
        return "numpy"
    raise ValueError(f"unknown {BACKEND_ENV_VAR} value {choice!r} (use 'numba' or 'numpy')")


def _step_numpy(row_offsets, neighbors, sqrt_deg, inv_sqrt_deg,
                z, act, v, seed_term, hp, hm, eta, tau, pos, out):
    lens = row_offsets[act + 1] - row_offsets[act]
    total = int(lens.sum())
    shift = np.repeat(row_offsets[act] - np.concatenate(([0], np.cumsum(lens)[:-1])), lens)
    nbrs = neighbors[np.arange(total, dtype=np.int64) + shift]
    push = z[act] * inv_sqrt_deg[act]
    weights = np.repeat(push, lens) * inv_sqrt_deg[nbrs]
    idx = np.concatenate((act, nbrs, np.array([v], dtype=np.int64)))
    # Dedup through the position scratch: exactly one position per distinct
    # node survives the scatter, whichever write lands last. Every entry read
    # back was written first, so the scratch needs no reset.
    at = np.arange(idx.size, dtype=np.int64)
    pos[idx] = at
    cand = np.sort(idx[pos[idx] == at])
    pos[cand] = np.arange(cand.size, dtype=np.int64)
    # bincount adds in edge order, the order of the reference accumulation
    sums = np.bincount(pos[nbrs], weights=weights, minlength=cand.size)
    zc = z[cand]
    gvals = hp * zc - hm * sums
    gvals[pos[v]] -= seed_term
    u = zc - eta * gvals
    thresholds = tau * sqrt_deg[cand]
    mag = np.abs(u)
    keep = mag > thresholds
    out_act = cand[keep]
    out[out_act] = np.sign(u[keep]) * (mag[keep] - thresholds[keep])
    return out_act


if HAS_NUMBA:

    @njit(cache=True)
    def _step_numba(row_offsets, neighbors, sqrt_deg, inv_sqrt_deg,
                    z, act, v, seed_term, hp, hm, eta, tau, pos, out):
        # candidates are bounded by n, so dedup with a marker array and sort
        # only the distinct nodes instead of the vol-sized edge buffer.
        # ``pos`` (the numpy backend's scratch) is unused here.
        n = sqrt_deg.shape[0]
        acc = np.zeros(n)
        seen = np.zeros(n, dtype=np.uint8)
        cand = np.empty(n, dtype=np.int64)
        m = 0
        for t in range(act.shape[0]):
            j = act[t]
            if seen[j] == 0:
                seen[j] = 1
                cand[m] = j
                m += 1
            push = z[j] * inv_sqrt_deg[j]
            for e in range(row_offsets[j], row_offsets[j + 1]):
                i = neighbors[e]
                acc[i] += push * inv_sqrt_deg[i]
                if seen[i] == 0:
                    seen[i] = 1
                    cand[m] = i
                    m += 1
        if seen[v] == 0:
            cand[m] = v
            m += 1
        uniq = np.sort(cand[:m])
        u_count = m
        out_act = np.empty(u_count, dtype=np.int64)
        n_out = 0
        for t in range(u_count):
            i = uniq[t]
            gval = hp * z[i] - hm * acc[i]
            if i == v:
                gval = gval - seed_term
            u = z[i] - eta * gval
            thr = tau * sqrt_deg[i]
            mag = abs(u)
            if mag > thr:
                sgn = 1.0 if u > 0.0 else -1.0
                out[i] = sgn * (mag - thr)
                out_act[n_out] = i
                n_out += 1
        return out_act[:n_out]


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
    seed_term = p.alpha * g.inv_sqrt_degrees[p.seed]
    tau = eta * p.reg_level
    impl = _step_numba if active_backend() == "numba" else _step_numpy
    return impl(
        g.row_offsets, g.neighbors, g.sqrt_degrees, g.inv_sqrt_degrees,
        z_dense, z_act, p.seed, seed_term, p.hp, p.hm, eta, tau,
        pos_scratch, out_dense,
    )
