"""Hash a fixed corpus of solves, to show what a change keeps.

    python3 tests/corpus_hash.py

Solves 1,024 fixed problems and prints one line per method: its count of
solves and two SHA-256s. The "shape" hash covers what a change of rounding
alone leaves alone: every solve's iterations, convergence flag,
``total_work``, solution support, ledger and spurious-volume columns, and
the supports of its snapshots. The "bits" hash covers every bit as well: the
solution's value bytes, the residual column, the final residual and the
snapshots' values. Two checkouts that print the same line for a method solve
its part of the corpus bit for bit alike; equal shape hashes alone mean
equal trajectories up to rounding. To compare with a commit that lacks this
file, copy it and ``oracle.py`` into that checkout's ``tests/``. The
package is imported from ``src/`` of the checkout that holds this file.

The corpus: 12 random connected graphs of 5-60 nodes, 3 ``generate``
graphs and a 20-clique on a 200-node ring; on each, 2 seed nodes × α in
{0.05, 0.2, 0.5, 1} × ``reg_factor`` 1 and 2 × both methods × both trace
levels, with ρ log-uniform in [1e-5, 1e-1]. Every other solve reports
spurious volumes against a baseline set (the core of a ``generate`` graph,
otherwise a random half of the nodes). Not collected by pytest itself;
``tests/test_corpus.py`` checks its lines against the recorded ones.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

from l1ppr import NodeSet, ProblemParams, SolverConfig, SynthParams, generate, solve  # noqa: E402
from oracle import clique_ring, random_connected_graph  # noqa: E402

ALPHAS = (0.05, 0.2, 0.5, 1.0)
SYNTH = (
    SynthParams(core_size=8, boundary_size=30, exterior_size=40, c_bnd=4, deg_b=6, deg_ext=8),
    SynthParams(core_size=12, boundary_size=50, exterior_size=80, c_bnd=6, deg_b=10, deg_ext=12,
                core_density=0.6, rng_seed=3),
    SynthParams(core_size=5, boundary_size=20, exterior_size=0, c_bnd=3, deg_b=4, deg_ext=0),
)


def graphs(rng: np.random.Generator):
    """(graph, baseline set) pairs of the corpus."""
    for _ in range(12):
        g = random_connected_graph(rng, int(rng.integers(5, 61)))
        yield g, NodeSet(rng.choice(g.n, g.n // 2, replace=False))
    for params in SYNTH:
        g, part = generate(params)
        yield g, part.core
    yield clique_ring(200), NodeSet(range(20))


def lines() -> list[str]:
    """The printed lines, one per method."""
    rng = np.random.default_rng(20261018)
    digests = {method: (hashlib.sha256(), hashlib.sha256()) for method in ("ista", "fista")}
    counts = dict.fromkeys(digests, 0)
    count = 0
    for g, baseline in graphs(rng):
        seeds = rng.choice(g.n, 2, replace=False)
        for seed, alpha, reg_factor, method, level in itertools.product(
                seeds, ALPHAS, (1, 2), ("ista", "fista"), ("summary", "full")):
            p = ProblemParams(alpha, float(10.0 ** rng.uniform(-5, -1)), int(seed), reg_factor)
            cfg = SolverConfig(method=method, eps=1e-9, max_iter=5000, trace_level=level)
            sol = solve(g, p, cfg, baseline if count % 2 else None)
            t = sol.trace
            shape, bits = digests[method]
            nodes, values = sol.x.arrays()
            shape.update(repr((p, cfg, t.iterations, t.total_work, t.converged, t.spurious_total)).encode())
            for a in (nodes, t.vol_supp_y, t.vol_supp_x_next):
                shape.update(a.tobytes())
            if t.spurious_vol is not None:
                shape.update(t.spurious_vol.tobytes())
            bits.update(repr((p, cfg, t.iterations, t.total_work, t.converged,
                              t.final_residual, t.spurious_total)).encode())
            for a in (nodes, values, t.residual, t.vol_supp_y, t.vol_supp_x_next):
                bits.update(a.tobytes())
            if t.spurious_vol is not None:
                bits.update(t.spurious_vol.tobytes())
            for y_nodes, y_vals, x_nodes, x_vals in t.snapshots:
                for a in (y_nodes, x_nodes):
                    shape.update(a.tobytes())
                for a in (y_nodes, y_vals, x_nodes, x_vals):
                    bits.update(a.tobytes())
            counts[method] += 1
            count += 1
    return [f"{method} solves {counts[method]} shape {shape.hexdigest()} bits {bits.hexdigest()}"
            for method, (shape, bits) in digests.items()]


def main() -> None:
    print("\n".join(lines()))


if __name__ == "__main__":
    main()
