"""Time ``build_from_edges`` on a 20-clique joined to a ring, and measure
what it holds beyond its result.

    python3 tests/build_scale.py 1000000 10000000 [--repeat 5] [--shift K]

For each ring size n on the command line, builds the graph of a 20-clique
joined by one edge to a cycle of n nodes from an int64 (m, 2) edge array,
the graph of the ``local_ring`` benchmark workload, and prints one line:
n, the directed entries (2m), the best and the median wall time of
``--repeat`` builds, then, from one more build under tracemalloc, its peak,
the bytes it returns (the five ``Graph`` arrays and the id map) and the
peak less those returned bytes: what the build holds at its peak beyond
the input it was given and the output it hands back, negative when the
peak comes before the last of the output is allocated. ``--shift K`` adds
K to every id; a K at least the number of directed entries, such as
10**12, sends the build down its sparse-id path, as a SNAP file's ids do.
The edge array is made before each measured build and is not counted.
The package is imported from ``src/`` of the checkout that holds this
file; to compare with a commit that lacks it, copy it and ``oracle.py``
into that checkout's ``tests/``. Not collected by pytest.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

from l1ppr import build_from_edges  # noqa: E402
from oracle import clique_ring_edges, traced  # noqa: E402


def returned_bytes(g, remap) -> int:
    arrays = (g.row_offsets, g.neighbors, g.degrees, g.sqrt_degrees, g.inv_sqrt_degrees, remap)
    return sum(a.nbytes for a in arrays)


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ring_nodes", type=int, nargs="+")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--shift", type=int, default=0, help="add this to every node id")
    args = ap.parse_args(argv)
    print(f"{'n':>10} {'entries':>10} {'best_s':>8} {'median_s':>8} "
          f"{'peak_mb':>8} {'returned_mb':>11} {'over_mb':>8}")
    for ring_nodes in args.ring_nodes:
        times = []
        for _ in range(args.repeat):
            edges = clique_ring_edges(ring_nodes, shift=args.shift)
            gc.collect()
            t0 = time.perf_counter()
            g, _ = build_from_edges(edges)
            times.append(time.perf_counter() - t0)
            del g, edges
        edges = clique_ring_edges(ring_nodes, shift=args.shift)
        peak, _, (g, remap) = traced(lambda: build_from_edges(edges))
        kept = returned_bytes(g, remap)
        print(f"{ring_nodes:>10} {2 * edges.shape[0]:>10} {min(times):>8.4f} "
              f"{statistics.median(times):>8.4f} {peak / 1e6:>8.1f} {kept / 1e6:>11.1f} "
              f"{(peak - kept) / 1e6:>8.1f}")
        del g, remap, edges


if __name__ == "__main__":
    main()
