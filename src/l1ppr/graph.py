"""Immutable undirected graphs in CSR form, with set and boundary primitives.

The package reads adjacency through ``_rows``, which gathers the rows of a
whole node array at once; everything downstream (gradients, boundary
computations) reads rows only for the nodes it is entitled to touch, which
keeps edge-access counts proportional to the degree volume of the sets
involved.

Set operations on node arrays go through ``_distinct`` and ``_union``, which
sort and keep the first entry of each run of equal ids. numpy 2 runs
``np.unique`` and ``np.union1d`` through a hash table and then sorts the
result, which takes several times as long on the arrays of a few dozen to a
few thousand ids the solver and the audits pass; two sorted arrays, as most
unions here take, are joined by a stable sort that merges their two runs.
Ids are integers, so either way gives the same array.

The input rules on node ids and text are stated here once, for the whole
package: ``_as_ids`` takes an array of ids (an integer dtype, every id
non-negative), ``_is_int`` a single id or count (an integer, not a bool),
``_decimal_id`` an id written in a text input (an optional sign and ASCII
digits), ``_check_nodes`` holds sorted ids to a graph's [0, n), and
``_data_lines`` picks the lines of a text input that hold data (neither
blank nor a '#' comment).
"""

from __future__ import annotations

import io
import os
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "NodeSet",
    "Graph",
    "build_from_edges",
    "parse_snap_edgelist",
    "volume",
    "vertex_boundary",
]


class NodeSet:
    """Immutable sorted set of node indices backed by an int64 array."""

    __slots__ = ("_ids",)

    def __init__(self, ids: Iterable[int] | np.ndarray = ()):
        if isinstance(ids, NodeSet):
            self._ids = ids._ids
            return
        arr = _as_ids(ids)
        if arr.ndim != 1:
            raise ValueError("node ids must form a one-dimensional sequence")
        arr = _distinct(arr)
        arr.setflags(write=False)
        self._ids = arr

    @classmethod
    def _adopt(cls, ids: np.ndarray) -> "NodeSet":
        """The set of ``ids``, a strictly increasing int64 array that no one
        else writes to, which the set takes as it is and freezes: the
        constructor's conversion, checks, sort and dedup are skipped."""
        out = cls.__new__(cls)
        ids.setflags(write=False)
        out._ids = ids
        return out

    @property
    def ids(self) -> np.ndarray:
        """Strictly increasing int64 array of members (read-only)."""
        return self._ids

    def __len__(self) -> int:
        return int(self._ids.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids.tolist())

    def __contains__(self, node: int) -> bool:
        return bool(_find(self._ids, np.array([node]))[0][0])

    def contains(self, nodes: np.ndarray) -> np.ndarray:
        """Boolean array: which entries of the int array ``nodes`` are members."""
        return _find(self._ids, nodes)[0]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NodeSet) and np.array_equal(self._ids, other._ids)

    def __repr__(self) -> str:
        inner = self._ids.tolist()
        if len(inner) > 8:
            inner = inner[:8] + ["..."]
        return f"NodeSet({inner})"

    def union(self, other: "NodeSet") -> "NodeSet":
        return NodeSet._adopt(_union(self._ids, other._ids))

    def issubset(self, other: "NodeSet") -> bool:
        return bool(other.contains(self._ids).all())


def _as_ids(ids) -> np.ndarray:
    """The node ids ``ids``, an array or any iterable, as an int64 array.
    Raises ValueError unless they have an integer dtype (bools and floats are
    not truncated to ids) and lie in [0, 2**63 - 1]; an empty input is
    allowed, whatever its dtype."""
    arr = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids))
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"node ids must be integers, got dtype {arr.dtype}")
    out = arr.astype(np.int64, copy=False)  # a uint64 id past int64 wraps below zero
    if out.size and int(out.min()) < 0:
        raise ValueError("node ids must be non-negative and fit in int64")
    return out


def _is_int(x) -> bool:
    """Whether the scalar ``x`` is an integer, a bool not counted: the rule
    ``_as_ids`` applies to the dtype of an array."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _decimal_id(text: str) -> int:
    """The integer that ``text`` writes as an optional sign and ASCII
    digits, blanks around them allowed: the ids ``np.loadtxt`` reads. Raises
    ValueError on anything else, including what ``int()`` alone would take,
    such as ``1_0`` or an Arabic-Indic digit. The sign is read, so a
    negative id is left to the range checks."""
    digits = text.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _check_nodes(n: int, ids, what: str = "node") -> None:
    """Raise ValueError unless the ascending ids ``ids`` (a sequence) lie in
    [0, n), the nodes of a graph with ``n`` nodes."""
    if len(ids) and not (0 <= ids[0] and ids[-1] < n):
        raise ValueError(f"{what} {int(ids[0] if ids[0] < 0 else ids[-1])} out of range for graph with n={n}")


def _find(ids: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Look up the array ``nodes`` in the strictly increasing array ``ids``:
    a mask of the nodes found, and positions ``j`` with ``ids[j] == nodes``
    where the mask holds."""
    j = np.searchsorted(ids, nodes)
    found = j < ids.size
    found[found] = ids[j[found]] == nodes[found]
    return found, j


def _distinct(arr: np.ndarray) -> np.ndarray:
    """The distinct entries of the int array ``arr`` in ascending order, as
    a new array: ``np.unique(arr)`` by a sort in place of a hash table."""
    return _first_of_runs(np.sort(arr))


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distinct entries of the int arrays ``a`` and ``b`` in ascending
    order, as a new array: ``np.union1d(a, b)``. A stable sort merges the
    runs it finds, so two sorted inputs cost a merge."""
    both = np.concatenate((a, b))
    both.sort(kind="stable")
    return _first_of_runs(both)


def _first_of_runs(s: np.ndarray) -> np.ndarray:
    """The first entry of each run of equal entries of the sorted array ``s``."""
    if s.size < 2:
        return s
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph in compressed sparse row form.

    Invariants (enforced at construction): neighbor lists sorted ascending,
    symmetric adjacency, no self-loops or duplicate edges, and every node has
    degree at least one.
    """

    n: int
    row_offsets: np.ndarray   # int64, length n+1
    neighbors: np.ndarray     # int64, concatenated sorted rows
    degrees: np.ndarray       # int64, degrees[i] == row span length
    sqrt_degrees: np.ndarray      # float64, sqrt(d_i)
    inv_sqrt_degrees: np.ndarray  # float64, 1/sqrt(d_i)

    @property
    def edge_count(self) -> int:
        return int(self.neighbors.size) // 2

    def equals(self, other: "Graph") -> bool:
        return (
            self.n == other.n
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.neighbors, other.neighbors)
        )

    def edge_array(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Each undirected edge once, as the row (u, v) with u < v of an int64
        (m, 2) array, in sorted order. With ``lo`` and ``hi``, only the edges
        whose u lies in the rows [lo, hi); the pieces of consecutive row
        ranges join to the whole array."""
        hi = self.n if hi is None else hi
        offsets = self.row_offsets[lo:hi + 1]
        src = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(offsets))
        nbr = self.neighbors[offsets[0]:offsets[-1]]
        keep = src < nbr
        return np.stack((src[keep], nbr[keep]), axis=1)


_MAX_ID = np.iinfo(np.int64).max


def build_from_edges(
    edge_list: Iterable[tuple[int, int]] | np.ndarray,
) -> tuple[Graph, np.ndarray]:
    """Build a graph from raw (u, v) pairs: an (m, 2) array or a list of
    pairs; any other nonempty shape raises ``ValueError``.

    Input pairs may repeat, appear in either orientation, or be self-loops;
    duplicates and self-loops are dropped and the edge set is symmetrized.
    Nodes that end up with zero degree do not get an index: node ids are
    compacted, and the returned int64 array maps each compact id back to the
    original id (``remap[new] == original``).

    The caller's array is read, never written, and no returned array shares
    its memory. A build skips each copy that would drop nothing: the pairs
    are copied only when there is a self-loop, the ids are ranked only when
    those in ``[0, max]`` have a gap, and the sorted key is gathered only
    when a pair repeats. The key, one int64 per directed pair, is filled in
    place and becomes ``neighbors``, and the degrees are counted from the
    ids. So beside the input and the output a build holds one byte per
    pair (the repeat test) and a few arrays of one entry per node, no
    edge-length int64 scratch; ids that have to be ranked, as a SNAP file's
    sparse ids are, are held once more as int64 ranks.
    """
    arr = _as_ids(edge_list)
    if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
        raise ValueError(f"edges must be (u, v) pairs of shape (m, 2), got shape {arr.shape}")
    arr = arr.reshape(-1, 2)
    if (arr[:, 0] == arr[:, 1]).any():
        arr = arr[arr[:, 0] != arr[:, 1]]
    if arr.size == 0:
        raise ValueError("empty graph")
    ids = arr.ravel()
    del arr
    top = int(ids.max())
    if top < ids.size:
        # every `gen` file's ids are dense in [0, n): compact them by
        # presence, in an array no longer than the input, and only if an id
        # below the largest is missing
        seen = np.zeros(top + 1, dtype=bool)
        seen[ids] = True
        present = np.flatnonzero(seen)
        if present.size <= top:
            rank = np.cumsum(seen, dtype=np.int64)
            rank -= 1
            ids = rank[ids]
            del rank
        del seen
    else:
        # sparse ids, as SNAP files have: rank each by a search of the
        # sorted distinct ids, which holds no inverse or permutation
        present = _distinct(ids)
        ids = np.searchsorted(present, ids)
    n = int(present.size)
    if n > _MAX_ID // n:
        raise ValueError(f"{n} distinct nodes overflow the int64 edge key")
    # each id once per directed pair it starts, so its degree unless a pair repeats
    degrees = np.bincount(ids, minlength=n).astype(np.int64, copy=False)
    # One int64 key per directed pair, sorted: rows in order, each row's
    # neighbors ascending. A plain sort beats np.unique on this key.
    cu, cv = ids.reshape(-1, 2).T
    key = np.empty(ids.size, dtype=np.int64)
    fwd, rev = key.reshape(2, -1)  # its halves: the pairs as given, reversed
    np.multiply(cu, n, out=fwd)
    fwd += cv
    np.multiply(cv, n, out=rev)
    rev += cu
    del cu, cv, ids, fwd, rev
    key.sort()
    if (key[1:] == key[:-1]).any():
        key = _first_of_runs(key)
        degrees = np.bincount(key // n, minlength=n).astype(np.int64, copy=False)
    neighbors = np.remainder(key, n, out=key)
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_offsets[1:])
    sqrt_degrees = np.sqrt(degrees.astype(np.float64))
    inv_sqrt_degrees = 1.0 / sqrt_degrees
    for a in (row_offsets, neighbors, degrees, sqrt_degrees, inv_sqrt_degrees, present):
        a.setflags(write=False)
    return Graph(n, row_offsets, neighbors, degrees, sqrt_degrees, inv_sqrt_degrees), present


def parse_snap_edgelist(
    path: str | os.PathLike, max_nodes: int | None = None
) -> tuple[Graph, np.ndarray]:
    """Parse the whitespace-separated edge list in the UTF-8 file at ``path``
    ('#' lines are comments). Returns the compacted graph together with the
    compact-to-original id map, so results can be reported in the file's own
    node numbering.

    With ``max_nodes`` set, only the first ``max_nodes`` distinct node ids in
    file order (``u`` before ``v`` within a line) are kept, and edges touching
    any other id are dropped. Every line is still checked.

    ``np.loadtxt`` parses the file, reading it in blocks, about twice as fast
    as line by line. The line scan decides instead, with its errors and line
    numbers, whenever the two could disagree: a ``#`` inside a line that is
    not a comment, a ``loadtxt`` error or warning, or a result that is not a
    nonempty two-column array of non-negative ids.
    """
    if max_nodes is not None and not _is_int(max_nodes):
        raise ValueError(f"max_nodes must be an integer, got {max_nodes!r}")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    edges = _loadtxt_edges(text, path)
    if edges is None:
        edges = _scan_edges(io.StringIO(text))
    del text  # the cut and the build read the edges alone
    if max_nodes is not None:
        ids, first = np.unique(edges.ravel(), return_index=True)
        kept = ids[np.argsort(first)[: max(max_nodes, 0)]]
        edges = edges[np.isin(edges, kept).all(axis=1)]
    return build_from_edges(edges)


def _loadtxt_edges(text: str, path: str | os.PathLike) -> np.ndarray | None:
    """The (u, v) rows of ``text``, read by ``np.loadtxt`` from the file at
    ``path`` (which holds the same text), or None where the line scan has to
    decide."""
    if _has_inline_comment(text):
        return None  # loadtxt would keep the part of the line before the '#'
    try:
        with warnings.catch_warnings():
            # numpy 1.2x only warns on a token such as 1.0, and truncates it
            warnings.simplefilter("error")
            edges = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2, encoding="utf-8")
    except (ValueError, OverflowError, Warning):
        return None
    if edges.shape[1] != 2 or edges.size == 0 or int(edges.min()) < 0:
        return None
    return edges


def _has_inline_comment(text: str) -> bool:
    """Whether a line of ``text`` has a '#' that does not start it."""
    i = text.find("#")
    while i != -1:
        if i and text[i - 1] != "\n":
            return True
        end = text.find("\n", i)
        if end == -1:
            return False
        i = text.find("#", end)
    return False


def _scan_edges(lines: Iterable[str]) -> np.ndarray:
    """The (u, v) rows, one line at a time; raises on the first bad line."""
    pairs: list[tuple[int, int]] = []
    for lineno, stripped in _data_lines(lines):
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected two node ids, got {stripped!r}")
        try:
            u, v = _decimal_id(tokens[0]), _decimal_id(tokens[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer node id in {stripped!r}") from None
        if not (0 <= u <= _MAX_ID and 0 <= v <= _MAX_ID):
            raise ValueError(f"line {lineno}: node id outside [0, {_MAX_ID}] in {stripped!r}")
        pairs.append((u, v))
    if not pairs:
        raise ValueError("empty graph")
    return np.array(pairs, dtype=np.int64)


def _data_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each line of ``lines`` that is
    neither blank nor a '#' comment, numbering from 1."""
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            yield lineno, text


def volume(g: Graph, s: NodeSet) -> int:
    """Sum of degrees over ``s``."""
    _check_nodes(g.n, s.ids)
    return int(g.degrees[s.ids].sum())


def _rows(g: Graph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency rows of the int array ``nodes``, concatenated in order,
    and the length of each."""
    lens = g.degrees[nodes]
    # entry k of the output, the j-th of node i's row, reads
    # neighbors[row_offsets[i] + j], and j is k less the entries before the row
    idx = np.repeat(g.row_offsets[nodes] - np.cumsum(lens) + lens, lens)
    idx += np.arange(idx.size, dtype=np.int64)
    return g.neighbors[idx], lens


def vertex_boundary(g: Graph, s: NodeSet) -> NodeSet:
    """Nodes outside ``s`` with at least one neighbor inside it."""
    _check_nodes(g.n, s.ids)
    touched = _distinct(_rows(g, s.ids)[0])
    return NodeSet._adopt(touched[~s.contains(touched)])

