"""Command-line frontend.

Subcommands are thin wrappers over the library, with no numeric logic of
their own:

* ``gen``      — write a synthetic block graph as a SNAP-style edge list plus
                 a ``node,region`` partition sidecar;
* ``solve``    — run one solve on an edge-list graph and print a summary;
* ``check``    — evaluate the no-percolation condition for a core set;
* ``sweep``    — run a sweep described by a key=value spec file, write CSV;
* ``analytic`` — compare the closed-form star/path solutions and slacks
                 against the solver.

Exit codes: 0 success, 1 condition violated (check) or errored sweep runs,
2 usage/input error, 3 iteration cap hit. All floats print with 12
significant digits so outputs diff cleanly.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .diagnostics import check_no_percolation, slacks
from .graph import _MAX_ID, NodeSet, _find, volume
from .objective import ProblemParams, SettingError
from .solver import SolverConfig, solve
from .sweep import SweepSpec, _fmt, load_edgelist, log_grid, run_sweep, write_rows_csv
from .synth import SynthParams, generate, path_instance, star_instance

__all__ = ["main"]


def _fail(msg: str, code: int = 2) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _load_graph(path: str, max_nodes: int | None = None):
    try:
        return load_edgelist(path, max_nodes)
    except OSError as exc:
        raise ValueError(f"cannot read graph file: {exc}") from exc


def _map_original_ids(remap: np.ndarray, nodes: list[int], what: str) -> list[int]:
    """Translate original edge-list ids to compact graph ids (``remap`` is
    strictly increasing)."""
    # an id outside int64 becomes -1, which no graph holds
    query = np.array([node if 0 <= node <= _MAX_ID else -1 for node in nodes], dtype=np.int64)
    found, at = _find(remap, query)
    if not found.all():
        raise ValueError(f"{what} {nodes[int(np.argmin(found))]} not present in the graph")
    return at.tolist()


# rows per formatted block of an edge-list write
_WRITE_ROWS = 1 << 16


# ---------------------------------------------------------------- gen

def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        params = SynthParams(**{key: getattr(args, key) for key in _SYNTH_KEYS})
        g, part = generate(params)
    except ValueError as exc:
        return _fail(str(exc))
    partition_path = args.partition_out or args.out + ".partition.csv"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f"# synthetic block graph: nodes={g.n} edges={g.edge_count}\n")
            fh.write(
                f"# core={params.core_size} boundary={params.boundary_size} "
                f"exterior={params.exterior_size}\n"
            )
            edges = g.edge_array()
            for start in range(0, len(edges), _WRITE_ROWS):
                block = edges[start:start + _WRITE_ROWS]
                fh.write(("%d\t%d\n" * len(block)) % tuple(block.ravel().tolist()))
        with open(partition_path, "w", encoding="utf-8") as fh:
            fh.write("node,region\n")
            for name, ns in (("core", part.core), ("boundary", part.boundary), ("exterior", part.exterior)):
                for node in ns.ids.tolist():
                    fh.write(f"{node},{name}\n")
    except OSError as exc:
        return _fail(f"cannot write output: {exc}")
    print(f"wrote {g.n} nodes, {g.edge_count} edges to {args.out}")
    print(f"wrote partition to {partition_path}")
    return 0


# ---------------------------------------------------------------- solve

def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        g, remap = _load_graph(args.graph, args.max_nodes)
        (seed,) = _map_original_ids(remap, [args.seed_node], "seed node")
        p = ProblemParams(alpha=args.alpha, rho=args.rho, seed=seed, reg_factor=args.reg_factor)
        cfg = SolverConfig(method=args.method, eps=args.eps, max_iter=args.max_iter)
    except ValueError as exc:
        return _fail(str(exc))
    sol = solve(g, p, cfg)
    tr = sol.trace
    print(
        f"method={args.method} alpha={_fmt(args.alpha)} rho={_fmt(args.rho)} "
        f"reg_factor={args.reg_factor} seed={args.seed_node}"
    )
    print(f"converged={'true' if tr.converged else 'false'} iterations={tr.iterations} total_work={tr.total_work}")
    print(f"residual={_fmt(tr.final_residual)}")
    print(f"support_size={len(sol.support)} support_volume={volume(g, sol.support)}")
    try:
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write("k,vol_supp_y,vol_supp_x,work,residual,spurious_vol\n")
                # the solve has no baseline, so the spurious column stays empty
                for k, (vy, vx, r) in enumerate(zip(tr.vol_supp_y, tr.vol_supp_x_next, tr.residual)):
                    fh.write(f"{k},{vy},{vx},{vy + vx},{_fmt(r)},\n")
        if args.solution_out:
            with open(args.solution_out, "w", encoding="utf-8") as fh:
                fh.write("node,value\n")
                for i, xi in sol.x.items():
                    fh.write(f"{remap[i]},{_fmt(xi)}\n")
    except OSError as exc:
        return _fail(f"cannot write output: {exc}")
    return 0 if tr.converged else 3


# ---------------------------------------------------------------- check

def _read_core_set(path: str) -> list[int]:
    """Node ids, one per line; also accepts a node,region partition CSV
    (keeps the rows labeled core)."""
    nodes: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#") or line == "node,region":
                continue
            node_s = line
            if "," in line:
                node_s, region = line.split(",", 1)
                if region.strip() != "core":
                    continue
            try:
                nodes.append(int(node_s))
            except ValueError as exc:
                raise ValueError(f"core-set file line {lineno}: not a node id: {line!r}") from exc
    return nodes


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        g, remap = _load_graph(args.graph, args.max_nodes)
        core_orig = _read_core_set(args.core_set)
        core = NodeSet(_map_original_ids(remap, core_orig, "core node"))
        p = ProblemParams(alpha=args.alpha, rho=args.rho, seed=0, reg_factor=args.reg_factor)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    if len(core) == 0:
        print("warning: empty core set; boundary is empty and the condition holds vacuously", file=sys.stderr)
    report = check_no_percolation(g, p, core)
    print(f"holds={'true' if report.holds else 'false'}")
    worst = "none" if report.worst_node is None else str(int(remap[report.worst_node]))
    print(f"worst_node={worst}")
    print(f"worst_ratio={_fmt(report.worst_ratio)}")
    return 0 if report.holds else 1


# ---------------------------------------------------------------- sweep

# generator key -> conversion, from the fields of SynthParams (the gen flags
# are the same fields)
_SYNTH_KEYS = {f.name: type(f.default) for f in fields(SynthParams)}


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _grid_log(text: str) -> tuple[float, ...]:
    lo_s, hi_s, count_s = (s.strip() for s in text.split(","))
    return log_grid(float(lo_s), float(hi_s), int(count_s))


# spec key -> (SweepSpec field, conversion), in the order values are
# converted, so a spec with several bad values reports the first in this order
_SPEC_KEYS = {
    "grid": ("grid", lambda text: tuple(float(v) for v in text.split(","))),
    "grid_log": ("grid", _grid_log),
    "axis": ("sweep_axis", str),
    "alpha": ("alpha", float),
    "rho": ("rho", float),
    "eps": ("eps", float),
    "reg_factor": ("reg_factor", int),
    "max_nodes": ("max_nodes", int),
    "seed_count": ("seed_count", int),
    "base_rng_seed": ("base_rng_seed", int),
    "max_iter": ("max_iter", int),
    "per_point_fresh_graph": ("per_point_fresh_graph", _parse_bool),
    "seeds": ("seeds", lambda text: tuple(int(v) for v in text.split(","))),
    "edgelist_path": ("edgelist_path", str),
}


def _spec_keys_of(name: str) -> list[str]:
    """The spec keys that set the SweepSpec, ProblemParams or SynthParams field ``name``."""
    if name == "seed":  # every seeds entry is a ProblemParams seed
        return ["seeds"]
    return [key for key, (field, _) in _SPEC_KEYS.items() if field == name] or [name]


def _parse_config(path: str) -> dict[str, tuple[int, str]]:
    """``key -> (line number, value)`` from a key = value spec file."""
    out: dict[str, tuple[int, str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"spec line {lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in out:
                raise ValueError(f"spec line {lineno}: duplicate key {key!r}")
            out[key] = (lineno, value)
    return out


def _spec_from_config(raw: dict[str, tuple[int, str]]) -> SweepSpec:
    def value(key: str, conv):
        lineno, text = raw[key]
        try:
            return conv(text)
        except ValueError as exc:
            raise ValueError(f"spec line {lineno}: bad {key} value {text!r}: {exc}") from None

    def reject(keys: set[str], what: str) -> None:
        if keys:
            first = min(raw[key][0] for key in keys)
            raise ValueError(f"spec line {first}: {what}: {sorted(keys)}")

    reject(set(raw) - set(_SPEC_KEYS) - set(_SYNTH_KEYS), "unknown spec keys")
    # keys the run would not read
    if "edgelist_path" in raw:
        reject(set(raw) & set(_SYNTH_KEYS), "generator keys not read with edgelist_path")
    else:
        reject(set(raw) & {"max_nodes"}, "keys read only with edgelist_path")
    if "seeds" in raw:
        reject(set(raw) & {"seed_count"}, "keys not read with seeds")
    if "axis" not in raw:
        raise ValueError("spec must set axis")
    if ("grid" in raw) == ("grid_log" in raw):
        raise ValueError("spec must set exactly one of grid, grid_log")
    kwargs = {field: value(key, conv) for key, (field, conv) in _SPEC_KEYS.items() if key in raw}
    if "seed_count" in raw and "seeds" not in raw:
        kwargs["seeds"] = None
    elif not kwargs.get("per_point_fresh_graph"):
        reject(set(raw) & {"base_rng_seed"},
               "keys read only with seed_count or per_point_fresh_graph = true")
    try:
        if "edgelist_path" not in raw:
            synth = {key: value(key, conv) for key, conv in _SYNTH_KEYS.items() if key in raw}
            kwargs["synth"] = SynthParams(**synth)
        return SweepSpec(**kwargs)
    except SettingError as exc:
        # the line of the first key at fault that the spec sets
        at = [raw[key][0] for name in exc.fields for key in _spec_keys_of(name) if key in raw]
        if not at:
            raise
        raise ValueError(f"spec line {at[0]}: {exc}") from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        spec = _spec_from_config(_parse_config(args.spec))
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    try:
        result = run_sweep(spec)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_rows_csv(result.rows, fh)
    except OSError as exc:
        return _fail(f"cannot write CSV: {exc}")
    print(f"wrote {len(result.rows)} rows to {args.out}")
    if result.errors:
        for err in result.errors:
            print(
                f"run error at value={_fmt(err.value)} method={err.method} "
                f"seed={err.seed}: {err.message}",
                file=sys.stderr,
            )
        return 1
    return 0


# ---------------------------------------------------------------- analytic

def _cmd_analytic(args: argparse.Namespace) -> int:
    try:
        inst = star_instance(args.m) if args.family == "star" else path_instance(args.m)
        x_formula = inst.solution_formula(args.alpha, args.rho)
        gamma_formula = inst.slack_formula(args.alpha, args.rho)
        p = ProblemParams(alpha=args.alpha, rho=args.rho, seed=inst.seed, reg_factor=1)
        # plain iteration identifies the support exactly even at the
        # breakpoint, where momentum leaves dust on the zero-slack nodes
        cfg = SolverConfig(method="ista", eps=args.eps, max_iter=200000)
    except ValueError as exc:
        return _fail(str(exc))
    g = inst.graph
    sol = solve(g, p, cfg)
    try:
        report = slacks(g, p, sol.x)
    except ValueError as exc:  # eps too loose for the KKT check
        return _fail(f"solver result at eps={_fmt(args.eps)} fails the slack check: {exc}")
    lo, hi = inst.valid_interval(args.alpha)
    print(f"family={inst.family} m={inst.m} alpha={_fmt(args.alpha)} rho={_fmt(args.rho)}")
    print(f"validity_interval=[{_fmt(lo)}, {_fmt(hi)})")
    print("node,x_closed_form,x_solver")
    for node in np.union1d(x_formula.support(), sol.x.support()).tolist():
        print(f"{node},{_fmt(x_formula.get(node))},{_fmt(sol.x.get(node))}")
    print(f"max_x_deviation={_fmt(x_formula.max_abs_diff(sol.x))}")
    print("node,gamma_closed_form,gamma_solver")
    g_dev = 0.0
    for node in sorted(gamma_formula):
        a = gamma_formula[node]
        b = report.slack_at(node)
        g_dev = max(g_dev, abs(a - b))
        print(f"{node},{_fmt(a)},{_fmt(b)}")
    print(f"max_slack_deviation={_fmt(g_dev)}")
    return 0


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1ppr",
        description="Sparse personalized-PageRank solves, diagnostics, and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic block graph")
    for f in fields(SynthParams):
        gen.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    gen.add_argument("--out", required=True)
    gen.add_argument("--partition-out", default=None)
    gen.set_defaults(func=_cmd_gen)

    slv = sub.add_parser("solve", help="solve one problem on an edge-list graph")
    slv.add_argument("graph")
    slv.add_argument("--alpha", type=float, required=True)
    slv.add_argument("--rho", type=float, required=True)
    slv.add_argument("--eps", type=float, default=1e-6)
    slv.add_argument("--method", choices=("ista", "fista"), default="fista")
    slv.add_argument("--seed-node", type=int, required=True)
    slv.add_argument("--reg-factor", type=int, choices=(1, 2), default=1)
    slv.add_argument("--max-iter", type=int, default=50000)
    slv.add_argument("--max-nodes", type=int, default=None)
    slv.add_argument("--trace", default=None, help="write per-iteration CSV here")
    slv.add_argument("--solution-out", default=None, help="write node,value CSV here")
    slv.set_defaults(func=_cmd_solve)

    chk = sub.add_parser("check", help="no-percolation condition for a core set")
    chk.add_argument("graph")
    chk.add_argument("--core-set", required=True)
    chk.add_argument("--alpha", type=float, required=True)
    chk.add_argument("--rho", type=float, required=True)
    chk.add_argument("--reg-factor", type=int, choices=(1, 2), default=2)
    chk.add_argument("--max-nodes", type=int, default=None)
    chk.set_defaults(func=_cmd_check)

    swp = sub.add_parser("sweep", help="run a sweep from a key=value spec file")
    swp.add_argument("spec")
    swp.add_argument("--out", required=True)
    swp.set_defaults(func=_cmd_sweep)

    ana = sub.add_parser("analytic", help="closed form vs solver on star/path")
    ana.add_argument("--family", choices=("star", "path"), required=True)
    ana.add_argument("--m", type=int, required=True)
    ana.add_argument("--alpha", type=float, required=True)
    ana.add_argument("--rho", type=float, required=True)
    ana.add_argument("--eps", type=float, default=1e-12)
    ana.set_defaults(func=_cmd_analytic)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
