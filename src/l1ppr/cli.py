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
2 usage/input error, 3 iteration cap hit. The commands raise; ``main`` turns
every input or I/O error of any command (a ``ValueError``, ``OSError`` or
``MemoryError``) into exit code 2 and one ``error: ...`` line on stderr. All
floats print with 12 significant digits so outputs diff cleanly.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import fields

import numpy as np

from .diagnostics import check_no_percolation, slacks
from .graph import NodeSet, _data_lines, _decimal_id, _union, volume
from .objective import REG_FACTORS, ProblemParams, SettingError
from .solver import METHODS, SolverConfig, solve
from .sweep import (SweepSpec, _csv_cell, _fmt, _map_original_ids, _write_csv, load_edgelist, log_grid,
                    run_sweep, write_rows_csv)
from .synth import RegionPartition, SynthParams, generate, path_instance, star_instance

__all__ = ["main"]


def _reason(exc: Exception) -> str:
    """Message of an input error; a MemoryError raised by Python itself has none."""
    return str(exc) or "out of memory"


@contextmanager
def _writing(what: str):
    """Re-raise an OSError of the block as the input error ``cannot write
    <what>: ...``."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {what}: {exc}") from exc


@contextmanager
def _output(path: str, what: str):
    """``path`` opened for writing, or the input error ``cannot write <what>:
    ...``. Lines end in LF on every platform. A command opens its outputs
    before the work that fills them, so an unwritable path fails before that
    work runs. Writes in the block go through ``_writing``. If the block
    raises, the file is removed, so no partial output is left behind looking
    complete."""
    with _writing(what):
        fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
            with _writing(what):
                fh.flush()
    except BaseException:
        if os.path.isfile(path):  # not a device or pipe
            os.remove(path)
        raise


def _distinct_files(outputs: dict[str, str | None], inputs: dict[str, str | None]) -> None:
    """Raise the input error ``<flag> and <flag> name the same file`` when
    an output path, given as ``flag -> path``, names the same file as another
    output or as an input: the same device and inode for paths that exist,
    so a symbolic or hard link is caught, and the same resolved path for
    those that do not. A command calls it before it opens any output, so a
    clash creates, truncates and removes nothing. A path that is not given,
    and one that exists but is not a regular file, such as /dev/null, is
    left out."""
    named = []
    for flag, path in {**outputs, **inputs}.items():
        if path is None:
            continue
        if not os.path.exists(path):
            same = os.path.realpath(path)
        elif os.path.isfile(path):
            st = os.stat(path)
            same = (st.st_dev, st.st_ino)
        else:
            continue
        named.append((flag, same, os.path.realpath(path), flag in outputs))
    for i, (flag, same, real, writes) in enumerate(named):
        for other, other_same, _, other_writes in named[:i]:
            if same == other_same and (writes or other_writes):
                raise ValueError(f"{other} and {flag} name the same file: {real}")


# directed entries of the CSR rows per formatted block of an edge-list
# write, so the text and its Python ints stay the same size whatever m is; a
# longer row is a block of its own
_WRITE_ENTRIES = 1 << 13


# ---------------------------------------------------------------- gen

def _cmd_gen(args: argparse.Namespace) -> int:
    params = SynthParams(**{key: getattr(args, key) for key in _SYNTH_KEYS})
    partition_path = args.partition_out or args.out + ".partition.csv"
    _distinct_files({"--out": args.out, "--partition-out": partition_path}, {})
    g, part = generate(params)
    with _output(args.out, "output") as fh, _output(partition_path, "output") as side, _writing("output"):
        fh.write(f"# synthetic block graph: nodes={g.n} edges={g.edge_count}\n")
        fh.write(
            f"# core={params.core_size} boundary={params.boundary_size} "
            f"exterior={params.exterior_size}\n"
        )
        lo = 0
        while lo < g.n:
            end = g.row_offsets[lo] + _WRITE_ENTRIES
            hi = max(int(np.searchsorted(g.row_offsets, end, side="right")) - 1, lo + 1)
            block = g.edge_array(lo, hi)
            fh.write(("%d\t%d\n" * len(block)) % tuple(block.ravel().tolist()))
            lo = hi
        _write_csv(side, "node,region", ((node, f.name) for f in fields(RegionPartition)
                                        for node in getattr(part, f.name).ids.tolist()))
    print(f"wrote {g.n} nodes, {g.edge_count} edges to {args.out}")
    print(f"wrote partition to {partition_path}")
    return 0


# ---------------------------------------------------------------- solve

def _cmd_solve(args: argparse.Namespace) -> int:
    _distinct_files({"--trace": args.trace, "--solution-out": args.solution_out}, {"graph": args.graph})
    g, remap = load_edgelist(args.graph, args.max_nodes)
    (seed,) = _map_original_ids(remap, [args.seed_node], "seed node")
    p = ProblemParams(alpha=args.alpha, rho=args.rho, seed=seed, reg_factor=args.reg_factor)
    cfg = SolverConfig(method=args.method, eps=args.eps, max_iter=args.max_iter)
    with ExitStack() as outputs:
        trace_fh = outputs.enter_context(_output(args.trace, "output")) if args.trace else None
        x_fh = outputs.enter_context(_output(args.solution_out, "output")) if args.solution_out else None
        sol = solve(g, p, cfg)
        tr = sol.trace
        print(
            f"method={args.method} alpha={_fmt(args.alpha)} rho={_fmt(args.rho)} "
            f"reg_factor={args.reg_factor} seed={args.seed_node}"
        )
        print(f"converged={_csv_cell(tr.converged)} iterations={tr.iterations} total_work={tr.total_work}")
        print(f"residual={_fmt(tr.final_residual)}")
        print(f"support_size={len(sol.support)} support_volume={volume(g, sol.support)}")
        with _writing("output"):
            if trace_fh:
                # the solve has no baseline, so the spurious column stays empty
                _write_csv(trace_fh, "k,vol_supp_y,vol_supp_x,work,residual,spurious_vol",
                           ((k, vy, vx, vy + vx, r, None) for k, (vy, vx, r)
                            in enumerate(zip(tr.vol_supp_y, tr.vol_supp_x_next, tr.residual))))
            if x_fh:
                _write_csv(x_fh, "node,value", ((remap[i], xi) for i, xi in sol.x.items()))
    return 0 if tr.converged else 3


# ---------------------------------------------------------------- check

def _read_core_set(path: str) -> list[int]:
    """Node ids, one per line; also accepts a node,region partition CSV
    (keeps the rows labeled core)."""
    nodes: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in _data_lines(fh):
            node_s, comma, region = line.partition(",")
            if comma and region.strip() != "core":
                continue  # the CSV's header, or a node of another region
            try:
                nodes.append(_decimal_id(node_s))
            except ValueError as exc:
                raise ValueError(f"core-set file line {lineno}: not a node id: {line!r}") from exc
    return nodes


def _cmd_check(args: argparse.Namespace) -> int:
    g, remap = load_edgelist(args.graph, args.max_nodes)
    core = NodeSet(_map_original_ids(remap, _read_core_set(args.core_set), "core node"))
    p = ProblemParams(alpha=args.alpha, rho=args.rho, seed=0)
    if len(core) == 0:
        print("warning: empty core set; boundary is empty and the condition holds vacuously", file=sys.stderr)
    report = check_no_percolation(g, p, core)
    print(f"holds={_csv_cell(report.holds)}")
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
    "seeds": ("seeds", lambda text: tuple(_decimal_id(v) for v in text.split(","))),
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
        for lineno, line in _data_lines(fh):
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
        except (ValueError, MemoryError) as exc:
            raise ValueError(f"spec line {lineno}: bad {key} value {text!r}: {_reason(exc)}") from None

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
    spec = _spec_from_config(_parse_config(args.spec))
    _distinct_files({"--out": args.out}, {"spec": args.spec, "edgelist_path": spec.edgelist_path})
    with _output(args.out, "CSV") as fh:
        result = run_sweep(spec)
        with _writing("CSV"):
            write_rows_csv(result.rows, fh)
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
    inst = star_instance(args.m) if args.family == "star" else path_instance(args.m)
    x_formula = inst.solution_formula(args.alpha, args.rho)
    gamma_formula = inst.slack_formula(args.alpha, args.rho)
    p = ProblemParams(alpha=args.alpha, rho=args.rho, seed=inst.seed, reg_factor=1)
    # plain iteration identifies the support exactly even at the
    # breakpoint, where momentum leaves dust on the zero-slack nodes
    cfg = SolverConfig(method="ista", eps=args.eps, max_iter=200000)
    g = inst.graph
    sol = solve(g, p, cfg)
    try:
        report = slacks(g, p, sol.x)
    except ValueError as exc:  # eps too loose for the KKT check
        raise ValueError(f"solver result at eps={_fmt(args.eps)} fails the slack check: {exc}") from exc
    lo, hi = inst.valid_interval(args.alpha)
    print(f"family={inst.family} m={inst.m} alpha={_fmt(args.alpha)} rho={_fmt(args.rho)}")
    print(f"validity_interval=[{_fmt(lo)}, {_fmt(hi)})")
    _write_csv(sys.stdout, "node,x_closed_form,x_solver",
               ((node, x_formula.get(node), sol.x.get(node))
                for node in _union(x_formula.support(), sol.x.support()).tolist()))
    print(f"max_x_deviation={_fmt(x_formula.max_abs_diff(sol.x))}")
    gammas = [(node, a, report.slack_at(node)) for node, a in sorted(gamma_formula.items())]
    _write_csv(sys.stdout, "node,gamma_closed_form,gamma_solver", gammas)
    print(f"max_slack_deviation={_fmt(max([0.0, *(abs(a - b) for _, a, b in gammas)]))}")
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

    # the graph and setting flags of solve and check
    graph_flags = argparse.ArgumentParser(add_help=False)
    graph_flags.add_argument("graph")
    graph_flags.add_argument("--alpha", type=float, required=True)
    graph_flags.add_argument("--rho", type=float, required=True)
    graph_flags.add_argument("--max-nodes", type=int, default=None)

    slv = sub.add_parser("solve", parents=[graph_flags], help="solve one problem on an edge-list graph")
    slv.add_argument("--eps", type=float, default=SolverConfig.eps)
    slv.add_argument("--method", choices=METHODS, default=SolverConfig.method)
    slv.add_argument("--seed-node", type=int, required=True)
    slv.add_argument("--reg-factor", type=int, choices=REG_FACTORS, default=ProblemParams.reg_factor)
    slv.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    slv.add_argument("--trace", default=None, help="write per-iteration CSV here")
    slv.add_argument("--solution-out", default=None, help="write node,value CSV here")
    slv.set_defaults(func=_cmd_solve)

    chk = sub.add_parser("check", parents=[graph_flags], help="no-percolation condition for a core set")
    chk.add_argument("--core-set", required=True)
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
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {_reason(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
