import argparse
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import l1ppr.cli as cli
from l1ppr.cli import _map_original_ids, main
from l1ppr.graph import _scan_edges, parse_snap_edgelist
from l1ppr.objective import REG_FACTORS, ProblemParams
from l1ppr.solver import METHODS, SolverConfig
from l1ppr.sweep import SweepResult, SweepSpec, load_edgelist, run_sweep, write_rows_csv
from l1ppr.synth import SynthParams, generate

from oracle import traced

# the child processes import the package from the source tree, installed or not
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}

GEN_FLAGS = ["--core-size", "5", "--boundary-size", "10", "--exterior-size", "12",
             "--c-bnd", "2", "--deg-b", "4", "--deg-ext", "6"]
GEN_PARAMS = SynthParams(core_size=5, boundary_size=10, exterior_size=12,
                         c_bnd=2, deg_b=4, deg_ext=6)


def write_star(tmp_path, m=4, first_id=100):
    path = tmp_path / "star.txt"
    center = first_id
    path.write_text("".join(f"{center}\t{center + k}\n" for k in range(1, m + 1)))
    return str(path)


def write_six_path(tmp_path):
    path = tmp_path / "path.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(5)))
    return str(path)


def test_gen_round_trip(tmp_path, capsys):
    out = str(tmp_path / "g.txt")
    assert main(["gen", *GEN_FLAGS, "--out", out]) == 0
    assert "wrote 27 nodes" in capsys.readouterr().out
    g, remap = load_edgelist(out)
    want, part = generate(GEN_PARAMS)
    assert g.equals(want)
    assert remap.tolist() == list(range(27))
    side = (tmp_path / "g.txt.partition.csv").read_text().strip().split("\n")
    assert side[0] == "node,region"
    regions = dict(line.split(",") for line in side[1:])
    assert len(regions) == 27
    assert [n for n, r in regions.items() if r == "core"] == [str(i) for i in range(5)]
    assert sum(1 for r in regions.values() if r == "boundary") == 10
    assert sum(1 for r in regions.values() if r == "exterior") == 12


def test_gen_explicit_partition_path(tmp_path):
    out = str(tmp_path / "g.txt")
    side = str(tmp_path / "regions.csv")
    assert main(["gen", *GEN_FLAGS, "--out", out, "--partition-out", side]) == 0
    assert (tmp_path / "regions.csv").exists()


# GEN_FLAGS with 11-entry exterior rows, each longer than a block of 7
HUB_FLAGS = [*GEN_FLAGS[:-1], "10"]


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("flags, params", [(GEN_FLAGS, GEN_PARAMS),
                                           (HUB_FLAGS, replace(GEN_PARAMS, deg_ext=10))],
                         ids=["gen_flags", "hub_rows"])
def test_gen_writes_the_edge_array_whatever_the_block(tmp_path, capsys, monkeypatch, flags, params, block):
    """``gen`` writes its rows in blocks of at most ``_WRITE_ENTRIES``
    directed entries, a longer row alone; at any block size the edge lines
    are those of the whole ``edge_array()``, formatted at once."""
    g, _ = generate(params)
    monkeypatch.setattr(cli, "_WRITE_ENTRIES", block)
    out = tmp_path / "g.txt"
    assert main(["gen", *flags, "--out", str(out)]) == 0
    head1, head2, body = out.read_text().split("\n", 2)
    assert head1.startswith("# ") and head2.startswith("# ")
    edges = g.edge_array()
    assert body == ("%d\t%d\n" * len(edges)) % tuple(edges.ravel().tolist())
    if flags is HUB_FLAGS:
        assert int(g.degrees.max()) > 7


def test_gen_memory_beyond_the_graph_does_not_grow_with_m(tmp_path, capsys):
    """On the ``cli_pipeline`` graph of the benchmark (107,570 edges, 1.77 MB
    of CSR arrays, 0.88 MB of text), the tracemalloc peak of ``gen`` stays
    within that of ``generate`` alone plus 1 MB: the write holds one block
    of rows, not the edge list."""
    params = SynthParams(exterior_size=400, deg_ext=398)
    argv = ["gen", "--exterior-size", "400", "--deg-ext", "398", "--out", str(tmp_path / "g.txt")]
    assert main(argv) == 0  # first calls' one-time allocations
    gen_peak, _, _ = traced(lambda: main(argv))
    assert (tmp_path / "g.txt").stat().st_size > 850_000
    assert gen_peak <= traced(lambda: generate(params))[0] + 1_000_000


def test_gen_unwritable_partition_leaves_no_edge_list(tmp_path, capsys):
    out = tmp_path / "g.txt"
    rc = main(["gen", *GEN_FLAGS, "--out", str(out), "--partition-out", str(tmp_path / "no" / "p.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    assert not out.exists()


def test_gen_invalid_params(tmp_path, capsys):
    out = str(tmp_path / "g.txt")
    rc = main(["gen", "--core-size", "3", "--boundary-size", "20", "--c-bnd", "30",
               "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds boundary_size" in err
    # a size beyond the int64 node ids fails before anything is generated
    rc = main(["gen", "--core-size", "5", "--boundary-size", str(10**30), "--exterior-size", "12",
               "--c-bnd", "2", "--deg-b", "4", "--deg-ext", "6", "--out", out])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: total_nodes=1000000000000000000000000000017 exceeds the int64 node-id bound "
        "9223372036854775807\n")


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    """An input too large to allocate exits 2 with one error line. The
    allocations are stubbed out: the test never really makes them."""
    def out_of_memory(*args):
        raise MemoryError()

    def numpy_out_of_memory(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

    monkeypatch.setattr(cli, "generate", out_of_memory)
    monkeypatch.setattr(cli, "log_grid", numpy_out_of_memory)
    rc = main(["gen", "--exterior-size", "10000000000000", "--deg-ext", "2",
               "--out", str(tmp_path / "x.tsv")])
    assert (rc, capsys.readouterr()) == (2, ("", "error: out of memory\n"))
    assert not (tmp_path / "x.tsv").exists()
    spec_path = tmp_path / "spec.cfg"
    spec_path.write_text("axis = rho\ngrid_log = 1e-4, 1e-2, 1000000000000\n")
    rc = main(["sweep", str(spec_path), "--out", str(tmp_path / "x.csv")])
    assert (rc, capsys.readouterr()) == (2, ("", (
        "error: spec line 2: bad grid_log value '1e-4, 1e-2, 1000000000000': "
        "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)\n")))


def test_gen_flags_are_synth_params_fields():
    args = vars(cli._build_parser().parse_args(["gen", "--out", "g.txt"]))
    flags = {k: v for k, v in args.items() if k not in ("command", "func", "out", "partition_out")}
    defaults = asdict(SynthParams())
    assert flags == defaults
    assert [type(v) for v in flags.values()] == [type(v) for v in defaults.values()]


def test_solve_flags_default_to_solver_config():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    choices = {a.dest: a.choices for a in commands["solve"]._actions}
    args = vars(parser.parse_args(["solve", "g.txt", "--alpha", "0.2", "--rho", "1e-4",
                                   "--seed-node", "0"]))
    cfg, reg_factor = SolverConfig(), ProblemParams(0.2, 1e-4, 0).reg_factor
    assert (args["method"], args["eps"], args["max_iter"]) == (cfg.method, cfg.eps, cfg.max_iter)
    assert args["reg_factor"] == reg_factor
    assert choices["method"] == METHODS
    assert choices["reg_factor"] == REG_FACTORS
    spec = {f.name: f.default for f in fields(SweepSpec)}
    assert (spec["eps"], spec["reg_factor"], spec["max_iter"]) == (cfg.eps, reg_factor, cfg.max_iter)


def test_solve_star_with_original_ids(tmp_path, capsys):
    graph = write_star(tmp_path)
    sol_out = str(tmp_path / "x.csv")
    rc = main(["solve", graph, "--alpha", "0.5", "--rho", "0.1",
               "--eps", "1e-10", "--method", "ista", "--seed-node", "100",
               "--solution-out", sol_out])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged=true" in out
    assert "support_size=1 support_volume=4" in out
    lines = (tmp_path / "x.csv").read_text().strip().split("\n")
    assert lines[0] == "node,value"
    node, value = lines[1].split(",")
    assert node == "100"
    assert float(value) == pytest.approx(0.2, abs=1e-9)


def test_solve_trivial_region(tmp_path, capsys):
    rc = main(["solve", write_star(tmp_path), "--alpha", "0.5", "--rho", "0.3",
               "--seed-node", "100"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "iterations=0 total_work=0" in out
    assert "support_size=0" in out


def test_solve_trace_csv(tmp_path, capsys):
    graph = write_star(tmp_path)
    trace = str(tmp_path / "trace.csv")
    rc = main(["solve", graph, "--alpha", "0.5", "--rho", "0.1",
               "--eps", "1e-10", "--seed-node", "100", "--trace", trace])
    assert rc == 0
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "k,vol_supp_y,vol_supp_x,work,residual,spurious_vol"
    assert len(lines) >= 2
    first = lines[1].split(",")
    assert len(first) == 6 and first[0] == "0"
    assert all(line.split(",")[5] == "" for line in lines[1:])  # no baseline
    out = capsys.readouterr().out
    n_iters = int(out.split("iterations=")[1].split()[0])
    assert len(lines) - 1 == n_iters


def test_solve_trace_keeps_summary_trace(tmp_path, monkeypatch):
    """The trace CSV needs only the per-iteration counts, not the support
    snapshots of a full trace."""
    levels = []
    real_solve = cli.solve

    def spy(g, p, cfg):
        levels.append(cfg.trace_level)
        return real_solve(g, p, cfg)

    monkeypatch.setattr(cli, "solve", spy)
    rc = main(["solve", write_star(tmp_path), "--alpha", "0.5", "--rho", "0.1",
               "--seed-node", "100", "--trace", str(tmp_path / "trace.csv")])
    assert rc == 0 and levels == ["summary"]


def test_solve_iteration_cap_exit_code(tmp_path, capsys):
    rc = main(["solve", write_star(tmp_path), "--alpha", "0.5", "--rho", "0.01",
               "--eps", "1e-15", "--max-iter", "2", "--seed-node", "100"])
    assert rc == 3
    assert "converged=false" in capsys.readouterr().out


def test_solve_input_errors(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "nope.txt"), "--alpha", "0.5",
               "--rho", "0.1", "--seed-node", "0"])
    assert rc == 2
    assert "cannot read graph file" in capsys.readouterr().err
    rc = main(["solve", write_star(tmp_path), "--alpha", "0.5", "--rho", "0.1",
               "--seed-node", "999"])
    assert rc == 2
    assert "seed node 999 not present" in capsys.readouterr().err
    for flag in ("--trace", "--solution-out"):
        rc = main(["solve", write_star(tmp_path), "--alpha", "0.5", "--rho", "0.1",
                   "--seed-node", "100", flag, str(tmp_path / "no" / "such" / "out.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and "out.csv" in err


def _count_solves(monkeypatch):
    """Count the calls of ``cli.solve`` and ``cli.run_sweep``."""
    calls = []
    for name in ("solve", "run_sweep"):
        def counted(*args, _run=getattr(cli, name)):
            calls.append(None)
            return _run(*args)
        monkeypatch.setattr(cli, name, counted)
    return calls


def test_unwritable_output_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    calls = _count_solves(monkeypatch)
    nowhere = str(tmp_path / "no" / "such" / "out.csv")
    for flag in ("--trace", "--solution-out"):
        rc = main(["solve", write_star(tmp_path), "--alpha", "0.5", "--rho", "0.1",
                   "--seed-node", "100", flag, nowhere])
        assert (rc, capsys.readouterr().out) == (2, "")
    spec_path = tmp_path / "spec.cfg"
    spec_path.write_text(SPEC_TEXT)
    rc = main(["sweep", str(spec_path), "--out", nowhere])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot write CSV: ")
    assert calls == []


def test_failed_run_leaves_no_output(tmp_path, capsys, monkeypatch):
    """A command that fails after opening its outputs removes them, so no
    partial file is left looking complete."""
    def rejects(*args):
        raise ValueError("rejected by the library")

    def breaks_off(rows, fh):
        fh.write("value,method\n")
        raise OSError(28, "No space left on device")

    trace, x = tmp_path / "t.csv", tmp_path / "x.csv"
    monkeypatch.setattr(cli, "solve", rejects)
    rc = main(["solve", write_star(tmp_path), "--alpha", "0.5", "--rho", "0.1",
               "--seed-node", "100", "--trace", str(trace), "--solution-out", str(x)])
    assert (rc, capsys.readouterr().err) == (2, "error: rejected by the library\n")
    assert not trace.exists() and not x.exists()
    monkeypatch.setattr(cli, "write_rows_csv", breaks_off)
    spec_path = tmp_path / "spec.cfg"
    spec_path.write_text(SPEC_TEXT)
    out = tmp_path / "o.csv"
    rc = main(["sweep", str(spec_path), "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (2, "error: cannot write CSV: [Errno 28] No space left on device\n")
    assert not out.exists()


def _rejects_same_file(argv, capsys, flags):
    """``main(argv)`` exits 2 with one line naming the two ``flags`` and
    prints nothing on stdout."""
    rc = main(argv)
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {flags[0]} and {flags[1]} name the same file: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("linked", [False, True], ids=["same_path", "symlink"])
def test_solve_rejects_one_file_for_trace_and_solution(tmp_path, capsys, linked):
    graph = Path(write_star(tmp_path))
    before = graph.read_bytes()
    same = tmp_path / "same.csv"
    other = same
    if linked:
        same.write_text("kept\n")
        other = tmp_path / "link.csv"
        other.symlink_to(same)
    _rejects_same_file(["solve", str(graph), "--alpha", "0.5", "--rho", "0.1", "--seed-node", "100",
                        "--trace", str(same), "--solution-out", str(other)],
                       capsys, ("--trace", "--solution-out"))
    assert graph.read_bytes() == before
    assert same.read_text() == "kept\n" if linked else not same.exists()
    # a device is not a file the outputs could share
    assert main(["solve", str(graph), "--alpha", "0.5", "--rho", "0.1", "--seed-node", "100",
                 "--trace", os.devnull, "--solution-out", os.devnull]) == 0


def test_solve_rejects_a_trace_over_its_graph(tmp_path, capsys):
    graph = Path(write_star(tmp_path))
    before = graph.read_bytes()
    _rejects_same_file(["solve", str(graph), "--alpha", "0.5", "--rho", "0.1", "--seed-node", "100",
                        "--trace", str(graph)], capsys, ("--trace", "graph"))
    assert graph.read_bytes() == before


def test_solve_rejects_a_trace_hard_linked_to_its_graph(tmp_path, capsys):
    """A hard link resolves to a path of its own, but it is the graph's file:
    a trace there exits 2 and leaves the graph as it was."""
    graph = Path(write_star(tmp_path))
    before = graph.read_bytes()
    hard = tmp_path / "hard.txt"
    os.link(graph, hard)
    _rejects_same_file(["solve", str(graph), "--alpha", "0.5", "--rho", "0.1", "--seed-node", "100",
                        "--trace", str(hard)], capsys, ("--trace", "graph"))
    assert graph.read_bytes() == before


def test_gen_rejects_one_file_for_edges_and_partition(tmp_path, capsys):
    same = tmp_path / "s.txt"
    same.write_text("kept\n")
    _rejects_same_file(["gen", *GEN_FLAGS, "--out", str(same), "--partition-out", str(same)],
                       capsys, ("--out", "--partition-out"))
    assert same.read_text() == "kept\n"


def test_sweep_rejects_an_output_over_its_graph(tmp_path, capsys):
    graph = Path(write_star(tmp_path))
    before = graph.read_bytes()
    spec_path = tmp_path / "spec.cfg"
    spec_path.write_text(f"axis = rho\ngrid = 0.1\nalpha = 0.5\nseeds = 100\nedgelist_path = {graph}\n")
    _rejects_same_file(["sweep", str(spec_path), "--out", str(graph)], capsys, ("--out", "edgelist_path"))
    assert graph.read_bytes() == before


def write_reversed_path(tmp_path):
    """Path 5-4-3-2-1-0, listed from the 5 end, so the first ids in file
    order are the largest."""
    path = tmp_path / "rpath.txt"
    path.write_text("".join(f"{i} {i - 1}\n" for i in range(5, 0, -1)))
    return str(path)


def _loaded_graph(monkeypatch, name):
    """Record the graph argument of every call of ``cli.<name>``."""
    seen = []
    original = getattr(cli, name)

    def record(g, *args):
        seen.append(g)
        return original(g, *args)

    monkeypatch.setattr(cli, name, record)
    return seen


def test_solve_max_nodes(tmp_path, capsys, monkeypatch):
    graph = write_reversed_path(tmp_path)
    seen = _loaded_graph(monkeypatch, "solve")
    rc = main(["solve", graph, "--alpha", "0.5", "--rho", "0.1", "--seed-node", "4",
               "--max-nodes", "3"])
    assert rc == 0
    assert seen[0].equals(load_edgelist(graph, max_nodes=3)[0]) and seen[0].n == 3
    capsys.readouterr()
    rc = main(["solve", graph, "--alpha", "0.5", "--rho", "0.1", "--seed-node", "2",
               "--max-nodes", "3"])
    assert rc == 2
    assert capsys.readouterr().err == "error: seed node 2 not present in the graph\n"


def test_check_max_nodes(tmp_path, capsys, monkeypatch):
    graph = write_reversed_path(tmp_path)
    core = tmp_path / "core.txt"
    core.write_text("4\n")
    seen = _loaded_graph(monkeypatch, "check_no_percolation")
    rc = main(["check", graph, "--core-set", str(core), "--alpha", "0.5", "--rho", "1.0",
               "--max-nodes", "3"])
    assert rc == 0
    assert seen[0].equals(load_edgelist(graph, max_nodes=3)[0]) and seen[0].n == 3
    capsys.readouterr()
    core.write_text("4\n2\n")
    rc = main(["check", graph, "--core-set", str(core), "--alpha", "0.5", "--rho", "1.0",
               "--max-nodes", "3"])
    assert rc == 2
    assert capsys.readouterr().err == "error: core node 2 not present in the graph\n"


def test_map_original_ids_between_and_beyond_present_ids():
    remap = np.array([2, 5, 9], dtype=np.int64)
    assert _map_original_ids(remap, [5, 9, 2, 5], "node") == [1, 2, 0, 1]
    assert _map_original_ids(remap, [], "node") == []
    for missing in (0, 3, 6, 10, -1, 2**70):
        with pytest.raises(ValueError, match=f"^core node {missing} not present in the graph$"):
            _map_original_ids(remap, [2, missing], "core node")


def _cli_outputs(capsys, seeds):
    """Stdout of both methods' ``solve --trace --solution-out`` and of an
    edge-list sweep on ``graph.txt`` in the current directory, and the files
    they write."""
    got = {}
    for method in METHODS:
        assert main(["solve", "graph.txt", "--alpha", "0.3", "--rho", "1e-3", "--eps", "1e-8",
                     "--method", method, "--seed-node", str(seeds[0]), "--trace", f"{method}.trace.csv",
                     "--solution-out", f"{method}.x.csv"]) == 0
        got[f"solve {method}"] = capsys.readouterr().out
    with open("sweep.cfg", "w", encoding="utf-8") as fh:
        fh.write("axis = rho\ngrid = 1e-2,1e-3\nalpha = 0.3\neps = 1e-8\nedgelist_path = graph.txt\n"
                 f"seeds = {','.join(map(str, seeds))}\n")
    assert main(["sweep", "sweep.cfg", "--out", "sweep.csv"]) == 0
    got["sweep"] = capsys.readouterr().out
    for name in sorted(os.listdir(".")):
        if name.endswith(".csv"):
            got[name] = Path(name).read_bytes()
    return got


def test_cli_unreachable_padding_changes_no_byte(tmp_path, capsys, monkeypatch):
    """A graph's edge list and a copy padded with a component the solves
    cannot reach, at ids that fall between the graph's, give byte-identical
    solve and sweep outputs: the CLI reads and prints the file's own ids."""
    g, _ = generate(GEN_PARAMS)
    edges = g.edge_array()
    rng = np.random.default_rng(11)
    m = 40
    at = np.sort(rng.choice(g.n + m, g.n, replace=False))  # the graph's ids in both files
    rest = np.setdiff1d(np.arange(g.n + m), at)
    pad = np.stack((rest[1:], rest[rng.integers(0, np.arange(1, m))]), axis=1)  # a random tree
    seeds = [int(at[2]), int(at[-1])]
    assert seeds[1] > rest[0]  # a seed whose compact id the padding shifts
    outputs = []
    for name, lines in (("alone", at[edges]), ("padded", np.concatenate((pad, at[edges])))):
        (tmp_path / name).mkdir()
        (tmp_path / name / "graph.txt").write_text("".join(f"{u}\t{v}\n" for u, v in lines.tolist()))
        monkeypatch.chdir(tmp_path / name)
        outputs.append(_cli_outputs(capsys, seeds))
    alone, padded = outputs
    assert sorted(alone) == sorted(padded)
    for key in alone:
        assert alone[key] == padded[key], key


def test_check_pass_and_fail(tmp_path, capsys):
    graph = write_six_path(tmp_path)
    core = tmp_path / "core.txt"
    core.write_text("2\n")
    rc = main(["check", graph, "--core-set", str(core),
               "--alpha", "0.5", "--rho", "1.45"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "holds=true" in out and "worst_node=0" in out
    rc = main(["check", graph, "--core-set", str(core),
               "--alpha", "0.5", "--rho", "1.40"])
    assert rc == 1
    assert "holds=false" in capsys.readouterr().out


def test_check_accepts_partition_csv(tmp_path, capsys):
    graph = write_six_path(tmp_path)
    core = tmp_path / "part.csv"
    core.write_text("node,region\n2,core\n1,boundary\n4,exterior\n")
    rc = main(["check", graph, "--core-set", str(core),
               "--alpha", "0.5", "--rho", "1.45"])
    assert rc == 0
    assert "worst_node=0" in capsys.readouterr().out


@pytest.mark.parametrize("filler", ["", " \t ", "#", "# note", "  \t# indented note"])
def test_text_readers_take_the_same_lines_as_data(tmp_path, filler):
    """The edge-list reader, its line scan, the core-set reader and the spec
    reader skip the same lines and number the lines they read alike."""
    path = tmp_path / "input.txt"
    readers = [
        (parse_snap_edgelist, "0 1", lambda got: got[0].edge_count == 1,
         "line 4: expected two node ids"),
        (lambda p: _scan_edges(Path(p).read_text().splitlines(keepends=True)), "0 1",
         lambda got: got.tolist() == [[0, 1]], "line 4: expected two node ids"),
        (cli._read_core_set, "2", lambda got: got == [2], "core-set file line 4: not a node id"),
        (cli._parse_config, "axis = rho", lambda got: got == {"axis": (2, "rho")},
         "spec line 4: expected key = value"),
    ]
    for read, data, check, error in readers:
        path.write_text(f"{filler}\n{data}\n{filler}\n")
        assert check(read(str(path)))
        path.write_text(f"{filler}\n{data}\n{filler}\nx\n")
        with pytest.raises(ValueError, match=error):
            read(str(path))


def test_check_empty_core_vacuous(tmp_path, capsys):
    graph = write_six_path(tmp_path)
    core = tmp_path / "core.txt"
    core.write_text("")
    rc = main(["check", graph, "--core-set", str(core),
               "--alpha", "0.5", "--rho", "0.01"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "vacuously" in captured.err
    assert "holds=true" in captured.out and "worst_node=none" in captured.out


def test_check_bad_core_file(tmp_path, capsys):
    graph = write_six_path(tmp_path)
    core = tmp_path / "core.txt"
    core.write_text("2\nbogus\n")
    rc = main(["check", graph, "--core-set", str(core),
               "--alpha", "0.5", "--rho", "1.0"])
    assert rc == 2
    assert "core-set file line 2" in capsys.readouterr().err


def test_check_bad_core_partition_row(tmp_path, capsys):
    graph = write_six_path(tmp_path)
    core = tmp_path / "regions.csv"
    core.write_text("node,region\n2,core\nx,core\n")
    rc = main(["check", graph, "--core-set", str(core),
               "--alpha", "0.5", "--rho", "1.0"])
    assert rc == 2
    assert capsys.readouterr().err == "error: core-set file line 3: not a node id: 'x,core'\n"


# ids that int() alone reads, as 10 and 3: an id is an optional sign and
# ASCII digits
_NOT_DECIMAL = ["1_0", "\u0663"]


@pytest.mark.parametrize("bad", _NOT_DECIMAL)
def test_check_rejects_a_core_id_that_is_not_decimal(tmp_path, capsys, bad):
    graph = write_six_path(tmp_path)
    core = tmp_path / "regions.csv"
    core.write_text(f"node,region\n2,core\n{bad},core\n", encoding="utf-8")
    rc = main(["check", graph, "--core-set", str(core), "--alpha", "0.5", "--rho", "1.0"])
    assert (rc, capsys.readouterr().err) == (2, f"error: core-set file line 3: not a node id: {bad + ',core'!r}\n")


@pytest.mark.parametrize("bad", _NOT_DECIMAL)
def test_sweep_rejects_a_seed_that_is_not_decimal(tmp_path, capsys, monkeypatch, bad):
    _stub_run_sweep(monkeypatch)
    spec_path = tmp_path / "spec.cfg"
    spec_path.write_text(f"axis = rho\ngrid = 0.1\nalpha = 0.5\nseeds = 0, {bad}\n", encoding="utf-8")
    rc = main(["sweep", str(spec_path), "--out", str(tmp_path / "o.csv")])
    assert (rc, capsys.readouterr().err) == (
        2, f"error: spec line 4: bad seeds value {'0, ' + bad!r}: not a decimal integer: {' ' + bad!r}\n")


SPEC_TEXT = """\
# comment line
axis = rho
grid = 0.003,0.001
alpha = 0.3
eps = 1e-8
seeds = 0,2
core_size = 5
boundary_size = 10
exterior_size = 12
c_bnd = 2
deg_b = 4
deg_ext = 6
"""


def test_sweep_cli_matches_library_and_reruns(tmp_path, capsys):
    spec_path = tmp_path / "spec.cfg"
    spec_path.write_text(SPEC_TEXT)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["sweep", str(spec_path), "--out", out1]) == 0
    assert main(["sweep", str(spec_path), "--out", out2]) == 0
    b1 = (tmp_path / "a.csv").read_bytes()
    assert b1 == (tmp_path / "b.csv").read_bytes()
    import io

    spec = SweepSpec(sweep_axis="rho", grid=(0.003, 0.001), alpha=0.3, eps=1e-8,
                     seeds=(0, 2), synth=GEN_PARAMS)
    buf = io.StringIO()
    write_rows_csv(run_sweep(spec).rows, buf)
    assert b1.decode() == buf.getvalue()


def test_sweep_cli_grid_log(tmp_path, capsys):
    spec_path = tmp_path / "spec.cfg"
    spec_path.write_text(
        "axis = rho\ngrid_log = 1e-3, 1e-1, 3\ncore_size = 5\nboundary_size = 10\n"
        "exterior_size = 12\nc_bnd = 2\ndeg_b = 4\ndeg_ext = 6\n"
    )
    out = str(tmp_path / "c.csv")
    assert main(["sweep", str(spec_path), "--out", out]) == 0
    lines = (tmp_path / "c.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 3 * 2


def test_sweep_cli_spec_errors(tmp_path, capsys):
    cases = [
        ("axis = rho\ngrid = 1e-3\nwat = 1\ncore_size = 5\n", "unknown spec keys"),
        ("axis = rho\ngrid = 1e-3\ngrid_log = 1e-3,1e-1,3\n", "exactly one of grid"),
        ("grid = 1e-3\n", "must set axis"),
        ("axis = rho\ngrid = 1e-3\nalpha 0.3\n", "expected key = value"),
        ("axis = rho\ngrid = 1e-3\nalpha = 0.3\nalpha = 0.4\n", "duplicate key"),
        ("axis = rho\n# grid below\ngrid = 1e-3,x\n",
         "spec line 3: bad grid value '1e-3,x': could not convert string to float: 'x'"),
        # a bad fixed setting or seed gets the checker's own message after the
        # line of its key; a bad grid value is named as such
        ("axis = rho\ngrid = 1e-3\nalpha = 2\ncore_size = 5\n",
         "error: spec line 3: alpha must lie in (0, 1], got 2.0\n"),
        ("axis = rho\ngrid = 1e-3\nreg_factor = 5\ncore_size = 5\n",
         "error: spec line 3: reg_factor must be 1 or 2, got 5\n"),
        ("axis = rho\ngrid = 1e-3\neps = 0\ncore_size = 5\n",
         "error: spec line 3: eps must be positive, got 0.0\n"),
        ("axis = rho\ngrid = 1e-3\nmax_iter = 0\ncore_size = 5\n",
         "error: spec line 3: max_iter must be at least 1"),
        ("axis = rho\ngrid = 1e-3\nseeds = 0,-1\ncore_size = 5\n",
         "error: spec line 3: seed node must be non-negative, got -1\n"),
        ("axis = rho\ngrid = 1e-3,nan\ncore_size = 5\n",
         "error: spec line 2: rho grid value nan: rho must be positive, got nan\n"),
        ("axis = epsilon\ngrid = nan,1e-6\ncore_size = 5\n",
         "error: spec line 2: epsilon grid value nan: eps must be positive, got nan\n"),
        ("axis = rho\ngrid_log = 1e-4,-1,3\ncore_size = 5\n", "spec line 2: bad grid_log value"),
        # every grid point's generator settings are checked before any graph is built
        ("axis = boundary_size\ngrid = 30,inf\ncore_size = 5\n",
         "error: spec line 2: boundary_size grid value inf: "
         "boundary_size must lie in [0, 9223372036854775807]\n"),
        ("axis = boundary_size\ngrid = 1e30\ncore_size = 5\n",
         "error: spec line 2: boundary_size grid value 1e+30: "
         "boundary_size must lie in [0, 9223372036854775807]\n"),
        ("axis = boundary_size\ngrid = 30,5\ncore_size = 5\n",
         "error: spec line 2: boundary_size grid value 5.0: c_bnd=20 exceeds boundary_size=5\n"),
        ("axis = rho\ngrid = 1e-3\nboundary_size = 1000000000000000000000000000000\ncore_size = 5\n",
         "error: spec line 3: total_nodes=1000000000000000000000000001005 exceeds the int64 "
         "node-id bound 9223372036854775807\n"),
        # a bad generator key, and a conflict between two: the line of a key
        # the message names that the spec sets
        ("axis = rho\ngrid = 1e-3\ncore_size = 5\ndeg_b = -1\n",
         "error: spec line 4: sizes and degrees must be non-negative\n"),
        ("axis = rho\ngrid = 1e-3\ncore_size = 5\nboundary_size = 5\n",
         "error: spec line 4: c_bnd=20 exceeds boundary_size=5\n"),
        ("axis = rho\nc_bnd = 700\ngrid = 1e-3\ncore_size = 5\n",
         "error: spec line 2: c_bnd=700 exceeds boundary_size=600\n"),
        ("axis = rho\ngrid = 1e-3\nexterior_size = 9\ncore_size = 5\n",
         "error: spec line 3: deg_ext=998 must be smaller than exterior_size=9\n"),
        ("axis = rhoo\ngrid = 1e-3\ncore_size = 5\n", "error: spec line 1: sweep_axis must be one of"),
        ("axis = boundary_size\ngrid = 30\nedgelist_path = g.txt\n",
         "error: spec line 1: boundary_size sweeps require a synthetic graph source\n"),
        # keys the run would not read
        ("axis = rho\ngrid = 1e-3\nedgelist_path = /no/such/file\ncore_size = x\ndeg_b = 4\n",
         "error: spec line 4: generator keys not read with edgelist_path: ['core_size', 'deg_b']\n"),
        ("axis = rho\ngrid = 1e-3\ncore_size = 5\nmax_nodes = 10\n",
         "error: spec line 4: keys read only with edgelist_path: ['max_nodes']\n"),
        ("axis = rho\nseed_count = 3\ngrid = 1e-3\nseeds = 0,1\ncore_size = 5\n",
         "error: spec line 2: keys not read with seeds: ['seed_count']\n"),
        ("axis = rho\ngrid = 1e-3\nseed_count = 0\ncore_size = 5\n",
         "error: spec line 3: seed_count must be at least 1\n"),
        ("axis = rho\ngrid = 1e-3\nseed_count = -1\ncore_size = 5\n",
         "error: spec line 3: seed_count must be at least 1\n"),
        ("axis = rho\ngrid = 1e-3\nseeds = 0,2\nbase_rng_seed = 5\ncore_size = 5\n",
         "error: spec line 4: keys read only with seed_count or per_point_fresh_graph = true: "
         "['base_rng_seed']\n"),
        ("axis = rho\ngrid = 1e-3\nper_point_fresh_graph = maybe\ncore_size = 5\n",
         "error: spec line 3: bad per_point_fresh_graph value 'maybe': expected a boolean, got 'maybe'\n"),
        ("axis = rho\ngrid = 1e-3\nbase_rng_seed = 5\nper_point_fresh_graph = no\ncore_size = 5\n",
         "error: spec line 3: keys read only with seed_count or per_point_fresh_graph = true: "
         "['base_rng_seed']\n"),
        # an unreadable graph file, reported as solve and check report it
        ("axis = rho\ngrid = 1e-3\nedgelist_path = /no/such/file\n",
         "error: cannot read graph file: [Errno 2] No such file or directory: '/no/such/file'\n"),
    ]
    for text, msg in cases:
        spec_path = tmp_path / "bad.cfg"
        spec_path.write_text(text)
        rc = main(["sweep", str(spec_path), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert msg in capsys.readouterr().err


# Text of one line of a spec or core-set file: anything but a line break.
_LINE = st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), max_size=12)
_PAD = st.text(" \t", max_size=2)
_FILLER = st.one_of(
    st.text(" \t\x0b\x0c", max_size=3),
    st.builds(lambda pad, text: f"{pad}#{text}", _PAD, _LINE),
)


def _rejects(conv, text):
    try:
        conv(text)
    except ValueError:
        return True
    return False


def _float_list(text):
    return tuple(float(v) for v in text.split(","))


def _decimal(text):
    """The id ``text`` writes as an optional sign and ASCII digits, blanks
    around them allowed."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise ValueError(text)
    return int(text)


def _int_list(text):
    return tuple(_decimal(v) for v in text.split(","))


def _bool(text):
    if text.lower() not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(text)


# spec keys with one accepted value each; any subset of them is a valid spec
_GOOD_SPEC = {"axis": "rho", "grid": "1e-3", "alpha": "0.3", "eps": "1e-8", "seeds": "0,2",
              "core_size": "5", "per_point_fresh_graph": "no", "max_iter": "100"}
# spec keys with the conversion a value must pass
_SPEC_CONV = {"alpha": float, "rho": float, "eps": float, "core_density": float,
              "reg_factor": int, "max_nodes": int, "seed_count": int, "base_rng_seed": int,
              "max_iter": int, "core_size": int, "boundary_size": int, "rng_seed": int,
              "grid": _float_list, "seeds": _int_list, "per_point_fresh_graph": _bool}
_BAD_GRID_LOG = ["1e-3, 1e-1", "0, 1, 3", "1e-3, 1e-1, 0", "a, b, c", "1e-3,1e-1,3,4", ""]


@st.composite
def _spec_with_bad_line(draw):
    """Lines of a spec file with one malformed line, and that line's number."""
    kind = draw(st.sampled_from(["no_equals", "duplicate", "unknown_key", "bad_value"]))
    good = {k: v for k, v in _GOOD_SPEC.items() if k in ("axis", "grid") or draw(st.booleans())}
    if kind == "no_equals":
        bad = draw(_LINE.filter(
            lambda t: "=" not in t and t.strip() != "" and not t.strip().startswith("#")))
    elif kind == "duplicate":
        bad = f"{draw(st.sampled_from(sorted(good)))} = {draw(_LINE)}"
    elif kind == "unknown_key":
        key = draw(_LINE.filter(lambda t: "=" not in t and not t.strip().startswith("#")
                                and t.strip() not in cli._SPEC_KEYS
                                and t.strip() not in cli._SYNTH_KEYS))
        bad = f"{key}={draw(_LINE)}"
    else:
        key = draw(st.sampled_from(sorted(_SPEC_CONV) + ["grid_log"]))
        if key == "grid_log":
            del good["grid"]
            value = draw(st.sampled_from(_BAD_GRID_LOG))
        else:
            good.pop(key, None)
            value = draw(_LINE.filter(lambda t: _rejects(_SPEC_CONV[key], t.strip())))
        bad = f"{draw(_PAD)}{key}{draw(_PAD)}={draw(_PAD)}{value}"
    lines = [f"{k}{draw(_PAD)}={draw(_PAD)}{v}" for k, v in good.items()]
    lines += draw(st.lists(_FILLER, max_size=3))
    lines = draw(st.permutations(lines))
    at = draw(st.integers(0, len(lines)))
    lines.insert(at, bad)
    if kind == "duplicate":
        # the second of the two lines that set the key is the one reported
        key = bad.partition("=")[0].strip()
        at = [i for i, line in enumerate(lines) if line.partition("=")[0].strip() == key][1]
    return lines, at + 1


def _stub_run_sweep(monkeypatch):
    """Stop a sweep command after its spec parsed: no graph is built."""
    monkeypatch.setattr(cli, "run_sweep", lambda spec: SweepResult((), ()))


@given(case=_spec_with_bad_line())
def test_sweep_spec_fuzz_reports_bad_line(case, tmp_path, capsys, monkeypatch):
    _stub_run_sweep(monkeypatch)
    lines, lineno = case
    spec_path = tmp_path / "fuzz.cfg"
    spec_path.write_bytes("\n".join(lines).encode())
    capsys.readouterr()
    rc = main(["sweep", str(spec_path), "--out", str(tmp_path / "fuzz.csv")])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith(f"error: spec line {lineno}: ") and err.count("\n") == 1, err


_SPEC_LINE = st.one_of(
    _FILLER,
    _LINE,
    st.builds(lambda k, v: f"{k} = {v}",
              st.sampled_from(sorted(_SPEC_CONV) + ["axis", "grid_log"]), _LINE),
    st.builds(lambda k, v: f"{k} = {v}",
              st.sampled_from(sorted(_GOOD_SPEC)), st.sampled_from(sorted(set(_GOOD_SPEC.values())))),
)


@given(lines=st.lists(_SPEC_LINE, max_size=8), eol=st.sampled_from(["\n", "\r\n", "\r"]))
def test_sweep_spec_fuzz_never_raises(lines, eol, tmp_path, capsys, monkeypatch):
    """Whatever the spec file holds, the command either parses it or exits 2
    with one error line; no exception escapes."""
    _stub_run_sweep(monkeypatch)
    spec_path = tmp_path / "fuzz.cfg"
    spec_path.write_bytes(eol.join(lines).encode())
    capsys.readouterr()
    rc = main(["sweep", str(spec_path), "--out", str(tmp_path / "fuzz.csv")])
    out, err = capsys.readouterr()
    if rc == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert rc == 0 and err == "", err


def _not_node_id(text):
    text = text.strip()
    return text != "" and not text.startswith("#") and text != "node,region" and _rejects(_decimal, text)


@st.composite
def _core_set_with_bad_line(draw):
    """Lines of a core-set file for the six-node path with one line that is
    not a node id, and that line's number."""
    good = st.one_of(
        _FILLER,
        st.just("node,region"),
        st.builds(lambda pad, i: f"{pad}{i}{pad}", _PAD, st.integers(0, 5)),
        st.builds(lambda i, pad: f"{i}{pad},{pad}core", st.integers(0, 5), _PAD),
        st.builds(lambda node, region: f"{node},{region}", _LINE,
                  st.sampled_from(["boundary", "exterior", " exterior "])),
    )
    bad = draw(st.one_of(
        _LINE.filter(lambda t: "," not in t and _not_node_id(t)),
        st.builds(lambda node, pad: f"{node},{pad}core{pad}",
                  _LINE.filter(lambda t: "," not in t and _rejects(_decimal, t)
                               and not t.lstrip().startswith("#")), _PAD),
    ))
    lines = draw(st.lists(good, max_size=6))
    at = draw(st.integers(0, len(lines)))
    lines.insert(at, bad)
    return lines, at + 1, bad.strip()


@given(case=_core_set_with_bad_line())
def test_core_set_fuzz_reports_bad_line(case, tmp_path, capsys):
    lines, lineno, bad = case
    graph = write_six_path(tmp_path)
    core = tmp_path / "core.txt"
    core.write_bytes("\n".join(lines).encode())
    capsys.readouterr()
    rc = main(["check", graph, "--core-set", str(core), "--alpha", "0.5", "--rho", "1.0"])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: core-set file line {lineno}: not a node id: {bad!r}\n")


@given(
    lines=st.lists(st.one_of(_FILLER, _LINE, st.builds(str, st.integers(-2, 2**70)),
                             st.builds(lambda t: f"{t},core", _LINE)), max_size=6),
    eol=st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_core_set_fuzz_never_raises(lines, eol, tmp_path, capsys):
    """Whatever the core-set file holds, check either runs or exits 2 with
    one error line; no exception escapes."""
    graph = write_six_path(tmp_path)
    core = tmp_path / "core.txt"
    core.write_bytes(eol.join(lines).encode())
    capsys.readouterr()
    rc = main(["check", graph, "--core-set", str(core), "--alpha", "0.5", "--rho", "1.0"])
    out, err = capsys.readouterr()
    if rc == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert rc in (0, 1) and out.startswith("holds=")


def test_sweep_cli_run_errors_exit_one(tmp_path, capsys):
    spec_path = tmp_path / "spec.cfg"
    spec_path.write_text(SPEC_TEXT.replace("seeds = 0,2", "seeds = 999"))
    rc = main(["sweep", str(spec_path), "--out", str(tmp_path / "e.csv")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "run error at" in captured.err
    assert (tmp_path / "e.csv").exists()  # rows are still written


def test_analytic_star(capsys):
    rc = main(["analytic", "--family", "star", "--m", "4",
               "--alpha", "0.5", "--rho", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "family=star m=4" in out
    assert "validity_interval=[0.0625, 0.25)" in out
    x_dev = float(out.split("max_x_deviation=")[1].split()[0])
    g_dev = float(out.split("max_slack_deviation=")[1].split()[0])
    assert x_dev <= 1e-9 and g_dev <= 1e-9


def test_analytic_path_at_breakpoint(capsys):
    rc = main(["analytic", "--family", "path", "--m", "2",
               "--alpha", "0.5", "--rho", str(1.0 / 7.0)])
    assert rc == 0
    out = capsys.readouterr().out
    g_dev = float(out.split("max_slack_deviation=")[1].split()[0])
    assert g_dev <= 1e-9
    # the near slack is exactly zero at the breakpoint
    near_line = [l for l in out.split("\n") if l.startswith("1,")][-1]
    assert abs(float(near_line.split(",")[1])) <= 1e-15


def test_analytic_outside_interval(capsys):
    rc = main(["analytic", "--family", "star", "--m", "4",
               "--alpha", "0.5", "--rho", "0.05"])
    assert rc == 2
    assert "outside validity interval" in capsys.readouterr().err


ANALYTIC_EPS_ERRORS = {
    "0": "eps must be positive, got 0.0",
    "-1e-9": "eps must be positive, got -1e-09",
    # a solve this loose stops short of the minimizer the slack check needs
    "0.01": "solver result at eps=0.01 fails the slack check: not a minimizer: "
            "active node 0 violates stationarity by 7.217e-03",
    "0.5": "solver result at eps=0.5 fails the slack check: not a minimizer: "
           "inactive node 0 has gradient -2.887e-01 outside [-1.732e-01 - tol, tol]",
    "inf": "solver result at eps=inf fails the slack check: not a minimizer: "
           "inactive node 0 has gradient -2.887e-01 outside [-1.732e-01 - tol, tol]",
}


@pytest.mark.parametrize("eps", list(ANALYTIC_EPS_ERRORS))
def test_analytic_bad_eps(capsys, eps):
    rc = main(["analytic", "--family", "star", "--m", "3",
               "--alpha", "0.5", "--rho", "0.2", f"--eps={eps}"])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: {ANALYTIC_EPS_ERRORS[eps]}\n")


@pytest.mark.parametrize("command, stubbed", [
    ("solve", "solve"), ("check", "check_no_percolation"), ("analytic", "solve"),
])
def test_library_error_after_parsing_exits_2(command, stubbed, tmp_path, capsys, monkeypatch):
    """An input error that the library raises once the arguments have been
    parsed ends as exit code 2 and one error line, as a parse error does."""
    def rejects(*args, **kwargs):
        raise ValueError("rejected by the library")

    monkeypatch.setattr(cli, stubbed, rejects)
    core = tmp_path / "core.txt"
    core.write_text("2\n")
    argv = {
        "solve": ["solve", write_six_path(tmp_path), "--seed-node", "2"],
        "check": ["check", write_six_path(tmp_path), "--core-set", str(core)],
        "analytic": ["analytic", "--family", "star", "--m", "4"],
    }[command]
    rc = main([*argv, "--alpha", "0.5", "--rho", "0.1"])
    assert (rc, capsys.readouterr()) == (2, ("", "error: rejected by the library\n"))


def test_argparse_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing required arguments
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "l1ppr.cli", "analytic", "--family", "star",
         "--m", "2", "--alpha", "0.5", "--rho", "0.2"],
        capture_output=True, text=True, env=SRC_ENV,
    )
    assert proc.returncode == 0
    assert "family=star m=2" in proc.stdout


@pytest.mark.parametrize("family", ["star", "path"])
def test_analytic_size_beyond_memory_exits_2(family):
    """A closed-form instance of 10^12 nodes fails at its first array
    allocation. Run under an address-space cap, so a regression that fills
    memory element by element stops at the cap instead of at the machine's."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from l1ppr.cli import main\n"
        f"sys.exit(main(['analytic', '--family', '{family}', '--m', '1000000000000',"
        " '--alpha', '0.5', '--rho', '1e-13']))\n"
    )
    # one BLAS thread: each one reserves address space for its buffers
    env = {**SRC_ENV, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: Unable to allocate "), proc.stderr
