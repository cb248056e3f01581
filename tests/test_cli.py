import subprocess
import sys

import numpy as np
import pytest

from l1ppr.cli import _map_original_ids, main
from l1ppr.sweep import SweepSpec, load_edgelist, run_sweep, write_rows_csv
from l1ppr.synth import SynthParams, generate

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


def test_gen_invalid_params(tmp_path, capsys):
    out = str(tmp_path / "g.txt")
    rc = main(["gen", "--core-size", "3", "--boundary-size", "20", "--c-bnd", "30",
               "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds boundary_size" in err


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


def test_map_original_ids_between_and_beyond_present_ids():
    remap = np.array([2, 5, 9], dtype=np.int64)
    assert _map_original_ids(remap, [5, 9, 2, 5], "node") == [1, 2, 0, 1]
    assert _map_original_ids(remap, [], "node") == []
    for missing in (0, 3, 6, 10, -1, 2**70):
        with pytest.raises(ValueError, match=f"^core node {missing} not present in the graph$"):
            _map_original_ids(remap, [2, missing], "core node")


def test_check_pass_and_fail(tmp_path, capsys):
    graph = write_six_path(tmp_path)
    core = tmp_path / "core.txt"
    core.write_text("2\n")
    rc = main(["check", graph, "--core-set", str(core),
               "--alpha", "0.5", "--rho", "1.45", "--reg-factor", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "holds=true" in out and "worst_node=0" in out
    rc = main(["check", graph, "--core-set", str(core),
               "--alpha", "0.5", "--rho", "1.40", "--reg-factor", "1"])
    assert rc == 1
    assert "holds=false" in capsys.readouterr().out


def test_check_accepts_partition_csv(tmp_path, capsys):
    graph = write_six_path(tmp_path)
    core = tmp_path / "part.csv"
    core.write_text("node,region\n2,core\n1,boundary\n4,exterior\n")
    rc = main(["check", graph, "--core-set", str(core),
               "--alpha", "0.5", "--rho", "1.45", "--reg-factor", "1"])
    assert rc == 0
    assert "worst_node=0" in capsys.readouterr().out


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
    ]
    for text, msg in cases:
        spec_path = tmp_path / "bad.cfg"
        spec_path.write_text(text)
        rc = main(["sweep", str(spec_path), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert msg in capsys.readouterr().err


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


@pytest.mark.parametrize("eps", ["0", "-1e-9"])
def test_analytic_bad_eps(capsys, eps):
    rc = main(["analytic", "--family", "star", "--m", "3",
               "--alpha", "0.5", "--rho", "0.2", f"--eps={eps}"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: eps must be positive, got {float(eps)}\n"


def test_argparse_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing required arguments
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "l1ppr.cli", "analytic", "--family", "star",
         "--m", "2", "--alpha", "0.5", "--rho", "0.2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "family=star m=2" in proc.stdout
