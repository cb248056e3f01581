import io
import math
from dataclasses import replace

import pytest

import l1ppr.sweep as sweep
from l1ppr.objective import SettingError
from l1ppr.sweep import (
    SweepSpec,
    derive_rng_seed,
    load_edgelist,
    log_grid,
    run_sweep,
    sample_seeds,
    write_rows_csv,
)
from l1ppr.synth import SynthParams, generate

SMALL = SynthParams(core_size=5, boundary_size=10, exterior_size=12,
                    c_bnd=2, deg_b=4, deg_ext=6)


def star_file(tmp_path, m=4):
    path = tmp_path / "star.txt"
    path.write_text("# star\n" + "".join(f"0\t{k}\n" for k in range(1, m + 1)))
    return str(path)


@pytest.mark.parametrize("axis, grid, built, first_of_graph", [
    ("rho", (1e-3, 1e-2, 1e-1), [10], [0, 0, 0]),
    ("boundary_size", (10, 10.5, 12, 10), [10, 12], [0, 0, 2, 0]),
])
def test_points_that_share_generator_settings_share_one_graph(monkeypatch, axis, grid, built,
                                                              first_of_graph):
    """Each distinct generator setting of a sweep is built once, in grid
    order, and its points share the graph."""
    calls = []
    monkeypatch.setattr(sweep, "generate", lambda sp: calls.append(sp) or generate(sp))
    spec = SweepSpec(sweep_axis=axis, grid=grid, synth=replace(SMALL, exterior_size=0))
    points, remap = sweep._prepare_points(spec)
    assert [sp.boundary_size for sp in calls] == built and remap is None
    graphs = [g for _, g, _ in points]
    assert [graphs.index(g) for g in graphs] == first_of_graph


def test_log_grid():
    grid = log_grid(1e-4, 1e-1, 4)
    assert grid[0] == pytest.approx(1e-4) and grid[-1] == pytest.approx(1e-1)
    assert grid[1] == pytest.approx(1e-3) and len(grid) == 4
    assert log_grid(2.0, 2.0, 1) == (2.0,)
    with pytest.raises(ValueError, match="at least 1"):
        log_grid(1e-3, 1e-1, 0)
    with pytest.raises(ValueError, match="lo > 0"):
        log_grid(0.0, 1e-1, 3)
    with pytest.raises(ValueError, match="hi > 0"):
        log_grid(1e-4, -1.0, 3)
    for lo, hi in ((1e-4, math.inf), (math.nan, 1e-1), (1e-4, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            log_grid(lo, hi, 3)
    for count in (2.5, True):  # not left to numpy; True would read as 1
        with pytest.raises(ValueError, match=f"count must be an integer of at least 1, got {count}"):
            log_grid(1.0, 2.0, count)


def test_derive_rng_seed_pinned():
    # pinned values: changing the derivation silently would re-randomize
    # every "deterministic" fresh-graph sweep
    assert derive_rng_seed(0, 0) == 12426054289685354689
    assert derive_rng_seed(0, 1) == 17227200041832915037
    assert derive_rng_seed(7, 3) == 1232913860685451959
    assert derive_rng_seed(0, 0) != derive_rng_seed(1, 0)


def test_sample_seeds():
    g, _ = generate(SMALL)
    a = sample_seeds(g, 5, rng_seed=1)
    b = sample_seeds(g, 5, rng_seed=1)
    assert a.ids.tolist() == b.ids.tolist()
    assert len(set(a.ids.tolist())) == 5
    assert sample_seeds(g, 0, 1).ids.tolist() == []
    assert len(sample_seeds(g, g.n, 1)) == g.n
    assert sample_seeds(g, 5, rng_seed=2).ids.tolist() != a.ids.tolist()
    with pytest.raises(ValueError, match="cannot sample"):
        sample_seeds(g, g.n + 1, 1)
    with pytest.raises(ValueError, match="non-negative"):
        sample_seeds(g, -1, 1)
    for k in (2.5, True):
        with pytest.raises(ValueError, match=f"cannot sample {k} seeds"):
            sample_seeds(g, k, 0)


def test_load_edgelist_truncation(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment\n10 20\n20 30\n30 40\n10 40\n")
    g_full, _ = load_edgelist(str(path))
    assert g_full.n == 4 and g_full.edge_count == 4
    g_cut, remap = load_edgelist(str(path), max_nodes=3)
    assert g_cut.n == 3 and g_cut.edge_count == 2
    assert sorted(remap.tolist()) == [10, 20, 30]
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=f"max_nodes must be an integer, got {bad}"):
            load_edgelist(str(path), max_nodes=bad)


def test_spec_validation(tmp_path):
    ok = dict(sweep_axis="rho", grid=(1e-3, 1e-2), synth=SMALL)
    SweepSpec(**ok)
    with pytest.raises(ValueError, match="sweep_axis"):
        SweepSpec(**{**ok, "sweep_axis": "gamma"})
    with pytest.raises(ValueError, match="nonempty"):
        SweepSpec(**{**ok, "grid": ()})
    with pytest.raises(ValueError, match="exactly one"):
        SweepSpec(**{**ok, "edgelist_path": "x.txt"})
    with pytest.raises(ValueError, match="exactly one"):
        SweepSpec(sweep_axis="rho", grid=(1e-3,))
    with pytest.raises(ValueError, match="synthetic graph source"):
        SweepSpec(sweep_axis="boundary_size", grid=(50,), synth=None,
                  edgelist_path="x.txt")
    with pytest.raises(ValueError, match="synthetic graph source"):
        SweepSpec(**{**ok, "synth": None, "edgelist_path": "x.txt",
                     "per_point_fresh_graph": True})
    with pytest.raises(ValueError, match="positive"):
        SweepSpec(**{**ok, "grid": (0.0, 1e-2)})
    with pytest.raises(ValueError, match="alpha grid"):
        SweepSpec(**{**ok, "sweep_axis": "alpha", "grid": (0.5, 1.2)})
    for count in (0, -1):
        with pytest.raises(ValueError, match="seed_count must be at least 1"):
            SweepSpec(**{**ok, "seeds": None, "seed_count": count})
    SweepSpec(**{**ok, "seed_count": 0})  # not read with seeds
    # no seed is no run, as seed_count < 1 is, not a sweep of no rows
    with pytest.raises(SettingError, match="seeds must be nonempty") as info:
        SweepSpec(**{**ok, "seeds": ()})
    assert info.value.fields == ("seeds",)
    for name, value in (("seed_count", 2.5), ("seed_count", True), ("base_rng_seed", 1.5),
                        ("max_nodes", 2.5), ("max_nodes", True)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SweepSpec(**{**ok, "seeds": None, "per_point_fresh_graph": True, name: value})


def test_run_sweep_shape_and_order():
    spec = SweepSpec(sweep_axis="rho", grid=(1e-2, 1e-3, 3e-3), synth=SMALL,
                     alpha=0.3, eps=1e-8, seeds=(0, 3))
    res = run_sweep(spec)
    assert not res.errors
    assert len(res.rows) == 3 * 2 * 2
    keys = [(r.value, r.method, r.seed) for r in res.rows]
    assert keys == sorted(keys)
    assert all(r.converged for r in res.rows)
    assert all(r.axis == "rho" for r in res.rows)
    # spurious volume is measured against the synthetic core
    assert all(r.spurious_vol >= 0 for r in res.rows)


def test_epsilon_axis_monotone_iterations():
    spec = SweepSpec(sweep_axis="epsilon", grid=(1e-2, 1e-6, 1e-4), synth=SMALL,
                     alpha=0.3, rho=1e-3)
    res = run_sweep(spec)
    for method in ("ista", "fista"):
        iters = [r.iters for r in res.rows if r.method == method]
        # rows sorted by value ascending: tightest tolerance first
        assert iters == sorted(iters, reverse=True)
        assert iters[-1] >= 1


def test_rho_axis_trivial_region(tmp_path):
    spec = SweepSpec(sweep_axis="rho", grid=(0.3, 0.5), alpha=0.5,
                     edgelist_path=star_file(tmp_path), eps=1e-10)
    res = run_sweep(spec)
    assert len(res.rows) == 4 and not res.errors
    for r in res.rows:
        assert r.converged and r.iters == 0 and r.total_work == 0
        assert r.vol_supp == 0 and r.work_per_iter == 0.0
    buf = io.StringIO()
    write_rows_csv(res.rows, buf)
    # an edge-list graph has no core, so spurious_vol is an empty field
    assert all(line.split(",")[9] == "" for line in buf.getvalue().splitlines()[1:])


def test_fresh_graphs_change_between_points():
    base = SynthParams(core_size=10, boundary_size=14, exterior_size=0,
                       c_bnd=3, deg_b=4, deg_ext=0, core_density=0.3)
    spec = SweepSpec(sweep_axis="epsilon", grid=(1e-6, 1e-6), synth=base,
                     alpha=0.3, rho=5e-3, per_point_fresh_graph=True)
    res = run_sweep(spec)
    assert not res.errors and len(res.rows) == 4
    fista = [r for r in res.rows if r.method == "fista"]
    assert (fista[0].total_work, fista[0].vol_supp, fista[0].residual) != \
           (fista[1].total_work, fista[1].vol_supp, fista[1].residual)
    again = run_sweep(spec)
    assert again.rows == res.rows


def test_bad_seed_becomes_error_row():
    spec = SweepSpec(sweep_axis="rho", grid=(1e-3,), synth=SMALL, seeds=(999,))
    res = run_sweep(spec)
    assert len(res.errors) == 2 and "out of range" in res.errors[0].message
    for r in res.rows:
        assert not r.converged and r.iters == 0 and math.isnan(r.residual)


def test_edgelist_seeds_are_file_ids(tmp_path):
    """On an edge list the seeds, given or sampled, are the file's node ids:
    a star on ids 100-104 solves from its hub 100, and an id the file lacks
    becomes an error row. Without a baseline no row has a spurious volume,
    an error row included."""
    path = tmp_path / "star.txt"
    path.write_text("".join(f"100\t{100 + k}\n" for k in range(1, 5)))
    spec = SweepSpec(sweep_axis="rho", grid=(0.1,), alpha=0.5, edgelist_path=str(path), seeds=(100, 3))
    res = run_sweep(spec)
    assert [e.seed for e in res.errors] == [3, 3]
    assert "seed node 3 not present in the graph" in res.errors[0].message
    hub = [r for r in res.rows if r.seed == 100]
    assert len(hub) == 2 and all(r.converged and r.vol_supp == 4 for r in hub)
    assert [r.spurious_vol for r in res.rows] == [None] * 4
    sampled = run_sweep(SweepSpec(sweep_axis="rho", grid=(0.1,), alpha=0.5, edgelist_path=str(path),
                                  seeds=None, seed_count=5))
    assert not sampled.errors and {r.seed for r in sampled.rows} == set(range(100, 105))


def test_sampled_seeds_are_deterministic():
    spec = SweepSpec(sweep_axis="rho", grid=(1e-3,), synth=SMALL,
                     seeds=None, seed_count=3, base_rng_seed=5)
    res1 = run_sweep(spec)
    res2 = run_sweep(spec)
    assert res1.rows == res2.rows
    assert len({r.seed for r in res1.rows}) == 3


def test_csv_format_and_reruns_byte_identical(tmp_path):
    spec = SweepSpec(sweep_axis="rho", grid=(3e-3, 1e-3), synth=SMALL,
                     alpha=0.3, eps=1e-8, seeds=(0, 2))
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_rows_csv(run_sweep(spec).rows, buf1)
    write_rows_csv(run_sweep(spec).rows, buf2)
    text = buf1.getvalue()
    assert text == buf2.getvalue()
    lines = text.strip().split("\n")
    assert lines[0] == ("axis,value,method,seed,iters,total_work,converged,residual,"
                        "vol_supp,spurious_vol,work_per_iter")
    assert len(lines) == 1 + 2 * 2 * 2
    fields = lines[1].split(",")
    assert len(fields) == 11
    assert fields[0] == "rho" and fields[2] in ("fista", "ista")
    assert fields[6] in ("true", "false")
