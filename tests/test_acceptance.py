"""End-to-end acceptance checks.

One test per numbered guarantee (closed forms, oracle equivalence, rate
envelope, sparsity bound, monotonicity, confinement, jump audit, work model,
boundary-sweep trend, trivial region, iterate monotonicity, degree cutoff,
determinism), plus edge-list ingestion. The terminal summary prints one
PASS/FAIL line per criterion; see conftest.py.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from l1ppr import (
    NodeSet,
    ProblemParams,
    SolverConfig,
    SweepSpec,
    SynthParams,
    build_from_edges,
    check_no_percolation,
    degree_cutoff,
    generate,
    jump_audit,
    objective_value,
    path_instance,
    rate_envelope,
    run_sweep,
    slacks,
    solve,
    star_instance,
    two_tier_split,
    verify_confinement,
    volume,
)
from l1ppr.cli import main as cli_main
from l1ppr.sweep import load_edgelist

from oracle import build_dense, dense_solve, random_connected_graph

ALPHAS = (0.1, 0.5, 0.9)
T_GRID = (0.0, 0.25, 0.5, 0.75, 0.9375)  # fractions of the validity interval


def support_at(x, tol):
    return sorted(i for i, v in x.items() if abs(v) > tol)


def analytic_cases(family):
    ms = (1, 4, 16) if family == "star" else (2, 4, 16)
    make = star_instance if family == "star" else path_instance
    for alpha in ALPHAS:
        for m in ms:
            inst = make(m)
            lo, hi = inst.valid_interval(alpha)
            for t in T_GRID:
                yield inst, alpha, t, lo + t * (hi - lo)


def _check_analytic_family(family):
    for inst, alpha, t, rho in analytic_cases(family):
        p = ProblemParams(alpha, rho, inst.seed, 1)
        want = inst.solution_formula(alpha, rho)
        sols = {
            m: solve(inst.graph, p, SolverConfig(method=m, eps=1e-10))
            for m in ("ista", "fista")
        }
        for m, sol in sols.items():
            assert sol.trace.converged
            # support measured at the criterion's own 1e-8 resolution: at the
            # breakpoint (t=0) the momentum method parks sub-1e-8 dust on the
            # zero-slack nodes, while the plain method is exact everywhere
            assert support_at(sol.x, 1e-8) == [inst.seed], (family, alpha, t, m)
            assert abs(sol.x.get(inst.seed) - want.get(inst.seed)) <= 1e-8
        assert sols["ista"].support.ids.tolist() == [inst.seed]
        rep = slacks(inst.graph, p, sols["ista"].x)
        for i, gamma in inst.slack_formula(alpha, rho).items():
            assert abs(rep.slack_at(i) - gamma) <= 1e-8
        if t == 0.0:
            assert rep.min_slack <= 1e-8
        if family == "path":
            for i in range(2, inst.m + 2):  # beyond the seed's neighbor
                assert rep.slack_at(i) == p.reg_level


def test_c01_star_closed_form():
    t0 = time.monotonic()
    _check_analytic_family("star")
    assert time.monotonic() - t0 < 5.0


def test_c02_path_closed_form():
    t0 = time.monotonic()
    _check_analytic_family("path")
    assert time.monotonic() - t0 < 5.0


@pytest.fixture(scope="module")
def random_suite():
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(50):
        n = int(rng.integers(10, 51))
        g = random_connected_graph(rng, n)
        cases.append(
            (
                g,
                ProblemParams(
                    alpha=float(rng.uniform(0.05, 0.9)),
                    rho=float(rng.uniform(1e-3, 0.5)),
                    seed=int(rng.integers(0, n)),
                    reg_factor=1,
                ),
            )
        )
    return cases


def test_c03_dense_oracle_equivalence(random_suite):
    t0 = time.monotonic()
    for g, p in random_suite:
        want = dense_solve(build_dense(g, p, check_spectrum=False))
        for method in ("ista", "fista"):
            sol = solve(g, p, SolverConfig(method=method, eps=1e-10))
            assert sol.trace.converged
            got = sol.x.values_at(np.arange(g.n))
            assert np.max(np.abs(got - want)) <= 1e-6
    assert time.monotonic() - t0 < 30.0


def test_c04_rate_envelope(random_suite):
    checked = 0
    for family in ("star", "path"):
        for inst, alpha, t, rho in analytic_cases(family):
            p = ProblemParams(alpha, rho, inst.seed, 1)
            cfg = SolverConfig(method="fista", eps=1e-10, trace_level="full")
            sol = solve(inst.graph, p, cfg)
            f_star = objective_value(inst.graph, p, inst.solution_formula(alpha, rho))
            points = rate_envelope(inst.graph, p, cfg, sol.trace, f_star)
            assert not any(pt.violates() for pt in points)
            checked += len(points)
    for g, p in random_suite:
        ref = solve(g, p, SolverConfig(method="ista", eps=1e-12))
        f_star = objective_value(g, p, ref.x)
        cfg = SolverConfig(method="fista", eps=1e-10, trace_level="full")
        sol = solve(g, p, cfg)
        points = rate_envelope(g, p, cfg, sol.trace, f_star)
        assert not any(pt.violates() for pt in points)
        checked += len(points)
    assert checked > 100


def test_c05_support_volume_bound(random_suite):
    for g, p in random_suite:
        for method in ("ista", "fista"):
            sol = solve(g, p, SolverConfig(method=method, eps=1e-10))
            assert volume(g, sol.support) <= 1.0 / p.rho


def test_c06_regularization_monotone_and_two_tier(random_suite):
    for g, p in random_suite:
        cfg = SolverConfig(method="fista", eps=1e-11)
        x_a = solve(g, replace(p, reg_factor=1), cfg).x
        x_b = solve(g, replace(p, reg_factor=2), cfg).x
        for i in set(x_a.support().tolist()) | set(x_b.support().tolist()):
            assert x_b.get(i) <= x_a.get(i) + 1e-9
        split = two_tier_split(g, p)
        assert split.witness  # small-slack inactive set of B inside supp(A)


# sparse tree-like core: the seed's neighbors sit just outside the support
# with small slack, so momentum overshoot produces real spurious activations
# for the jump audit while the exposure check still certifies confinement
CONF_ALPHA, CONF_RHO = 0.35, 0.003


def confinement_instances():
    out = []
    for b in np.linspace(50, 200, 10).astype(int):
        params = SynthParams(core_size=20, boundary_size=int(b), exterior_size=200,
                             c_bnd=10, deg_b=40, deg_ext=198, core_density=0.1)
        g, part = generate(params)
        out.append((g, part))
    return out


def test_c07_confinement():
    t0 = time.monotonic()
    for g, part in confinement_instances():
        p = ProblemParams(CONF_ALPHA, CONF_RHO, seed=0, reg_factor=1)
        assert check_no_percolation(g, p, part.core).holds
        heavier = solve(g, replace(p, reg_factor=2), SolverConfig(method="ista", eps=1e-10))
        assert heavier.support.issubset(part.core)
        cfg = SolverConfig(method="fista", eps=1e-8, trace_level="full")
        sol = solve(g, p, cfg)
        assert sol.trace.converged
        report = verify_confinement(g, p, cfg, part.core, sol.trace)
        assert report.confined, report.violations
    assert time.monotonic() - t0 < 60.0


def test_c08_jump_audit_on_confinement_traces():
    audited = 0
    for g, part in confinement_instances():
        p = ProblemParams(CONF_ALPHA, CONF_RHO, seed=0, reg_factor=1)
        cfg = SolverConfig(method="fista", eps=1e-8, trace_level="full")
        trace = solve(g, p, cfg).trace
        x_star = solve(g, p, SolverConfig(method="ista", eps=1e-12)).x
        assert jump_audit(g, p, trace, x_star) == []
        star_supp = set(x_star.support().tolist())
        audited += sum(
            sum(1 for i in x_nodes.tolist() if i not in star_supp)
            for _, _, x_nodes, _ in trace.snapshots
        )
    # the audit must actually have had activations to examine
    assert audited > 0


def test_c09_work_model_replay():
    runs = []
    g, part = confinement_instances()[0]
    runs.append((g, ProblemParams(CONF_ALPHA, CONF_RHO, 0, 1)))
    runs.append((star_instance(16).graph, ProblemParams(0.3, 0.02, 0, 1)))
    rng = np.random.default_rng(5)
    runs.append((random_connected_graph(rng, 40), ProblemParams(0.2, 0.01, 3, 1)))
    for g, p in runs:
        for method in ("ista", "fista"):
            cfg = SolverConfig(method=method, eps=1e-9, trace_level="full")
            trace = solve(g, p, cfg).trace
            total = 0
            for (y_nodes, _, x_nodes, _), vy, vx in zip(
                    trace.snapshots, trace.vol_supp_y, trace.vol_supp_x_next, strict=True):
                vol_y = volume(g, NodeSet(y_nodes))
                vol_x = volume(g, NodeSet(x_nodes))
                assert vy + vx == vol_y + vol_x
                total += vy + vx
            assert total == trace.total_work


def test_c10_boundary_sweep_trend_and_crossover():
    t0 = time.monotonic()
    spec = SweepSpec(
        sweep_axis="boundary_size",
        grid=(50.0, 100.0, 200.0, 400.0, 600.0, 800.0),
        synth=SynthParams(),
        alpha=0.20,
        rho=1e-4,
        eps=1e-6,
        seeds=(0,),
    )
    res = run_sweep(spec)
    assert not res.errors
    assert all(r.converged for r in res.rows)
    work = {(r.method, r.value): r.total_work for r in res.rows}
    sizes = sorted(spec.grid)
    fista_work = [work[("fista", b)] for b in sizes]
    corr = float(spearmanr(sizes, fista_work).statistic)
    assert corr > 0.0
    assert any(work[("fista", b)] > work[("ista", b)] for b in sizes)
    assert time.monotonic() - t0 < 300.0


def test_c11_trivial_region_costs_nothing():
    # 1-core + 4-boundary block family is exactly the 4-leaf star; the
    # solution collapses to zero at rho = 1/4
    star_params = SynthParams(core_size=1, boundary_size=4, exterior_size=0,
                              c_bnd=4, deg_b=0, deg_ext=0)
    spec = SweepSpec(sweep_axis="rho", grid=(0.1, 0.2, 0.3, 0.5), alpha=0.5,
                     eps=1e-10, synth=star_params)
    res = run_sweep(spec)
    assert not res.errors
    for r in res.rows:
        assert r.converged
        if r.value >= 0.25:
            # zero solution: nothing beyond the initial residual check, which
            # the ledger prices at zero
            assert r.vol_supp == 0 and r.total_work == 0 and r.iters == 0
        else:
            assert r.vol_supp > 0 and r.total_work > 0


def test_c12_ista_iterates_monotone(random_suite):
    instances = []
    for family in ("star", "path"):
        make = star_instance if family == "star" else path_instance
        inst = make(4)
        for alpha in ALPHAS:
            lo, hi = inst.valid_interval(alpha)
            for t in (0.0, 0.5):
                instances.append((inst.graph, ProblemParams(alpha, lo + t * (hi - lo), 0, 1)))
    instances.extend(random_suite[:10])
    g_syn, _ = generate(SynthParams(core_size=8, boundary_size=20, exterior_size=30,
                                    c_bnd=4, deg_b=6, deg_ext=10))
    instances.append((g_syn, ProblemParams(0.3, 1e-3, 0, 1)))
    for g, p in instances:
        cfg = SolverConfig(method="ista", eps=1e-10, trace_level="full")
        trace = solve(g, p, cfg).trace
        prev = np.zeros(g.n)
        prev_supp: set[int] = set()
        for _, _, x_nodes, x_vals in trace.snapshots:
            cur = np.zeros(g.n)
            cur[x_nodes] = x_vals
            assert np.all(cur >= 0.0)
            assert np.all(cur - prev >= 0.0)
            supp = set(x_nodes.tolist())
            assert prev_supp <= supp
            prev, prev_supp = cur, supp


def test_c13_high_degree_node_never_activates():
    # seed - relay - hub - 279 leaves: the hub's degree exceeds the cutoff,
    # so after being inactive at the base penalty it must stay out of every
    # doubled-penalty iterate
    n_leaves = 279
    edges = [(0, 1), (1, 2)] + [(2, 3 + j) for j in range(n_leaves)]
    g, _ = build_from_edges(edges)
    alpha, rho = 0.9, 0.3
    hub = 2
    assert g.degrees[hub] == n_leaves + 1
    assert g.degrees[hub] > degree_cutoff(alpha, rho)
    p_a = ProblemParams(alpha, rho, seed=0, reg_factor=1)
    sol_a = solve(g, p_a, SolverConfig(method="ista", eps=1e-12))
    assert hub not in sol_a.support
    assert len(sol_a.support) > 0
    p_b = ProblemParams(alpha, rho, seed=0, reg_factor=2)
    cfg = SolverConfig(method="fista", eps=1e-12, trace_level="full")
    trace = solve(g, p_b, cfg).trace
    for y_nodes, _, x_nodes, _ in trace.snapshots:
        assert hub not in x_nodes
        assert hub not in y_nodes


SWEEP_SPEC_TEXT = """\
axis = rho
grid_log = 2e-3, 8e-3, 3
alpha = 0.4
eps = 1e-8
seed_count = 2
per_point_fresh_graph = true
base_rng_seed = 11
core_size = 10
boundary_size = 14
exterior_size = 0
c_bnd = 3
deg_b = 4
deg_ext = 0
core_density = 0.5
"""


def test_c14_sweep_determinism(tmp_path):
    spec_path = tmp_path / "spec.cfg"
    spec_path.write_text(SWEEP_SPEC_TEXT)
    first, second = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli_main(["sweep", str(spec_path), "--out", first]) == 0
    assert cli_main(["sweep", str(spec_path), "--out", second]) == 0
    b1 = (tmp_path / "a.csv").read_bytes()
    b2 = (tmp_path / "b.csv").read_bytes()
    assert b1 == b2
    assert len(b1.decode().strip().split("\n")) == 1 + 3 * 2 * 2


def test_edgelist_round_trip_and_truncated_smoke_sweep(tmp_path):
    t0 = time.monotonic()
    out = str(tmp_path / "g.txt")
    rc = cli_main(["gen", "--core-size", "5", "--boundary-size", "10",
                   "--exterior-size", "12", "--c-bnd", "2", "--deg-b", "4",
                   "--deg-ext", "6", "--out", out])
    assert rc == 0
    g1, remap1 = load_edgelist(out)
    rt = tmp_path / "rt.txt"
    rt.write_text("".join(f"{u}\t{v}\n" for u, v in g1.edge_array().tolist()))
    g2, remap2 = load_edgelist(str(rt))
    assert g1.equals(g2)
    assert remap1.tolist() == remap2.tolist()
    spec = SweepSpec(sweep_axis="epsilon", grid=(1e-4, 1e-6), alpha=0.3,
                     rho=1e-3, edgelist_path=out, max_nodes=20)
    res = run_sweep(spec)
    assert not res.errors
    assert len(res.rows) == 4 and all(r.converged for r in res.rows)
    assert time.monotonic() - t0 < 60.0
