"""Byte-for-byte pins of the command-line outputs on the small synthetic
graph: ``gen`` and ``gen --help``, ``solve --trace --solution-out`` for both
methods, ``check``, four sweeps (synthetic rho, boundary_size, fresh-graph
alpha, and an edge list), and ``analytic`` on the star and the path. The expected files live in ``tests/golden/``.
Rewrite them only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from l1ppr.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

GEN_FLAGS = ["--core-size", "5", "--boundary-size", "10", "--exterior-size", "12",
             "--c-bnd", "2", "--deg-b", "4", "--deg-ext", "6"]
SMALL_SYNTH = "core_size = 5\nexterior_size = 12\nc_bnd = 2\ndeg_b = 4\ndeg_ext = 6\n"
SPECS = {
    "sweep_rho": "axis = rho\ngrid = 0.003,0.001\nalpha = 0.3\neps = 1e-8\nseeds = 0,2\n"
                 "boundary_size = 10\n" + SMALL_SYNTH,
    "sweep_boundary_size": "axis = boundary_size\ngrid = 8,10.5,14\nalpha = 0.3\nrho = 1e-3\n"
                           "eps = 1e-8\nseeds = 0,3\n" + SMALL_SYNTH,
    "sweep_alpha_fresh": "axis = alpha\ngrid_log = 0.1, 0.5, 3\nrho = 1e-3\neps = 1e-8\n"
                         "seed_count = 2\nbase_rng_seed = 7\nper_point_fresh_graph = yes\n"
                         "boundary_size = 10\ncore_density = 0.6\n" + SMALL_SYNTH,
    "sweep_edgelist": "axis = epsilon\ngrid = 1e-4,1e-8\nalpha = 0.3\nrho = 1e-3\n"
                      "seeds = 1,4\nedgelist_path = gen.txt\n",
}
ANALYTIC = {
    "analytic_star": ["--family", "star", "--m", "4", "--alpha", "0.5", "--rho", "0.1"],
    "analytic_path": ["--family", "path", "--m", "5", "--alpha", "0.3", "--rho", "0.25"],
}


def _run(argv: list[str], code: int = 0) -> bytes:
    """Run the command line in the current directory and return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = main(argv)
        except SystemExit as exc:  # --help
            rc = exc.code
    assert rc == code, (argv, rc)
    return out.getvalue().encode()


def outputs() -> dict[str, bytes]:
    """Every pinned output by file name, produced in the current directory
    (which must be empty) with ``COLUMNS=80`` for the help text."""
    got = {"gen.out": _run(["gen", *GEN_FLAGS, "--out", "gen.txt"]),
           "gen_help.txt": _run(["gen", "--help"])}
    for method in ("ista", "fista"):
        got[f"solve_{method}.out"] = _run(
            ["solve", "gen.txt", "--alpha", "0.3", "--rho", "1e-3", "--eps", "1e-8",
             "--method", method, "--seed-node", "2", "--trace", f"solve_{method}.trace.csv",
             "--solution-out", f"solve_{method}.x.csv"])
    got["check.out"] = _run(["check", "gen.txt", "--core-set", "gen.txt.partition.csv",
                             "--alpha", "0.3", "--rho", "0.05"], code=1)
    for name, text in SPECS.items():
        Path(f"{name}.cfg").write_text(text, encoding="utf-8")
        got[f"{name}.out"] = _run(["sweep", f"{name}.cfg", "--out", f"{name}.csv"])
    for name, flags in ANALYTIC.items():
        got[f"{name}.out"] = _run(["analytic", *flags])
    for path in sorted(Path(".").iterdir()):
        if path.suffix in (".txt", ".csv") and path.name not in got:
            got[path.name] = path.read_bytes()
    return got


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    got = outputs()
    assert sorted(got) == sorted(p.name for p in GOLDEN.iterdir())
    for name, data in got.items():
        assert data == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        GOLDEN.mkdir(exist_ok=True)
        for name, data in outputs().items():
            (GOLDEN / name).write_bytes(data)
    print(f"wrote {GOLDEN}", file=sys.stderr)
