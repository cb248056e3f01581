"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [--workload cli_pipeline] [--seconds N]

Checks three properties of ``run.py`` on one workload:

1. the exact counters of a traced run (units ``count`` and ``bytes``) repeat
   bit-for-bit across two traced runs with the same seed;
2. a wrong result injected into one op is counted as a failure;
3. two different workload seeds give every end-to-end metric within the
   bound that ``BENCHMARK.json`` fixes for it.

Exits 0 when all three hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "bytes")


def run(workload: str, seed: int, seconds: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", str(trace), *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="cli_pipeline")
    ap.add_argument("--seconds", help="seconds per run (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    args.seconds = args.seconds or str(spec["run_seconds"])
    ok = True

    a, b = (run(args.workload, 1, args.seconds, 1) for _ in range(2))
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    differ = [n for n in exact if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
    ok &= a["correct"] and b["correct"] and not differ
    print(f"exact counters repeat across traced runs: {not differ} "
          f"({len(exact)} counters{', differing: ' + ', '.join(differ) if differ else ''})")

    faulty = run(args.workload, 1, args.seconds, 0, "--inject-fault")
    caught = not faulty["correct"] and faulty["failed"] >= 1
    ok &= caught
    print(f"injected wrong result is counted: {caught} "
          f"(failed={faulty['failed']} of {faulty['attempted']})")

    r1, r2 = run(args.workload, 1, args.seconds, 0), run(args.workload, 2, args.seconds, 0)
    for m in spec["end_to_end"]:
        v1, v2 = r1["metrics"][m["name"]]["value"], r2["metrics"][m["name"]]["value"]
        rel = abs(v2 - v1) / v1
        within = rel <= m["bound"]
        ok &= within
        print(f"seeds 1 and 2 agree on {m['name']}: {within} "
              f"({v1:.6g} vs {v2:.6g}: relative difference {rel:.3f}, bound {m['bound']})")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
