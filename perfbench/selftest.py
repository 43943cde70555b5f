"""Self-test of the esspath benchmark, at a tiny size on A3 and D4.

Run from the root of a checkout (about 15 s):

    python3 perfbench/selftest.py

Every workload runs untraced and traced; every metric that BENCHMARK.json
lists must be reported with its unit.  Planted wrong answers (a tampered
expected dimension, corrupted query results, a flipped verdict) must count
as failures and make the run incorrect, while the documented sampler defect
counts as a failure without doing so.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile

from run import ROOT, limit_environment


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def scaled(out, factor: float = 1.1):
    if hasattr(out, "entries"):  # a Decomposition
        return dataclasses.replace(
            out, entries=tuple((v, i, j, g * factor) for v, i, j, g in out.entries))
    return out * factor


def main() -> int:
    limit_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    from esspath.endo import CheckReport

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    tiny = {
        "dims_sweep": lambda: bench.DimsSweep(1, cases=(("A3", None), ("D4", None))),
        "verify_a6 on A3": lambda: bench.VerifyA6(1, graph="A3", samples=5),
        "verify_a6 on D4": lambda: bench.VerifyA6(1, graph="D4", samples=5),
        "path_queries": lambda: bench.PathQueries(1, graphs=("A3", "D4"), block=40),
    }
    expect(set(spec["command"]) >= {"perfbench/run.py"}
           and {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS),
           "BENCHMARK.json names run.py and exactly the benchmark's workloads")
    for label, make in tiny.items():
        for trace in (False, True):
            run = bench.measure(make(), 0.01, trace)
            res = bench.result(run, trace)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            expect(got == units[trace],
                   f"{label} trace={int(trace)}: every metric printed with its unit")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{label} trace={int(trace)}: {res['attempted']} operations, all right")

    # a tampered expected dimension
    wrong_table = dict(bench.EXPECTED_DIMS, A3=(3, 5, 3))
    run = bench.measure(bench.DimsSweep(1, cases=(("A3", None),), expected=wrong_table),
                        0.01, False)
    res = bench.result(run, False)
    expect(not res["correct"] and res["failed"] == res["attempted"],
           "a tampered expected dimension fails every dims operation")

    # corrupted query results: the first query of each kind per pass
    class Corrupted(bench.PathQueries):
        planted = 0

        def run_pass(self, queries, tracer):
            ops, extra = super().run_pass(queries, tracer)
            seen = set()
            for op in ops:
                if op.label not in seen and (op.label == "decompose" or op.output.norm() > 0):
                    seen.add(op.label)
                    op.output = scaled(op.output)
                    Corrupted.planted += 1
            return ops, extra

    run = bench.measure(Corrupted(1, graphs=("A3", "D4"), block=40), 0.01, False)
    res = bench.result(run, False)
    expect(not res["correct"] and Corrupted.planted >= 4
           and res["failed"] == Corrupted.planted,
           f"all {Corrupted.planted} corrupted query results are counted as failed")

    # a flipped verdict, and the sampler defect's exact signature
    class Flipped(bench.VerifyA6):
        def run_pass(self, inputs, tracer):
            ops, _ = super().run_pass(inputs, tracer)
            ops[2].output = [dataclasses.replace(ops[2].output[0], passed=False)]
            reports = [r for op in ops for r in op.output]
            return ops, bench.jsonio.render([bench.jsonio.report_obj(r) for r in reports])

    run = bench.measure(Flipped(1, graph="A3", samples=5), 0.01, False)
    res = bench.result(run, False)
    expect(not res["correct"] and res["failed"] == len(run.walls),
           "a FAIL verdict on a theorem is a wrong answer, once per pass")
    wl = bench.VerifyA6(1, samples=50)
    short = CheckReport("bullet_associativity", 0.0, 1e-9, False, "27 random essential triples")
    broken = dataclasses.replace(short, residual=1.0)
    ops = [bench.Op("bullet_associativity", 0.0, [r], None) for r in (short, broken)]
    rendered = bench.jsonio.render([bench.jsonio.report_obj(r) for r in (short, broken)])
    expect(wl.check(ops, rendered) == [bench.KNOWN_DEFECT, f"FAIL: {broken.witness}"],
           "only a short sample with zero residual is the known sampler defect")

    # without the package sources the benchmark refuses to run
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
        shutil.copytree(ROOT / "perfbench", f"{tmp}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dims_sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "with no src/ the benchmark exits nonzero and prints no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
