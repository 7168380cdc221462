#!/usr/bin/env python3
"""Self-tests of the benchmark itself (about two minutes; run from the repo root).

    python3 perfbench/selftest.py

1. BENCHMARK.json is well formed: key set, name/unit/why limits, bounds,
   a setup_s metric, and a command that stays inside the benchmark paths.
2. The binary's catalogue (perfbench --list) is exactly what BENCHMARK.json
   declares: the same workloads, metric names and units, in order.
3. Every workload, on shrunken worlds (--smoke), emits every declared metric
   of both modes, every value finite, with all output checks passing.
4. Every output check a workload evaluates trips (correct = false, at least
   one failed operation) when its input is deliberately perturbed.
5. Without the repository sources beside it, run.py exits non-zero within
   the time limit and prints no result.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the entry point's build helper)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_benchmark_json(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json key set")
    expect(1 <= len(spec["paths"]) <= 16 and all(
        PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        for p in spec["paths"]), "paths are short relative paths")
    cmd = spec["command"]
    expect(len(cmd) <= 32 and all(len(c) <= 200 for c in cmd), "command size")
    files = [c for c in cmd if "/" in c]
    expect(all(any(c.startswith(p + "/") for p in spec["paths"]) for c in files),
           "command names no file outside paths")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
           "run_seconds is a whole number in [1, 60]")
    expect(2 <= len(spec["workloads"]) <= 8 and all(
        set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        for w in spec["workloads"]), "workloads: 2 to 8, name + one-line why")
    expect(1 <= len(spec["end_to_end"]) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        and m["better"] in ("lower", "higher") for m in spec["end_to_end"]),
        "end_to_end: keys, better, bound <= 0.25")
    expect(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]), "setup_s declared")
    setup_bound = [m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(setup_bound and setup_bound[0] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s has the largest bound")
    expect(1 <= len(spec["per_layer"]) <= 128 and all(
        set(m) == {"name", "unit", "better"} for m in spec["per_layer"]),
        "per_layer: 1 to 128, keys")
    names = [x["name"] for k in ("workloads", "end_to_end", "per_layer")
             for x in spec[k]]
    expect(all(NAME.match(n) for n in names), "names are valid")
    expect(len(names) == len(set(names)), "names are unique")
    expect(all(UNIT.match(m["unit"]) for k in ("end_to_end", "per_layer")
               for m in spec[k]), "units are valid")
    expect(len(json.dumps(spec)) <= 64 * 1024, "file is at most 64 KiB")


def invoke(binary, *args):
    proc = subprocess.run([binary, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT)
    return proc


def smoke(binary, workload, trace, perturb=None):
    args = ["--workload", workload, "--seed", "42", "--seconds", "1",
            "--trace", trace, "--smoke"]
    if perturb:
        args += ["--perturb", perturb]
    proc = invoke(binary, *args)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    evaluated = []
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench: checks evaluated:"):
            evaluated = line.split(":", 2)[2].split()
    return proc.returncode, result, evaluated


def check_bare_checkout(spec):
    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    start = time.time()
    proc = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip() and time.time() - start < 180,
           "without the sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_benchmark_json(spec)

    binary = run.build()
    catalogue = json.loads(invoke(binary, "--list").stdout)
    expect(catalogue["workloads"] == [w["name"] for w in spec["workloads"]],
           "binary workloads == BENCHMARK.json workloads")
    for mode in ("end_to_end", "per_layer"):
        expect([(m["name"], m["unit"]) for m in catalogue[mode]] ==
               [(m["name"], m["unit"]) for m in spec[mode]],
               f"binary {mode} catalogue == BENCHMARK.json")

    for w in catalogue["workloads"]:
        for trace, mode in (("0", "end_to_end"), ("1", "per_layer")):
            code, result, evaluated = smoke(binary, w, trace)
            ok = code == 0 and result is not None
            expect(ok and result["correct"] and result["failed"] == 0 and
                   result["attempted"] >= 1, f"{w} --trace {trace}: outputs correct")
            expect(ok and [(k, v["unit"]) for k, v in result["metrics"].items()] ==
                   [(m["name"], m["unit"]) for m in spec[mode]] and all(
                       math.isfinite(v["value"]) for v in result["metrics"].values()),
                   f"{w} --trace {trace}: every declared metric, finite")
            if trace == "0":
                continue
            expect(len(evaluated) >= 4, f"{w}: evaluates its output checks")
            for check in evaluated:
                code, result, _ = smoke(binary, w, trace, perturb=check)
                expect(code == 0 and result is not None and not result["correct"]
                       and result["failed"] >= 1, f"{w}: perturbed {check} trips")
        code, _, _ = smoke(binary, w, "0", perturb="no-such-check")
        expect(code == 3, f"{w}: perturbing an unknown check is refused")

    check_bare_checkout(spec)
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
