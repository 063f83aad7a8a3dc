#!/usr/bin/env python3
"""Build and run the qmg benchmark (stdlib only).

Whole run, every workload one after another, each in its own process:

    python3 benchmark/run.py --seed 7 [--seconds 20] [--trace 1]

One workload (the form BENCHMARK.json's command takes):

    python3 benchmark/run.py --workload prop-fine --seed 7 --seconds 20 \\
        --trace 0

qmg_bench is built in build-bench/ (Release, the library's own flags, no
-march) on first use.  Every metric is printed as `name value unit`.  With
--workload the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"} holding the end-to-end
metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1).
A whole run with --trace 1 makes a traced run of every workload after the
untraced ones and prints the tracing overhead.  Each run leaves a result
file (samples, exact counts, checks, provenance) in build-bench/results/
(or --out) for benchmark/compare.py; a traced run also leaves a Chrome
trace-event file in build-bench/traces/.

Exits non-zero when a correctness check fails, when a workload's exact
counts differ from an earlier run of the same binary, or when the qmg
sources are missing.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
BUILD = ROOT / "build-bench"
BINARY = BUILD / "qmg_bench"
RUN_TIMEOUT_S = 170
ERRORS = (OSError, ValueError, KeyError, RuntimeError,
          subprocess.TimeoutExpired)


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; raises on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"qmg sources (CMakeLists.txt, src/) not found in "
                           f"{ROOT}: the benchmark builds the library from "
                           f"source")
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "qmg_bench"])
    with open(BUILD / "build.log", "a") as out:
        for cmd in steps:
            r = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
            if r.returncode:
                raise RuntimeError(f"build failed: {' '.join(cmd)} "
                                   f"(see {BUILD / 'build.log'})")


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, env=env)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def count_mismatch(result):
    """Exact counts come from the reference configuration every run
    shares, so they must repeat in every run of a workload on one binary."""
    digest = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    path = BUILD / "counts" / f"{result['workload']}-{digest}.json"
    path.parent.mkdir(exist_ok=True)
    if not path.is_file():
        path.write_text(json.dumps(result["exact"], sort_keys=True))
        return None
    earlier = json.loads(path.read_text())
    if earlier == result["exact"]:
        return None
    return (f"exact counts differ from an earlier run: {earlier} vs "
            f"{result['exact']}")


def run_workload(name, seed, seconds, traced, out_dir):
    """One qmg_bench process; returns its result, checked and saved."""
    cmd = [str(BINARY), f"--workload={name}", f"--seed={seed}",
           f"--seconds={seconds}"]
    trace_path = None
    if traced:
        trace_path = BUILD / "traces" / f"{name}-seed{seed}.json"
        trace_path.parent.mkdir(exist_ok=True)
        cmd.append(f"--trace-out={trace_path}")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"qmg_bench printed nothing (exit "
                           f"{proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    problems = list(result["check"]["errors"])
    if traced:
        try:
            if not json.loads(trace_path.read_text())["traceEvents"]:
                problems.append(f"trace file {trace_path} has no spans")
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"trace file {trace_path} does not parse: {e}")
    mismatch = count_mismatch(result)
    if mismatch:
        problems.append(mismatch)
    result["correct"] = result["correct"] and not problems
    result["problems"] = problems
    result["provenance"].update(git_sha=git_sha(), seed=seed)
    result["trace_file"] = str(trace_path) if trace_path else None
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    out = out_dir / (f"{name}-seed{seed}-trace{int(traced)}-{stamp}-"
                     f"{os.getpid()}.json")
    out.write_text(json.dumps(result, indent=1))
    return result


def selected_metrics(spec, result, traced):
    """The BENCHMARK.json metrics of this run, in spec order."""
    source = result["layers"] if traced else result["metrics"]
    names = [m["name"] for m in spec["per_layer" if traced
                                     else "end_to_end"]]
    missing = [n for n in names if n not in source]
    if missing:
        raise RuntimeError(f"metrics missing: {missing}")
    return {n: {"value": source[n]["value"], "unit": source[n]["unit"]}
            for n in names}


def print_table(title, metrics):
    print(f"== {title}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']!r:>24} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--out", type=pathlib.Path, default=BUILD / "results",
                    help="directory for the result files")
    args = ap.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = args.seconds or spec["run_seconds"]
        names = [w["name"] for w in spec["workloads"]]
        if args.workload and args.workload not in names:
            raise RuntimeError(f"unknown workload {args.workload}; one of "
                               f"{names}")
        build()
    except ERRORS as e:
        log(e)
        return 2

    if args.workload:
        traced = args.trace == 1
        try:
            result = run_workload(args.workload, args.seed, seconds, traced,
                                  args.out)
            metrics = selected_metrics(spec, result, traced)
        except ERRORS as e:
            log(f"{args.workload}: {e}")
            return 3
        for p in result["problems"]:
            log(f"{args.workload}: {p}")
        print_table(args.workload, metrics)
        print(json.dumps({"correct": result["correct"],
                          "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
        return 0 if result["correct"] else 1

    ok = True
    untraced = {}
    for traced in [False, True] if args.trace else [False]:
        for name in names:
            try:
                result = run_workload(name, args.seed, seconds, traced,
                                      args.out)
                metrics = selected_metrics(spec, result, traced)
            except ERRORS as e:
                log(f"{name}: {e}")
                ok = False
                continue
            for p in result["problems"]:
                log(f"{name}: {p}")
            ok = ok and result["correct"]
            print_table(f"{name} ({'traced' if traced else 'untraced'}, "
                        f"{result['provenance']['iterations']} iterations, "
                        f"{result['failed']}/{result['attempted']} failed)",
                        metrics)
            if not traced:
                untraced[name] = result
            elif name in untraced:
                ratio = (result["layers"]["trace.solve_s"]["value"] /
                         untraced[name]["metrics"]["solve_s"]["value"])
                print(f"  tracing overhead: traced solve_s / untraced "
                      f"solve_s = {ratio:.4f}")
    if untraced:
        prov = next(iter(untraced.values()))["provenance"]
        print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"results in {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
