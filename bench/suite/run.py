#!/usr/bin/env python3
"""The simulator benchmark: four workloads, end-to-end and per-layer metrics.

Builds bench/suite (the bench_suite harness linked against the nylon
library) from source, runs workloads in child processes, checks their
outputs, and prints every metric named in BENCHMARK.json.

One workload, one result object (the last stdout line):

    python3 bench/suite/run.py --workload churn20k_k4 --seed 1 \
        --seconds 10 --trace 0

The whole suite, printed as `workload metric value unit` lines and saved
as a BENCH_suite.json document with provenance:

    python3 bench/suite/run.py --build .bench_build --seed 1 [--reps R]
        [--trace] [--quick] [--out BENCH_suite.json] [--append]
        [--baseline bench/suite/baseline.json]

--trace adds one traced run per workload and repetition (the per-layer
ledger plus the layer replays). --quick runs tiny sizes, traced and not,
so a metric BENCHMARK.json names but no run produces fails it within a
minute. A run whose checks fail still prints its result object, with
"correct": false; the exit code is non-zero only when nothing could be
measured (no source tree, build failure) or, in suite form, when any run
failed. See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("churn20k_default", "churn20k_k1", "churn20k_k4", "paper_figs")
# Cold set-up samples per run: the measured process's own first build
# plus this many fresh --setup-only processes; setup_s is their median.
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 170
# churn20k_k1 and churn20k_k4 run the same sharded stream: equal digests.
SAME_STREAM = ("churn20k_k1", "churn20k_k4")


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_contract():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    doc = json.loads(path.read_text())
    units = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    e2e = [m["name"] for m in doc["end_to_end"]]
    layers = [m["name"] for m in doc["per_layer"]]
    return doc, units, e2e, layers


def build(build_root):
    """Configures (once) and builds the harness; returns its path."""
    for needed in ("CMakeLists.txt", "src", "examples/specs"):
        if not (ROOT / needed).exists():
            fail(f"{ROOT / needed} is missing: run from a full source checkout")
    build_dir = Path(build_root) / "suite"
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(build_dir), "--target",
                   "bench_suite", "-j", jobs]
    if subprocess.run(compile_cmd, cwd=ROOT, stdout=sys.stderr).returncode:
        fail("build failed")
    return build_dir / "bench_suite"


def harness(binary, *args):
    """Runs the harness once; returns its result object (last stdout line)."""
    proc = subprocess.run([str(binary), *args], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench_suite {' '.join(args)} exited "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def digest_check(build_dir, binary, workload, seed, quick, digest):
    """Cross-engine check: K=1 and K=4 must produce one digest per seed.

    The digest of whichever ran first is kept in the build directory,
    keyed by the harness binary, so the check holds across invocations.
    """
    if workload not in SAME_STREAM:
        return None
    store = Path(build_dir) / "digests.json"
    key = "%s/%d/%s" % (hashlib.sha1(Path(binary).read_bytes()).hexdigest(),
                        seed, "quick" if quick else "full")
    seen = json.loads(store.read_text()) if store.exists() else {}
    entry = seen.setdefault(key, {})
    entry[workload] = digest
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen))
    tmp.replace(store)
    if len(set(entry.values())) > 1:
        return f"sharded digests differ across K: {entry}"
    return None


def run_workload(binary, workload, seed, seconds, trace, quick, units):
    """One measured run; returns (result object, extra detail)."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds)]
    if quick:
        args.append("--quick")
    run_failures = []  # beyond the harness's own per-unit checks
    metrics = {}
    res = {}
    try:
        if trace:
            res = harness(binary, *args, "--trace")
            metrics.update(res["layers"])
            metrics.update(harness(binary, "--replays", "--seed", str(seed)))
        else:
            res = harness(binary, *args)
            setups = [res["setup_s"]] + [
                harness(binary, *args, "--setup-only")["setup_s"]
                for _ in range(SETUP_CHILDREN)]
            metrics["events_per_s"] = res["events_per_s"]
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = res["peak_rss_mb"]
        problem = digest_check(binary.parent, binary, workload, seed, quick,
                               res["digest"])
        if problem:
            run_failures.append(problem)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError,
            json.JSONDecodeError) as e:
        run_failures.append(f"{workload}: {e}")
    out = {}
    for name in units:
        value = metrics.get(name)
        if value is None:
            run_failures.append(f"{workload}: metric {name} not produced")
            value = 0.0
        out[name] = {"value": value, "unit": units[name]}
    attempted = res.get("attempted", 1)
    failed = attempted if run_failures else res["failed"]
    failures = res.get("failures", []) + run_failures
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": out}
    detail = {"failures": failures, "digest": res.get("digest"),
              "unit_events": res.get("unit_events")}
    return result, detail


def provenance(binary):
    info = harness(binary, "--build-info")
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rev = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              text=True, capture_output=True)
        rev = proc.stdout.strip() if proc.returncode == 0 else rev
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "nylon_obs": info["nylon_obs"],
        "git_rev": rev,
        "loadavg_1m": os.getloadavg()[0],
    }


def suite(args, binary, contract):
    _, units, e2e, layers = contract
    unit_of = {name: units[name] for name in e2e}
    layer_unit_of = {name: units[name] for name in layers}
    prov = provenance(binary)
    if args.baseline:
        base = json.loads(Path(args.baseline).read_text())
        problem = compare.incomparable(base, {"provenance": prov})
        if problem:
            fail(f"refusing to compare with {args.baseline}: {problem}")
    out_path = Path(args.out)
    doc = {"suite": "nylon-bench-suite", "provenance": prov,
           "seconds": args.seconds, "runs": []}
    if args.append and out_path.exists():
        doc = json.loads(out_path.read_text())
        problem = compare.incomparable(doc, {"provenance": prov})
        if problem:
            fail(f"refusing to append to {out_path}: {problem}")
    ok = True
    for rep in range(args.reps):
        seed = args.seed + rep
        for w in WORKLOADS:
            passes = [(False, unit_of)]
            if args.trace or args.quick:
                passes.append((True, layer_unit_of))
            for traced, wanted in passes:
                start = time.time()
                result, detail = run_workload(binary, w, seed, args.seconds,
                                              traced, args.quick, wanted)
                for name, m in result["metrics"].items():
                    print(f"{w} {name} {m['value']!r} {m['unit']}")
                failed_pct = 100.0 * result["failed"] / result["attempted"]
                print(f"{w} failed_pct {failed_pct!r} %")
                print(f"{w} digest {detail['digest']} (unit events "
                      f"{detail['unit_events']}, seed {seed}"
                      f"{', traced' if traced else ''}, "
                      f"{time.time() - start:.1f} s)")
                for f in detail["failures"]:
                    print(f"{w} FAILED {f}")
                ok = ok and result["correct"]
                doc["runs"].append({"workload": w, "rep": rep, "seed": seed,
                                    "trace": traced, "result": result,
                                    "digest": detail["digest"],
                                    "unit_events": detail["unit_events"]})
                sys.stdout.flush()
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"# wrote {out_path}")
    if args.baseline:
        compare.report(base, doc, sys.stdout)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload and print one result object")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="host seconds each run measures "
                        "(default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=("0", "1"), help="per-layer (traced) run")
    p.add_argument("--build", default=os.environ.get("CARGO_TARGET_DIR",
                                                     ".bench_build"),
                   help="build directory (the harness builds in BUILD/suite)")
    p.add_argument("--reps", type=int, default=1,
                   help="suite mode: repetitions, seeds SEED..SEED+REPS-1")
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes; checks every named metric is printed")
    p.add_argument("--out", default="BENCH_suite.json")
    p.add_argument("--append", action="store_true",
                   help="add this run's repetitions to --out")
    p.add_argument("--baseline", default="",
                   help="compare against this BENCH_suite.json afterwards")
    args = p.parse_args()
    args.trace = args.trace == "1"
    contract = load_contract()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(contract[0]["run_seconds"])
    binary = build(args.build)

    if args.workload is None:
        return suite(args, binary, contract)
    _, units, e2e, layers = contract
    wanted = {n: units[n] for n in (layers if args.trace else e2e)}
    result, detail = run_workload(binary, args.workload, args.seed,
                                  args.seconds, args.trace, args.quick,
                                  wanted)
    for f in detail["failures"]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
