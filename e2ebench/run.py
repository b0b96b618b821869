#!/usr/bin/env python3
"""End-to-end simulator benchmark runner.

Builds the benchmark package (e2ebench/CMakeLists.txt, which builds the
simulator library from the repository's sources) and runs a workload:

  python3 e2ebench/run.py --workload farm64 --seed 21 --seconds 50 --trace 0
  python3 e2ebench/run.py --workload all            # every workload, untraced
  python3 e2ebench/run.py --workload farm64 --trace 1   # per-layer metrics
  python3 e2ebench/run.py --steady 10 --workload fig07  # run-to-run spread
  python3 e2ebench/run.py --self-test               # metric-math tests

The last line of a single-workload run is its JSON result object. The
build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench);
traced runs write their spans beside it. See e2ebench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig07", "farm64", "attack_grid"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "e2ebench")


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "exp", "testbed.h"))):
        fail("simulator sources not found beside e2ebench/; run from a full "
             "checkout of the repository")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                  "--target", target])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, target)


def run_workload(exe, workload, seed, seconds, trace, echo=True):
    """Runs one workload (seed None: the workload's default seed); returns
    its parsed result object."""
    cmd = [exe, "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace:
        cmd += ["--spans", os.path.join(build_dir(), "spans-%s.csv" % workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("%s exited with code %d and no result" % (workload, proc.returncode))
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return json.loads(lines[-1])


def bounds():
    """End-to-end bounds from BENCHMARK.json, when it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def steady(exe, workloads, k, first_seed, seconds):
    """Runs each workload k times on seeds first_seed.. and reports, per
    end-to-end metric, median, quartiles and (Q3 - Q1) / median against the
    metric's bound (the acceptance target is a spread under a third of it)."""
    limit = bounds()
    ok = True
    for w in workloads:
        values = {}
        for i in range(k):
            res = run_workload(exe, w, first_seed + i, seconds, 0, echo=False)
            if not res["correct"] or res["failed"]:
                ok = False
                print("%s seed %d: correct=%s failed=%d" %
                      (w, first_seed + i, res["correct"], res["failed"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("  %s seed %d: %s" % (w, first_seed + i, " ".join(
                "%s=%.6g" % (n, m["value"]) for n, m in res["metrics"].items())))
            sys.stdout.flush()
        print("steadiness %s: %d runs, seeds %d..%d, %s s each" %
              (w, k, first_seed, first_seed + k - 1, seconds))
        print("  %-16s %14s %14s %14s %8s %6s %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = limit.get(name)
            if bound is None:
                verdict = "-"
            elif name == "setup_s":
                verdict = "n/a (median drift only)"
            elif spread < bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "within bound, above bound/3"
            else:
                verdict = "TOO WIDE"
                ok = False
            print("  %-16s %14.6g %14.6g %14.6g %8.4f %6s %s" %
                  (name, med, q1, q3, spread,
                   "-" if bound is None else bound, verdict))
        sys.stdout.flush()
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    help="one of %s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="K",
                    help="run each workload K times on K seeds and report "
                         "the run-to-run spread of every end-to-end metric")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.workload != "all" and args.workload not in WORKLOADS:
        fail("unknown workload %r" % args.workload)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    if args.self_test:
        sys.exit(subprocess.run([build("e2ebench_test")]).returncode)
    exe = build("e2ebench")
    if args.steady:
        sys.exit(0 if steady(exe, workloads, args.steady,
                             1 if args.seed is None else args.seed,
                             args.seconds) else 1)
    for w in workloads:
        run_workload(exe, w, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
