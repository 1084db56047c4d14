#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --make-reference 24

Builds the phifi libraries from the repository root and the benchmark
binary from this directory into .bench_build/, then runs the binary from
the repository root. Build output goes to .bench_build/build.log; the
binary's standard output is passed through, so the last line is the JSON
result. Exits non-zero when the build fails or the binary does.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "phifi"
BENCH_BUILD = BUILD / "perfbench"
BINARY = BENCH_BUILD / "perfbench"
REFERENCE = HERE / "reference.json"
LIB_TARGETS = ["phifi_cli"]
JOBS = "3"
RUN_TIMEOUT_S = 175
REFERENCE_SEED = 0x5EED0F12


def build():
    """Configures (once) and builds both trees; returns False on failure."""
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (LIB_BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(LIB_BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(LIB_BUILD), "-j", JOBS,
                  "--target", *LIB_TARGETS])
    if not (BENCH_BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BENCH_BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      f"-DPHIFI_BUILD_DIR={LIB_BUILD}"])
    steps.append(["cmake", "--build", str(BENCH_BUILD), "-j", JOBS])
    with open(BUILD / "build.log", "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = (BUILD / "build.log").read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                print("perfbench: build failed: " + " ".join(step),
                      file=sys.stderr)
                return False
    return True


def run_binary(args, echo=True, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.Popen([str(BINARY), "--reference", str(REFERENCE),
                             *args], cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded %d s" % timeout, file=sys.stderr)
        return 1, []
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out.splitlines()


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def self_test():
    """Checks the gate trips on a doctored tally and a reclaimed lease, and
    that every BENCHMARK.json metric is printed with its declared unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def run(label, args):
        rc, lines = run_binary(["--seed", "7", "--seconds", "1", *args],
                               echo=False)
        print("self-test: %-34s exit %d" % (label, rc), file=sys.stderr)
        return rc, result_of(lines), lines

    for workload, doctor in [("matrix", "tally"), ("fleet", "tally"),
                             ("fleet", "lease")]:
        label = "%s --doctor %s" % (workload, doctor)
        rc, result, lines = run(label, ["--workload", workload, "--trace",
                                        "0", "--doctor", doctor])
        if rc == 0 or (result is not None and result.get("correct")):
            problems.append(label + " was not refused")
        elif doctor == "lease" and not any("reclaimed" in line or
                                           "merge failed" in line
                                           for line in lines):
            problems.append(label + " failed for another reason")

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in [("0", "end_to_end"), ("1", "per_layer")]:
            label = "%s --trace %s" % (workload, trace)
            rc, result, _ = run(label, ["--workload", workload, "--trace",
                                        trace])
            if rc != 0 or result is None or not result.get("correct"):
                problems.append(label + " failed")
                continue
            printed = result["metrics"]
            declared = {m["name"]: m["unit"] for m in spec[key]}
            for name, unit in declared.items():
                if name not in printed:
                    problems.append("%s: %s not printed" % (label, name))
                elif printed[name]["unit"] != unit:
                    problems.append("%s: %s printed in %s, declared %s" % (
                        label, name, printed[name]["unit"], unit))
            for name in sorted(set(printed) - set(declared)):
                problems.append("%s: %s printed but not declared" % (
                    label, name))
    for problem in problems:
        print("self-test: FAIL " + problem, file=sys.stderr)
    print("self-test: %s" % ("ok" if not problems else "FAILED"),
          file=sys.stderr)
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--make-reference", type=int, metavar="SEEDS")
    args = parser.parse_args()
    if not build():
        return 1
    if args.self_test:
        return self_test()
    if args.make_reference:
        # A seed no benchmark run is likely to be given, so the reference
        # does not share repetitions with the runs it gates.
        rc, _ = run_binary(["--make-reference", str(args.make_reference),
                            "--seed", str(REFERENCE_SEED)], timeout=None)
        return rc
    if not args.workload:
        parser.error("--workload is required")
    rc, _ = run_binary(["--workload", args.workload, "--seed", args.seed,
                        "--seconds", args.seconds, "--trace", args.trace])
    return rc


if __name__ == "__main__":
    sys.exit(main())
