#!/usr/bin/env python3
"""Session benchmark entry point.

Builds the repository's libraries and the session runner from source
(CMake, into $CARGO_TARGET_DIR/sessionbench, default
.bench_build/sessionbench), then runs one measurement:

    python3 sessionbench/run.py --workload gui_startup --seed 1 \
        --seconds 10 --trace 0

The last line of standard output is the JSON result. Other modes:

    --selftest       build and run the runner's arithmetic self-test
    --determinism    run twice with the same seed and require every
                     modeled-cycle and count metric to match exactly

Everything the benchmark writes stays under the build directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["gui_startup", "spec_ref", "oracle_accumulate", "desktop_xip_opt"]


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "sessionbench"))


def configured_source(out):
    """Source directory the build tree in `out` was configured for."""
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return os.path.realpath(line.split("=", 1)[1].strip())
    except OSError:
        pass
    return None


def build(out):
    """Configures and builds the runner; returns False on failure."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.stderr.write("error: no PCC sources next to the benchmark "
                         "(expected ../src/CMakeLists.txt)\n")
        return False
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if configured_source(out) != os.path.realpath(HERE):
        # A tree configured elsewhere (a moved checkout) is rebuilt.
        for name in ("CMakeCache.txt", "CMakeFiles"):
            path = os.path.join(out, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.remove(path)
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "pcc-sessionbench", "sessionbench-selftest"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=env) != 0:
                sys.stderr.write("error: build failed: %s (log: %s)\n"
                                 % (" ".join(cmd), log_path))
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                return False
    return True


def run_runner(out, args):
    """Runs the runner; returns (exit code, stdout lines)."""
    work = os.path.join(out, "work")
    cmd = [os.path.join(out, "pcc-sessionbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    return proc.returncode, proc.stdout.splitlines()


def deterministic_metrics(lines):
    for line in lines:
        if line.startswith("deterministic "):
            return json.loads(line[len("deterministic "):])
    return None


def check_determinism(out, args):
    """Two runs, same seed: modeled cycles and counts must match."""
    digests = []
    for _ in range(2):
        code, lines = run_runner(out, args)
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if code != 0:
            return code
        digests.append(deterministic_metrics(lines))
    if digests[0] is None or digests[0] != digests[1]:
        for name in sorted(set(digests[0] or {}) | set(digests[1] or {})):
            a = (digests[0] or {}).get(name)
            b = (digests[1] or {}).get(name)
            if a != b:
                print("determinism: %s differs: %s vs %s" % (name, a, b))
        print("determinism: FAILED")
        return 1
    print("determinism: %d modeled/count metrics identical across two "
          "runs of seed %d" % (len(digests[0]), args.seed))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--determinism", action="store_true")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not build(out):
        return 2
    if args.selftest:
        return subprocess.call([os.path.join(out, "sessionbench-selftest")])
    if args.determinism:
        return check_determinism(out, args)

    # Start from clean page-cache state: the build's dirty pages would
    # otherwise be written back during the first passes' fsyncs.
    os.sync()
    code, lines = run_runner(out, args)
    sys.stdout.write("".join(line + "\n" for line in lines))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
