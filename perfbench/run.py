#!/usr/bin/env python3
"""Build and run the retsim end-to-end benchmark.

Run from the root of a retsim checkout:

    python3 perfbench/run.py --workload paper-apps --seed 1 --seconds 30 --trace 0

Builds the retsim libraries and the perfbench program from source into
.bench_build/ (Release), runs one workload and passes the program's
output through: a context line, then the JSON result line, last.
Per-solve records go to .bench_build/results/ and, with --trace 1, a
Perfetto-readable trace to .bench_build/traces/.  --pin rewrites the
workload's pinned digests in perfbench/digests.json (default seed
only); do that only when the program's output is meant to change.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-apps", "stereo16-sharded", "design-sweep")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures once, then builds; the build log goes to a file."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, cwd=root, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see " + log_path)


def commit_of(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no retsim sources next to {HERE}; run from a full checkout")

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    build(root, build_dir)

    results = os.path.join(root, ".bench_build", "results")
    traces = os.path.join(root, ".bench_build", "traces")
    os.makedirs(results, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [
        os.path.join(build_dir, "perfbench"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--digests={os.path.join(HERE, 'digests.json')}",
        f"--detail={os.path.join(results, stem + '.json')}",
        f"--trace-out={os.path.join(traces, stem + '.json')}",
        f"--commit={commit_of(root)}",
    ]
    if args.pin:
        command.append("--pin=1")
    sys.stdout.flush()
    # A SIGTERM to this script must not leave perfbench running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(command, cwd=root)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
