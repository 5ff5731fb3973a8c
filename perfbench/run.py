#!/usr/bin/env python3
"""Build and run one benchmark workload.

    python3 perfbench/run.py --workload select_small --seed 3 --seconds 10 --trace 0

Run from the repository root. The Go benchmark in perfbench/ is built
from source into .bench_build/ (or $CARGO_TARGET_DIR) with the build
cache, module cache and home directory kept there too, so nothing is
read or written outside the checkout and nothing is fetched. The last
line of standard output is the result JSON printed by the benchmark; a
failed build or a failed run exits non-zero without one.
"""
import argparse
import os
import subprocess
import sys
import time

RUN_LIMIT_S = 170  # a run must end within 180 s, build check included
FIRST_RUN_LIMIT_S = 880  # the first run of a checkout also compiles


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out_dir):
        out_dir = os.path.join(root, out_dir)
    os.makedirs(out_dir, exist_ok=True)
    home = os.path.join(out_dir, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(out_dir, "gocache"),
        "GOMODCACHE": os.path.join(out_dir, "gomodcache"),
        "GOPATH": os.path.join(out_dir, "gopath"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out_dir, "perfbench")

    t0 = time.monotonic()
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               timeout=FIRST_RUN_LIMIT_S - 60)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 1
    built = time.monotonic() - t0

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    limit = min(RUN_LIMIT_S, FIRST_RUN_LIMIT_S - built)
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=limit)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %.0fs" % limit, file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
