#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload lockstep --seed 1 --seconds 10 --trace 0

Every argument is passed to the program; --workload all runs every workload
in turn, each in its own process. The build and its caches stay
inside the checkout, under $CARGO_TARGET_DIR or .bench_build. The program
prints its result as the last line of standard output; this wrapper adds
nothing to it and exits with the program's code. A build failure, or a run
that outlives its limit, exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("lockstep", "pipelined", "pipelined_mc", "surge")


def main():
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = os.path.abspath(out)
    env = dict(os.environ)
    # The runtime settings the benchmark fixes itself: the default
    # collector, and GOMAXPROCS per workload.
    for key in ("GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS"):
        env.pop(key, None)
    build_env = dict(env)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"), ("HOME", "home"),
                     ("XDG_CONFIG_HOME", "home")):
        path = os.path.join(out, sub)
        os.makedirs(path, exist_ok=True)
        build_env[key] = path
    build_env.update(GOFLAGS="-mod=mod", GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off")

    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=build_env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env["TMPDIR"] = build_env["TMPDIR"]
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args:
        i = args.index("--workload") + 1
        if args[i:i + 1] == ["all"]:
            runs = [args[:i] + [name] + args[i + 1:] for name in WORKLOADS]
    code = 0
    for run_args in runs:
        code = run_one(binary, out, env, run_args) or code
    return code


def run_one(binary, out, env, args):
    cmd = [binary, "--out", os.path.join(out, "traces")] + args
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
