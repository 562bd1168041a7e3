#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-label --seed 1 --seconds 20 --trace 0

Everything the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, temporary files, the binary, durable-node
data directories and span dumps. The exit code is the benchmark's; a
failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    workdir = os.path.join(build, "perfbench")
    for d in (env["GOCACHE"], env["GOTMPDIR"], env["GOPATH"], env["XDG_CONFIG_HOME"], workdir):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(workdir, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    ran = subprocess.run([binary, *sys.argv[1:], "--workdir", workdir], cwd=root, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
