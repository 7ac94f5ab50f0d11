#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds
against the repository's module one directory up. Build outputs and the Go
build cache go to .bench_build/ (or $CARGO_TARGET_DIR when set), so a run
reads and writes only inside the checkout. Every argument is passed to the
benchmark binary; its output and exit code are passed back unchanged.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    # Everything the Go toolchain would write (build cache, module cache,
    # its telemetry counters under the user config directory) stays under
    # the build directory.
    env.update(
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTELEMETRY="off",
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
