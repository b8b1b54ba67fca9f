#!/usr/bin/env python3
"""Build the WINDIM benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload dimension-mesh --seed 1 --seconds 30 --trace 0

The Go program in this directory is compiled into .bench_build/ at the
repository root, with the Go build cache kept there too, and then run
with the arguments given here. Its standard output, whose last line is
the JSON result, passes through unchanged, and so does its exit code. A
failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update(
        {
            "GOCACHE": os.path.join(build, "gocache"),
            "GOMODCACHE": os.path.join(build, "gomod"),
            "GOPATH": os.path.join(build, "gopath"),
            "HOME": home,
            "XDG_CONFIG_HOME": os.path.join(home, ".config"),
            "GOTOOLCHAIN": "local",
            "GOPROXY": "off",
            "GOFLAGS": "",
            "GOWORK": "off",
            "CGO_ENABLED": "0",
        }
    )
    binary = os.path.join(build, "perfbench")
    partial = binary + ".%d.tmp" % os.getpid()
    built = subprocess.run(
        ["go", "build", "-o", partial, "."], cwd=here, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    os.replace(partial, binary)
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
