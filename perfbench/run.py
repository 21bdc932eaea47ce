#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload paper-tta --seed 1 --seconds 20 --trace 0

The Go build cache, module cache, temporary build files and the binary all
live in .bench_build/ under the repository root, so the benchmark reads and
writes nothing outside the checkout. Every argument is passed to the
program unchanged. The script exits non-zero without printing a result when
the simulator's sources are missing or do not build.
"""

import os
import subprocess
import sys


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))):
        print("perfbench: simulator sources not found next to %s" % bench,
              file=sys.stderr)
        return 1
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTMPDIR": tmp,
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(build, "perfbench")
    try:
        subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.chdir(root)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
