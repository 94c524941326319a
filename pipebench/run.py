#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run it.

Run from the repository root:

    python3 pipebench/run.py --workload hadoop-paper --seed 1 --seconds 10 --trace 0

Every flag is passed on to the Go program (see pipebench/README.md). The
build cache, module cache, binary and span files all live in .bench_build/
under the repository root, so nothing is read or written outside it.
"""

import hashlib
import os
import subprocess
import sys


def source_revision(root):
    """The git commit when the tree is a checkout, else a hash of the sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))):
        print("pipebench: run from the repository root: go.mod and internal/ are missing",
              file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
    })
    binary = os.path.join(build, "pipebench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env)
    if built.returncode != 0:
        print("pipebench: build failed", file=sys.stderr)
        return built.returncode
    args = [binary] + sys.argv[1:] + ["-commit", source_revision(root), "-out-dir", build]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
