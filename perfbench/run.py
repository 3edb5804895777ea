#!/usr/bin/env python3
"""Build the perfbench module and run one benchmark workload.

Run from anywhere; paths are taken relative to this file:

    python3 perfbench/run.py --workload dta_sobel --seed 1 --seconds 30 --trace 0

The Go build and its caches live under $CARGO_TARGET_DIR (default
.bench_build) at the repository root, so a run reads and writes nothing
outside the repository. The arguments go to the perfbench binary as
they are; run.py adds the fingerprint's commit and source digest, the
file full results are appended to, and, for traced runs, the span file.
Standard output is the binary's alone.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest(skip):
    """SHA-256 over every file of the tree but .git and the build dir."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames
                             if d != ".git" and os.path.join(dirpath, d) != skip)
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            if not os.path.isfile(path) or os.path.islink(path):
                continue
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "none"


def go_binary():
    go = shutil.which("go")
    if go:
        return go
    for d in (os.environ.get("GOROOT", ""), "/usr/local/go"):
        cand = os.path.join(d, "bin", "go")
        if d and os.access(cand, os.X_OK):
            return cand
    return None


def arg(argv, name, default=""):
    for i, a in enumerate(argv):
        if a in ("-" + name, "--" + name) and i + 1 < len(argv):
            return argv[i + 1]
        for p in ("-" + name + "=", "--" + name + "="):
            if a.startswith(p):
                return a[len(p):]
    return default


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "internal"))):
        print("perfbench: no TEVoT source tree next to perfbench/; nothing to build",
              file=sys.stderr)
        return 2
    go = go_binary()
    if go is None:
        print("perfbench: no go toolchain found", file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(os.environ,
               GOTMPDIR=os.path.join(build, "tmp"),
               GOCACHE=os.path.join(build, "gocache"),
               GOMODCACHE=os.path.join(build, "gomodcache"),
               GOPATH=os.path.join(build, "gopath"),
               XDG_CONFIG_HOME=os.path.join(build, "config"),
               GOTOOLCHAIN="local", GOWORK="off", GOENV="off", GOFLAGS="",
               GOTELEMETRY="off")
    binary = os.path.join(build, "perfbench")
    b = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    if b.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    extra = ["--commit", commit(), "--source", source_digest(build),
             "--out", os.path.join(build, "results.jsonl")]
    if arg(argv, "trace", "0") == "1":
        name = "spans-%s-%s.jsonl" % (arg(argv, "workload"), arg(argv, "seed", "1"))
        extra += ["--spans", os.path.join(build, name)]
    proc = subprocess.Popen([binary] + argv + extra, cwd=ROOT, env=env)

    def forward(sig, _frame):
        proc.send_signal(sig)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
