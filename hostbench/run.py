#!/usr/bin/env python3
"""Build the host-cost benchmark from source and run one workload.

Run from the root of the repository:

    python3 hostbench/run.py --workload attach_storm --seed 1 --seconds 10 --trace 0

The Go program is built into $CARGO_TARGET_DIR (default .bench_build)
with its build cache, module cache and Go config kept there too, so
nothing outside the checkout is read for configuration or written.
Extra flags (--cpuprofile, --memprofile, --trace-out) pass through to
the program; a traced run writes its spans as Chrome trace-event JSON
under the build directory unless --trace-out says where. The program's
standard output is passed through unchanged; its last line is the JSON
result.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def source_revision():
    """The git commit when the checkout has one, else a digest of the Go sources."""
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
    h = hashlib.sha256()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".go") or name == "go.mod":
                p = pathlib.Path(top) / name
                h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    if not (ROOT / "go.mod").is_file():
        print(f"hostbench: no go.mod in {ROOT}: the benchmark needs the repository's source", file=sys.stderr)
        return 2

    build = pathlib.Path(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))))
    env = dict(os.environ)
    env.update(
        GOCACHE=str(build / "go-cache"),
        GOMODCACHE=str(build / "go-modcache"),
        GOPATH=str(build / "go-path"),
        XDG_CONFIG_HOME=str(build / "config"),  # go env file and telemetry
        GOFLAGS="-buildvcs=false",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    exe = build / "hostbench" / "hostbench"
    try:
        subprocess.run(["go", "build", "-o", str(exe), "."], cwd=HERE, env=env,
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"hostbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(exe), "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-commit", source_revision()]
    if args.trace == 1 and not any(a.lstrip("-").startswith("trace-out") for a in extra):
        cmd += ["-trace-out", str(build / "hostbench" / f"trace-{args.workload}-{args.seed}.json")]
    cmd += extra
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"hostbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
