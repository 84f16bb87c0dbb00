#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-batch --seed 12345 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --compare old.jsonl new.jsonl

The first two build the Go program in perfbench/ (its own module, which
reaches the repository's packages through a replace directive) into the
build directory and run it with the given arguments; the program prints
one JSON result as its last line. Every build and cache file stays
inside the checkout, under $CARGO_TARGET_DIR or .bench_build.

--compare reads two files of run records (written by --out) and prints,
per workload and end-to-end metric, each side's median and quartiles
and whether the second side is worse than the first by more than the
metric's bound in BENCHMARK.json. It refuses records whose core counts
differ.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def go_env(root, build):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    return env


def build(root):
    """Builds the benchmark binary and returns its path."""
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "internal")):
        fail("run from the root of a repository checkout: go.mod and internal/ are missing")
    go = shutil.which("go")
    if go is None:
        fail("the go toolchain is not on PATH")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    binary = os.path.join(build_dir, "perfbench")
    env = go_env(root, build_dir)
    try:
        out = subprocess.run([go, "build", "-o", binary, "."], cwd=os.path.join(root, "perfbench"),
                             env=env, capture_output=True, text=True, timeout=840)
    except subprocess.TimeoutExpired:
        fail("go build timed out")
    if out.returncode != 0:
        fail("go build failed:\n" + out.stderr)
    return binary


def run(root, args):
    binary = build(root)
    proc = subprocess.Popen([binary] + args, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def compare(root, old_path, new_path):
    bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
    old, new = load(old_path), load(new_path)
    cores = {r["env"]["nproc"] for r in old + new}
    if len(cores) != 1:
        fail(f"refusing to compare runs made on different core counts: nproc {sorted(cores)}")
    workloads = sorted({r["workload"] for r in old} & {r["workload"] for r in new})
    if not workloads:
        fail("the two files share no workload")
    worse = 0
    print(f"nproc {cores.pop()}; {len(old)} old and {len(new)} new runs")
    for wl in workloads:
        print(f"\n{wl}")
        print(f"  {'metric':18s} {'old q1/med/q3':>32s} {'new q1/med/q3':>32s} {'change':>8s} {'bound':>6s}")
        for m in bench["end_to_end"]:
            name = m["name"]
            ov = [r["end_to_end"][name]["value"] for r in old if r["workload"] == wl]
            nv = [r["end_to_end"][name]["value"] for r in new if r["workload"] == wl]
            o, n = quartiles(ov), quartiles(nv)
            change = n[1] / o[1] - 1
            bad = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse += bad
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"  {name:18s} {fmt(o):>32s} {fmt(n):>32s} {change:+8.1%} {m['bound']:6.2f}"
                  + ("  WORSE" if bad else ""))
    return 1 if worse else 0


def main(argv):
    root = os.getcwd()
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            fail("usage: run.py --compare OLD.jsonl NEW.jsonl")
        return compare(root, argv[1], argv[2])
    return run(root, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
