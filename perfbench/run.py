#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload die --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads (see BENCHMARK.json for why each exists):
  die           one Producer over the carry-k1 die, stepped from one thread
  serve_steady  ServerDaemon like entropy_serverd, two closed-loop clients
  serve_reseed  the same with reseed_interval = 16 and four clients
  battery       TestBattery defaults over 2^20-bit sequences

The build is a Release CMake build of perfbench/CMakeLists.txt in
.bench_build/ (or $CARGO_TARGET_DIR), run from the repository root. Every
run also runs the benchmark's own helper self-tests. With --trace 0 the
last line holds the end-to-end metrics, with --trace 1 the per-layer ones;
everything else (host and build, seed, commit, fingerprint, checks and
named detail figures) is printed above it by name and unit and recorded in
.bench_build/results/. The exit code is 0 only when every output check
passed.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["die", "serve_steady", "serve_reseed", "battery"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def repo_root():
    return Path(__file__).resolve().parent.parent


def build_dir(root):
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = root / base
    return base / "perfbench-release"


def build(root):
    """Configures (once) and builds the Release binary; returns its path."""
    if not (root / "src").is_dir():
        fail(f"library sources not found under {root / 'src'}")
    out = build_dir(root)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    # Compiler temporaries stay inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        p = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    binary = out / "perfbench"
    if not binary.exists():
        fail("build produced no perfbench binary")
    return binary


def spec(root):
    """End-to-end and per-layer metric names and units from BENCHMARK.json."""
    path = root / "BENCHMARK.json"
    if not path.exists():
        fail("BENCHMARK.json not found")
    with open(path) as f:
        b = json.load(f)
    return ({m["name"]: m["unit"] for m in b["end_to_end"]},
            {m["name"]: m["unit"] for m in b["per_layer"]})


def commit(root):
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def fmt(v):
    return "null" if v is None else f"{v:.6g}"


def run_one(root, binary, workload, seed, seconds, trace, wanted):
    results = build_dir(root) / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", str(results / f"{stem}.spans.csv")]
    try:
        p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"{workload} exited with code {p.returncode}")
    r = json.loads(lines[-1])
    r["commit"] = commit(root)
    with open(results / f"{stem}.json", "w") as f:
        json.dump(r, f, indent=1, sort_keys=True)

    h = r["host"]
    print(f"== {workload}  seed={seed} seconds={seconds} trace={trace} "
          f"commit={r['commit']}")
    print(f"   host: {h['cpu_model']}, {h['hardware_threads']} hardware "
          f"threads, {h['compiler']}, CMAKE_BUILD_TYPE={h['build_type']}, "
          f"flags '{h['cxx_flags'].strip()}'")
    for section in ("metrics", "layers", "detail"):
        for name, v in sorted(r[section].items()):
            print(f"   {section[:6]:6} {name} = {fmt(v['value'])} {v['unit']}")
    for name, v in sorted(r["fingerprint"].items()):
        print(f"   fingerprint {name} = {v}")
    for name, ok in r["checks"].items():
        print(f"   check {name}: {'ok' if ok else 'FAILED'}")

    source = r["layers"] if trace else r["metrics"]
    metrics = {}
    correct = bool(r["correct"])
    for name, unit in wanted.items():
        v = source.get(name)
        if v is None or v["value"] is None or not math.isfinite(v["value"]):
            print(f"   metric {name}: missing", file=sys.stderr)
            correct = False
            continue
        metrics[name] = {"value": v["value"], "unit": unit}
    return correct, int(r["attempted"]), int(r["failed"]), metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        fail("--seconds must be positive")

    root = repo_root()
    end_to_end, per_layer = spec(root)
    binary = build(root)
    st = subprocess.run([str(binary), "--selftest"], cwd=root,
                        stdout=subprocess.PIPE, text=True, timeout=60)
    if st.returncode != 0:
        sys.stderr.write(st.stdout)
        fail("benchmark helper self-tests failed")

    wanted = per_layer if args.trace else end_to_end
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    seconds = int(args.seconds) if args.seconds.is_integer() else args.seconds
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        ok, a, f, m = run_one(root, binary, w, args.seed, seconds, args.trace,
                              wanted)
        correct = correct and ok
        attempted += a
        failed += f
        if len(workloads) == 1:
            metrics = m
        else:
            metrics.update({f"{w}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
