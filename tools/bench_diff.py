#!/usr/bin/env python3
"""Records and gates BENCH_throughput.json, the repository's speedup record.

    python3 tools/bench_diff.py record --runs 5 --out BENCH_throughput.json
    python3 tools/bench_diff.py --fresh build/BENCH_throughput.json
    python3 tools/bench_diff.py --selftest     # prove the gate trips

`record` runs `python3 perfbench/run.py --workload all --seconds S` k times
(S is BENCHMARK.json's run_seconds), then once more with `--trace 1`, and
reads the per-workload result files run.py leaves in its results
directory. Per workload it writes the median and quartiles of every
end-to-end metric BENCHMARK.json names, the attempted and failed
operation counts, and the per-layer rows of the traced run, together with
the host, commit, seed and run length. The commit is run.py's HEAD sha,
suffixed "-dirty" when tracked files differed from HEAD as the record
started, so a record of uncommitted changes cannot pass for its parent
commit. It writes nothing if any run exits non-zero or reports an
incorrect output.

The gate compares the medians of a fresh record against the committed
baseline. Metric names, directions and bounds come from BENCHMARK.json: a
workload x metric median worse than the baseline by more than its bound
fails. Records from different hosts are not compared at all.

Exit codes: 0 within budget, 1 regression (or malformed input), 2 usage
error, 77 skip (no fresh record, or it was measured on a different host).
"""

from __future__ import annotations

import argparse
import copy
import importlib.util
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

SKIP_EXIT = 77
SEED = 1
REPO = pathlib.Path(__file__).resolve().parent.parent


class RecordError(Exception):
    pass


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def results_dir() -> pathlib.Path:
    """The directory perfbench/run.py writes its per-run result files to,
    taken from run.py itself so the path is decided in one place."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", REPO / "perfbench" / "run.py")
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    return run_py.build_dir(REPO) / "results"


def dirty_suffix(repo: pathlib.Path) -> str:
    """"-dirty" when tracked files in the git work tree at `repo` differ
    from HEAD, else "" (also when `repo` is not a git work tree)."""
    p = subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=repo,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return "-dirty" if p.returncode == 1 else ""


def perfbench_run(spec: dict, trace: int) -> dict[str, dict]:
    """One `run.py --workload all` pass; returns workload -> result file."""
    out = results_dir()
    paths = {w["name"]: out / f"{w['name']}-seed{SEED}-trace{trace}.json"
             for w in spec["workloads"]}
    for path in paths.values():
        path.unlink(missing_ok=True)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(SEED), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:])
        raise RecordError(f"{' '.join(cmd)} exited {p.returncode}")
    results = {}
    for name, path in paths.items():
        if not path.is_file():
            raise RecordError(f"run.py wrote no result file {path}")
        r = json.loads(path.read_text(encoding="utf-8"))
        if r.get("correct") is not True:
            raise RecordError(f"{name}: output checks failed {r['checks']}")
        results[name] = r
    return results


def summarise(spec: dict, runs: list[dict[str, dict]],
              traced: dict[str, dict]) -> dict:
    """The record from k untraced passes and one traced pass."""
    first = runs[0][spec["workloads"][0]["name"]]
    for results in runs + [traced]:
        for name, r in results.items():
            if r["host"] != first["host"]:
                raise RecordError(f"{name}: host changed between runs: "
                                  f"{first['host']} vs {r['host']}")
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        end_to_end = {}
        for m in spec["end_to_end"]:
            values = [r[name]["metrics"][m["name"]]["value"] for r in runs]
            end_to_end[m["name"]] = {"unit": m["unit"], **quartiles(values),
                                     "values": values}
        workloads[name] = {
            "attempted": sum(r[name]["attempted"] for r in runs),
            "failed": sum(r[name]["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": traced[name]["layers"],
        }
    return {
        "benchmark": "perfbench/run.py --workload all",
        "commit": first["commit"],
        "host": first["host"],
        "seed": SEED,
        "seconds": spec["run_seconds"],
        "runs": len(runs),
        "workloads": workloads,
    }


def record(spec: dict, runs: int, out: pathlib.Path) -> int:
    try:
        suffix = dirty_suffix(REPO)
        passes = []
        for i in range(runs):
            print(f"bench_diff record: run {i + 1}/{runs}", flush=True)
            passes.append(perfbench_run(spec, trace=0))
        print("bench_diff record: traced run", flush=True)
        doc = summarise(spec, passes, perfbench_run(spec, trace=1))
        doc["commit"] += suffix
    except (RecordError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"bench_diff record: {exc}; no file written", file=sys.stderr)
        return 1
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"bench_diff record: wrote {out}")
    return 0


def compare(spec: dict, baseline: dict, fresh: dict) -> tuple[int, list]:
    """(exit code, report lines). Lines starting with FAIL are regressions
    beyond a bound or missing metrics; a host mismatch compares nothing."""
    if baseline["host"] != fresh["host"]:
        return SKIP_EXIT, [
            "REFUSED: the records come from different hosts",
            f"  baseline host: {json.dumps(baseline['host'], sort_keys=True)}",
            f"  fresh host:    {json.dumps(fresh['host'], sort_keys=True)}",
            "  regenerate the baseline on this host and log it in CHANGES.md"]
    lines = []
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            pair = f"{w['name']}/{m['name']}"
            try:
                base = baseline["workloads"][w["name"]]["end_to_end"][
                    m["name"]]["median"]
                new = fresh["workloads"][w["name"]]["end_to_end"][
                    m["name"]]["median"]
            except (KeyError, TypeError):
                lines.append(f"FAIL {pair}: missing from a record")
                continue
            if not base > 0:
                lines.append(f"FAIL {pair}: non-positive baseline {base}")
                continue
            if m["better"] == "lower":
                change = (new - base) / base
            else:
                change = (base - new) / base
            verdict = "FAIL" if change > m["bound"] else "ok"
            lines.append(
                f"{verdict:>4} {pair}: baseline {base:g}, fresh {new:g} "
                f"{m['unit']} ({abs(change) * 100:.1f}% "
                f"{'worse' if change > 0 else 'better'}, bound "
                f"{m['bound'] * 100:.0f}%)")
    failed = any(line.startswith("FAIL") for line in lines)
    return (1 if failed else 0), lines


def selftest_dirty_suffix() -> str | None:
    """None when a throwaway git repository gives a clean tree the bare
    sha and a modified tracked file the "-dirty" suffix; else the error."""
    with tempfile.TemporaryDirectory() as tmp:
        repo = pathlib.Path(tmp)
        git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@x",
               "-c", "commit.gpgsign=false"]
        tracked = repo / "tracked.txt"
        tracked.write_text("a\n", encoding="utf-8")
        for args in (["init", "-q"], ["add", "tracked.txt"],
                     ["commit", "-q", "-m", "c"]):
            subprocess.run(git + args, cwd=repo, check=True,
                           stdout=subprocess.DEVNULL)
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo,
                             check=True, stdout=subprocess.PIPE,
                             text=True).stdout.strip()
        clean = sha + dirty_suffix(repo)
        tracked.write_text("b\n", encoding="utf-8")
        dirty = sha + dirty_suffix(repo)
    if clean != sha or dirty != f"{sha}-dirty":
        return f"clean tree gave {clean!r}, modified tree gave {dirty!r}"
    return None


def selftest(spec: dict, baseline: dict) -> int:
    """Proves the gate works on the baseline itself, in memory: an identical
    copy passes; a copy with one workload x metric pushed past its bound in
    its worse direction fails on exactly that pair, for every pair; a copy
    from another host is refused. Then proves the record's commit marks a
    dirty tree, on a throwaway git repository."""
    code, lines = compare(spec, baseline, copy.deepcopy(baseline))
    if code != 0:
        print("bench_diff selftest: identical records did not pass:",
              file=sys.stderr)
        print("\n".join(lines), file=sys.stderr)
        return 1

    pairs = [(w["name"], m) for w in spec["workloads"]
             for m in spec["end_to_end"]]
    for workload, m in pairs:
        pair = f"{workload}/{m['name']}"
        bad = copy.deepcopy(baseline)
        row = bad["workloads"][workload]["end_to_end"][m["name"]]
        factor = 1.0 + 2 * m["bound"]
        row["median"] *= factor if m["better"] == "lower" else 1 / factor
        code, lines = compare(spec, baseline, bad)
        failed = [line for line in lines if line.startswith("FAIL")]
        if code != 1 or len(failed) != 1 or f" {pair}:" not in failed[0]:
            print(f"bench_diff selftest: perturbing {pair} did not fail on "
                  f"exactly that pair:", file=sys.stderr)
            print("\n".join(lines), file=sys.stderr)
            return 1

    foreign = copy.deepcopy(baseline)
    foreign["host"]["cpu_model"] = "another host"
    code, lines = compare(spec, baseline, foreign)
    if code != SKIP_EXIT or any(line.lstrip().startswith("ok")
                                for line in lines):
        print("bench_diff selftest: a record from another host was "
              "compared:", file=sys.stderr)
        print("\n".join(lines), file=sys.stderr)
        return 1

    try:
        error = selftest_dirty_suffix()
    except (OSError, subprocess.CalledProcessError) as exc:
        error = f"git failed: {exc}"
    if error is not None:
        print(f"bench_diff selftest: dirty-tree mark: {error}",
              file=sys.stderr)
        return 1
    print(f"bench_diff selftest: OK (identical passes, perturbing each of "
          f"{len(pairs)} workload x metric pairs trips exactly that pair, "
          f"a foreign host is refused, a modified tree is marked -dirty)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Record and gate BENCH_throughput.json from perfbench")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=REPO / "BENCH_throughput.json",
                        help="committed baseline (default: repo root)")
    parser.add_argument("--fresh", type=pathlib.Path, default=None,
                        help="freshly recorded BENCH_throughput.json; when "
                             "absent or missing, exit 77 (skip)")
    parser.add_argument("--selftest", action="store_true",
                        help="verify the gate on the baseline, then exit")
    sub = parser.add_subparsers(dest="command")
    rec = sub.add_parser("record", help="run perfbench and write a record")
    rec.add_argument("--runs", type=int, default=5,
                     help="untraced passes over every workload (default 5)")
    rec.add_argument("--out", type=pathlib.Path, required=True,
                     help="where to write the record")
    args = parser.parse_args(argv)

    try:
        spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench_diff: cannot read BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2

    if args.command == "record":
        if args.runs < 1:
            parser.error("--runs must be at least 1")
        return record(spec, args.runs, args.out)

    try:
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench_diff: cannot read baseline {args.baseline}: {exc}",
              file=sys.stderr)
        return 2

    try:
        if args.selftest:
            return selftest(spec, baseline)
        if args.fresh is None or not args.fresh.is_file():
            print("bench_diff: no fresh record (write one with `bench_diff.py "
                  "record --out <path>` and pass --fresh <path>); skipping",
                  file=sys.stderr)
            return SKIP_EXIT
        fresh = json.loads(args.fresh.read_text(encoding="utf-8"))
        code, lines = compare(spec, baseline, fresh)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"bench_diff: malformed record: {exc!r}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
