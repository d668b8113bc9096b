#!/usr/bin/env python3
"""Self-test for the semantic TRNG analyzer.

Runs the analyzer over the fixture tree in tests/lint/fixtures/analyzer/
(which mirrors the repo's src/ layout so path-scoped rules apply exactly
as in production) and asserts each SA rule fires precisely on its bad
fixture and stays silent on the good one. The assertions run against the
--json output, which also pins the machine-readable schema the CI
artifact upload depends on.

Exit codes: 0 all assertions hold, 1 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
ANALYZE = REPO / "tools" / "analyzer" / "analyze.py"
FIXTURES = REPO / "tests" / "lint" / "fixtures" / "analyzer"

# Every unsuppressed (file, rule) pair the fixture run must produce — no
# more, no less. Multiset: a pair listed twice must fire exactly twice.
EXPECTED = sorted([
    ("src/service/sa001_bad.cpp", "SA001"),   # naked wait in work loop
    ("src/service/sa001_bad.cpp", "SA001"),   # while(true) trivial cond
    ("src/core/sa002_bad.cpp", "SA002"),      # (nbits + 63) / 64
    ("src/core/sa002_bad.cpp", "SA002"),      # nbits & 63
    ("src/core/sa002_bad.cpp", "SA002"),      # ring_words * 64
    ("src/core/sa002_bad.cpp", "SA002"),      # block_bits <= capacity_words
    ("src/core/sa003_bad.cpp", "SA003"),      # tainted packed-word store
    ("src/core/sa003_bad.cpp", "SA003"),      # tainted push_back
    ("src/service/sa004_bad.cpp", "SA004"),   # generate_into under lock
    ("src/service/sa004_bad.cpp", "SA004"),   # push under lock
    ("src/service/sa004_bad.cpp", "SA004"),   # sleep_for under lock
    ("src/service/sa004_bad.cpp", "SA004"),   # wait holding a second lock
    ("src/service/sa005_bad.cpp", "SA005"),   # mixed guarded/unguarded
    ("src/service/sa005_bad.cpp", "SA005"),   # disjoint guard sets
    ("src/service/sa005_bad.cpp", "SA005"),   # declared guards() violated
    ("src/server/sa005_server_bad.cpp", "SA005"),  # rule covers src/server/
    ("src/service/sa006_bad.cpp", "SA006"),   # atomic without a role
    ("src/service/sa006_bad.cpp", "SA006"),   # relaxed store on a flag
    ("src/service/sa006_bad.cpp", "SA006"),   # relaxed load on a flag
    ("src/service/sa006_bad.cpp", "SA006"),   # implicit-order index store
    ("src/service/sa006_bad.cpp", "SA006"),   # relaxed index load
    ("src/service/sa007_bad.cpp", "SA007"),   # raw word to printf
    ("src/service/sa007_bad.cpp", "SA007"),   # raw word to a stream
    ("src/service/sa007_bad.cpp", "SA007"),   # raw word to to_string
    ("src/service/sa007_bad.cpp", "SA007"),   # raw word in an exception
    ("src/server/sa007_shard_bad.cpp", "SA007"),  # draw_from_shard arg 1
    ("src/service/sa007_pop_until_bad.cpp", "SA007"),  # pop_until arg 0
    ("src/service/sa008_bad.cpp", "SA008"),   # front -> back acquisition
    ("src/service/sa008_bad.cpp", "SA008"),   # reversed, contradicts decl
    ("src/service/sa008_xtu_a.cpp", "SA008"),  # cross-TU cycle, side A
    ("src/service/sa008_xtu_b.cpp", "SA008"),  # cross-TU cycle, side B
    ("src/server/sa009_bad.cpp", "SA009"),    # generate before instantiate
    ("src/server/sa009_bad.cpp", "SA009"),    # discarded generate status
    ("src/server/sa009_bad.cpp", "SA009"),    # unchecked-then-generate
    ("src/service/sa009_state_bad.cpp", "SA009"),  # undeclared transition
    ("src/service/sa009_state_bad.cpp", "SA009"),  # naked non-reset assign
    ("src/service/sa009_state_bad.cpp", "SA009"),  # SPSC role mixing
    ("src/service/suppressed_bad.cpp", "SA000"),
    ("src/service/dangling_allow.cpp", "SA000"),
])

# Files that must produce no unsuppressed finding at all.
MUST_BE_CLEAN = [
    "src/service/sa001_good.cpp",
    "src/core/sa002_good.cpp",
    "src/core/sa003_good.cpp",
    "src/service/sa004_good.cpp",
    "src/service/sa005_good.cpp",
    "src/service/sa006_good.cpp",
    "src/service/sa007_good.cpp",
    "src/service/sa007_count_good.cpp",   # returned counts are clean
    "src/service/suppressed_ok.cpp",
    "src/server/sa005_locked_good.cpp",
    "src/service/sa008_good.cpp",
    "src/service/sa008_receiver_good.cpp",  # names that look like a class
    "src/server/sa009_good.cpp",
    "src/service/sa009_state_good.cpp",
]

# (file, rule) pairs that must appear as suppressed=true in --json: the
# justified marker hides the finding from the exit code but not from the
# machine-readable report.
EXPECTED_SUPPRESSED = [
    ("src/service/suppressed_ok.cpp", "SA001"),
]


def run_analyzer(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ANALYZE), "--root", str(FIXTURES),
         "--quiet", *extra],
        capture_output=True, text=True)


def main() -> int:
    frontend = "auto"
    if "--frontend" in sys.argv[1:]:
        frontend = sys.argv[sys.argv.index("--frontend") + 1]
    proc = run_analyzer("--json", "--frontend", frontend)

    failures: list[str] = []
    if proc.returncode == 77:
        print("analyzer selftest: requested frontend unavailable; skip")
        return 77
    if proc.returncode != 1:
        failures.append(
            f"expected exit code 1 (findings present), got "
            f"{proc.returncode}: {proc.stderr.strip()}")

    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        print(f"analyzer selftest: --json output is not JSON: {exc}",
              file=sys.stderr)
        print(proc.stdout, file=sys.stderr)
        return 1

    for entry in report:
        for key in ("rule", "file", "line", "message", "suppressed"):
            if key not in entry:
                failures.append(f"--json entry missing '{key}': {entry}")
                break

    unsuppressed = sorted((e["file"], e["rule"]) for e in report
                          if not e.get("suppressed"))
    suppressed = sorted((e["file"], e["rule"]) for e in report
                        if e.get("suppressed"))

    for path in MUST_BE_CLEAN:
        hits = [f for f in unsuppressed if f[0] == path]
        if hits:
            failures.append(f"false positive(s) in {path}: {hits}")

    if unsuppressed != EXPECTED:
        missing = list(EXPECTED)
        extra = []
        for f in unsuppressed:
            if f in missing:
                missing.remove(f)
            else:
                extra.append(f)
        if missing:
            failures.append(f"expected findings never fired: {missing}")
        if extra:
            failures.append(f"unexpected findings: {extra}")

    for pair in EXPECTED_SUPPRESSED:
        if pair not in suppressed:
            failures.append(
                f"justified suppression not reported in --json: {pair}")
    for path, rule in suppressed:
        if (path, rule) not in EXPECTED_SUPPRESSED:
            failures.append(
                f"unexpected suppressed finding: {(path, rule)}")

    # Suppressed findings must carry their written justification.
    for entry in report:
        if entry.get("suppressed") and not entry.get("justification"):
            failures.append(
                f"suppressed finding without justification text: {entry}")

    # The human-readable path agrees with --json on the verdict.
    plain = run_analyzer("--frontend", frontend)
    if plain.returncode != 1:
        failures.append(
            f"plain run exit code {plain.returncode}, expected 1")
    for path in MUST_BE_CLEAN:
        if path in plain.stdout:
            failures.append(f"plain output mentions clean file {path}")

    # The rule table stays documented.
    rules_proc = subprocess.run(
        [sys.executable, str(ANALYZE), "--list-rules"],
        capture_output=True, text=True)
    for rule_id in ("SA001", "SA002", "SA003", "SA004",
                    "SA005", "SA006", "SA007", "SA008", "SA009"):
        if rule_id not in rules_proc.stdout:
            failures.append(f"--list-rules does not document {rule_id}")

    # --rules scoping: a subset run reports only that subset's findings
    # (and still exits 1 because the subset has unsuppressed hits).
    subset = run_analyzer("--json", "--frontend", frontend,
                          "--rules", "SA008,SA009")
    try:
        subset_report = json.loads(subset.stdout)
    except json.JSONDecodeError:
        subset_report = None
        failures.append("--rules SA008,SA009 --json output is not JSON")
    if subset_report is not None:
        got = sorted((e["file"], e["rule"]) for e in subset_report
                     if not e.get("suppressed")
                     and e["rule"] in ("SA008", "SA009"))
        want = sorted(p for p in EXPECTED if p[1] in ("SA008", "SA009"))
        if got != want:
            failures.append(
                f"--rules SA008,SA009 findings mismatch: {got} != {want}")
        stray = [e for e in subset_report
                 if e["rule"] not in ("SA008", "SA009", "SA000")]
        if stray:
            failures.append(
                f"--rules subset leaked other rules: {stray[:3]}")
        if subset.returncode != 1:
            failures.append(
                f"--rules subset exit code {subset.returncode}, expected 1")

    # --dot emits a structurally valid Graphviz digraph of the fixture
    # lock graph: no graphviz dependency, just the line grammar plus one
    # known edge (the declared Vault contract, dashed) and one cycle
    # participant.
    import re as _re
    import tempfile
    with tempfile.TemporaryDirectory() as td:
        dot_path = pathlib.Path(td) / "lock.dot"
        dot_proc = run_analyzer("--frontend", frontend,
                                "--dot", str(dot_path))
        if dot_proc.returncode not in (0, 1):
            failures.append(
                f"--dot run exit code {dot_proc.returncode}")
        dot = dot_path.read_text() if dot_path.is_file() else ""
        lines = [ln for ln in dot.splitlines() if ln.strip()]
        node_re = _re.compile(r'^  "[^"]+";$')
        edge_re = _re.compile(
            r'^  "[^"]+" -> "[^"]+" \[label="[^"]*"'
            r'(?:, style=dashed)?\];$')
        if not lines or lines[0] != "digraph lock_order {" \
                or lines[-1] != "}":
            failures.append("--dot output missing digraph wrapper")
        for ln in lines[1:-1]:
            if not (node_re.match(ln) or edge_re.match(ln)):
                failures.append(f"--dot line fails the grammar: {ln!r}")
                break
        if '"Vault::alpha_mu_" -> "Vault::beta_mu_"' not in dot:
            failures.append("--dot missing the Vault observed edge")
        if "style=dashed" not in dot:
            failures.append("--dot missing a declared (dashed) edge")
        if '"Pair::left_mu_" -> "Pair::right_mu_"' not in dot or \
                '"Pair::right_mu_" -> "Pair::left_mu_"' not in dot:
            failures.append("--dot missing the cross-TU cycle edges")

    if failures:
        print("analyzer selftest: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print("--- analyzer --json stdout ---", file=sys.stderr)
        print(proc.stdout, file=sys.stderr)
        return 1

    print(f"analyzer selftest: OK ({len(EXPECTED)} expected findings, "
          f"{len(EXPECTED_SUPPRESSED)} suppressed, "
          f"{len(MUST_BE_CLEAN)} clean files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
