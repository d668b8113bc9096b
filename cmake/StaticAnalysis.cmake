# Static-analysis ctest targets: the TRNG invariant linter, the semantic
# analyzer and the clang-tidy sweep. Registered at the top level so they
# run in every build tree (including sanitizer trees), independent of
# TRNG_BUILD_TESTS.
#
#   ctest -L lint   # trng_lint + semantic analyzer runs and self-tests
#   ctest -L tidy   # clang-tidy over src/ (skips when clang-tidy is absent)

find_package(Python3 COMPONENTS Interpreter QUIET)

if(NOT Python3_Interpreter_FOUND)
  message(WARNING
    "python3 not found: the trng_lint and trng_tidy ctest targets are not "
    "registered in this build tree.")
  return()
endif()

add_test(NAME trng_lint.repo
  COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/trng_lint.py
          --root ${CMAKE_SOURCE_DIR})
set_tests_properties(trng_lint.repo PROPERTIES LABELS "lint")

add_test(NAME trng_lint.selftest
  COMMAND ${Python3_EXECUTABLE}
          ${CMAKE_SOURCE_DIR}/tools/trng_lint_selftest.py)
set_tests_properties(trng_lint.selftest PROPERTIES LABELS "lint")

# Semantic analyzer (SA rules): compile_commands.json from this build tree
# feeds per-TU flags to the libclang frontend when the bindings are
# installed; the dependency-free lite frontend covers every other host, so
# these two never skip.
add_test(NAME trng_analyzer.repo
  COMMAND ${Python3_EXECUTABLE}
          ${CMAKE_SOURCE_DIR}/tools/analyzer/analyze.py
          --root ${CMAKE_SOURCE_DIR} -p ${CMAKE_BINARY_DIR})
set_tests_properties(trng_analyzer.repo PROPERTIES LABELS "lint")

add_test(NAME trng_analyzer.selftest
  COMMAND ${Python3_EXECUTABLE}
          ${CMAKE_SOURCE_DIR}/tools/analyzer/selftest.py)
set_tests_properties(trng_analyzer.selftest PROPERTIES
  LABELS "lint"
  SKIP_RETURN_CODE 77)

# Benchmark regression gate over perfbench records: trng_bench.selftest
# proves the gate trips on every workload x end-to-end metric of the
# committed baseline and refuses a foreign host (always runs);
# trng_bench.diff compares the fresh record that
#   python3 tools/bench_diff.py record --runs 5 \
#       --out ${CMAKE_BINARY_DIR}/BENCH_throughput.json
# writes against the committed baseline, and skips (exit 77) when no fresh
# record exists or it comes from a different host.
add_test(NAME trng_bench.selftest
  COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/bench_diff.py
          --selftest --baseline ${CMAKE_SOURCE_DIR}/BENCH_throughput.json)
set_tests_properties(trng_bench.selftest PROPERTIES LABELS "lint")

add_test(NAME trng_bench.diff
  COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/bench_diff.py
          --baseline ${CMAKE_SOURCE_DIR}/BENCH_throughput.json
          --fresh ${CMAKE_BINARY_DIR}/BENCH_throughput.json)
set_tests_properties(trng_bench.diff PROPERTIES
  LABELS "lint"
  SKIP_RETURN_CODE 77)

# Exit code 77 is the conventional "skip" sentinel: the runner reports the
# test as skipped (not failed) on hosts without clang-tidy.
add_test(NAME trng_tidy.src
  COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/run_clang_tidy.py
          -p ${CMAKE_BINARY_DIR} --source-root ${CMAKE_SOURCE_DIR})
set_tests_properties(trng_tidy.src PROPERTIES
  LABELS "tidy"
  SKIP_RETURN_CODE 77
  TIMEOUT 1800)
