#!/usr/bin/env bash
#
# Full verification flow (docs/STATIC_ANALYSIS.md has the matrix):
#   0. lint — misam-lint determinism rules + clang-tidy (NOTICE skip
#      when the toolchain lacks clang-tidy). Runs first so invariant
#      violations fail fast, before the full build.
#   1. tier-1 build (warning-gated) + full ctest pass,
#   2. the golden-trace suite, the Matrix Market reader's tests and
#      the job-file parser's tests (seeded mutation runs included)
#      under an AddressSanitizer build,
#   3. golden + scheduler-kernel + Matrix Market + job-file tests under
#      UBSan (MISAM_SANITIZE=undefined, -fno-sanitize-recover=all: any
#      UB aborts the test, so a green run asserts a UB-clean tree),
#   4. a ThreadSanitizer build running the parallel-layer and serving-
#      layer tests, so data races in the thread pool / sample fan-out /
#      operand cache / server dispatcher are caught at check time.
#
# Sanitizer passes are skipped (with a notice) when the toolchain lacks
# the runtime — the container's compiler may not ship every libsan.
#
# Usage: scripts/check.sh [--tsan-only] [--lint-only]

set -euo pipefail
cd "$(dirname "$0")/.."

tsan_only=0
lint_only=0
for arg in "$@"; do
    case "$arg" in
      --tsan-only) tsan_only=1 ;;
      --lint-only) lint_only=1 ;;
      *)
        echo "usage: scripts/check.sh [--tsan-only] [--lint-only]" >&2
        exit 2
        ;;
    esac
done

# True when the toolchain can link the given -fsanitize= runtime.
# Probes are compiled once per runtime per invocation and memoized in
# san_probe_cache, then persisted under build/ keyed by the compiler
# version, so repeated check.sh runs skip the probe compile entirely.
declare -A san_probe_cache
san_cache_file=""
init_san_cache() {
    [[ -n "$san_cache_file" ]] && return 0
    mkdir -p build
    local stamp
    stamp=$(c++ --version 2>/dev/null | head -1 | cksum | cut -d' ' -f1)
    san_cache_file="build/.sanitizer_probes.$stamp"
    if [[ -f "$san_cache_file" ]]; then
        while IFS='=' read -r name ok; do
            [[ -n "$name" ]] && san_probe_cache["$name"]="$ok"
        done < "$san_cache_file"
    else
        # Stale caches from an older compiler are dropped.
        rm -f build/.sanitizer_probes.* 2>/dev/null || true
        : > "$san_cache_file"
    fi
}
have_sanitizer() {
    init_san_cache
    if [[ -n "${san_probe_cache[$1]:-}" ]]; then
        [[ "${san_probe_cache[$1]}" == 1 ]]
        return
    fi
    local probe ok=0
    probe=$(mktemp /tmp/misam_san_probe.XXXXXX)
    if echo 'int main(){return 0;}' |
        c++ "-fsanitize=$1" -x c++ - -o "$probe" 2>/dev/null; then
        ok=1
    fi
    rm -f "$probe"
    san_probe_cache["$1"]="$ok"
    echo "$1=$ok" >> "$san_cache_file"
    [[ "$ok" == 1 ]]
}

if [[ "$tsan_only" -eq 0 ]]; then
    echo "== lint: misam-lint + clang-tidy =="
    cmake -B build -S . >/dev/null
    cmake --build build --target misam_lint -j >/dev/null
    ./build/tools/lint/misam-lint --root . \
        --cache build/misam_lint.cache
    scripts/run_clang_tidy.sh . build
    if [[ "$lint_only" -eq 1 ]]; then
        echo "check.sh: lint pass complete (--lint-only)"
        exit 0
    fi
fi

if [[ "$tsan_only" -eq 0 ]]; then
    echo "== tier-1: build + ctest =="
    cmake -B build -S .
    build_log=$(mktemp /tmp/misam_build_log.XXXXXX)
    cmake --build build -j 2>&1 | tee "$build_log"
    # The tree builds warning-free under -Wall -Wextra; keep it that way.
    if grep -E 'warning:' "$build_log"; then
        rm -f "$build_log"
        echo "check.sh: compiler warnings introduced (see above)" >&2
        exit 1
    fi
    rm -f "$build_log"
    (cd build && ctest --output-on-failure -j)

    # Simulator hot-loop bench smoke: one rep per workload, then verify
    # the machine-readable summary exists, parses, and reports zero
    # steady-state arena allocations (the bench exits nonzero itself if
    # the allocation contract breaks).
    echo "== bench_sim_hot smoke =="
    sim_json=$(mktemp /tmp/misam_bench_sim.XXXXXX.json)
    ./build/bench/bench_sim_hot --smoke --out="$sim_json"
    python3 - "$sim_json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
assert data["bench"] == "bench_sim_hot", data
workloads = data["smoke"]["workloads"]
assert len(workloads) >= 3, data
for w in workloads:
    assert w["steady_alloc_events"] == 0, w
print("bench_sim_hot smoke: %d workloads, JSON ok" % len(workloads))
EOF
    rm -f "$sim_json"

    # Lookahead serving bench smoke: a small thrashing stream through
    # all three arms. The bench exits nonzero itself unless per-job
    # results are bit-identical across arms AND lookahead strictly
    # reduces paid loads and makespan vs the per-job engine.
    echo "== bench_serve_lookahead smoke =="
    serve_json=$(mktemp /tmp/misam_bench_serve.XXXXXX.json)
    ./build/bench/bench_serve_lookahead --smoke --out="$serve_json"
    python3 - "$serve_json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
assert data["bench"] == "bench_serve_lookahead", data
arms = {a["name"]: a for a in data["arms"]}
assert set(arms) == {"admission", "lookahead", "lookahead+prewarm"}, arms
assert arms["lookahead"]["paid_loads"] < arms["admission"]["paid_loads"]
assert (arms["lookahead"]["makespan_seconds"]
        < arms["admission"]["makespan_seconds"])
print("bench_serve_lookahead smoke: %d jobs, %d -> %d paid loads, "
      "JSON ok" % (data["jobs"], arms["admission"]["paid_loads"],
                   arms["lookahead"]["paid_loads"]))
EOF
    rm -f "$serve_json"

    # Fleet serving bench smoke: 1/2/4/8 boards under both routing
    # policies on the thrashing two-tenant stream. The bench exits
    # nonzero itself unless per-job results are bit-identical across
    # all arms AND affinity routing strictly reduces paid loads per 1k
    # jobs vs least-loaded at 4 boards.
    echo "== bench_fleet smoke =="
    fleet_json=$(mktemp /tmp/misam_bench_fleet.XXXXXX.json)
    ./build/bench/bench_fleet --smoke --out="$fleet_json"
    python3 - "$fleet_json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)["fleet"]
assert data["bench"] == "bench_fleet", data
arms = {a["name"]: a for a in data["arms"]}
assert len(arms) == 8, arms
aff4 = arms["affinity-4"]
ll4 = arms["least-loaded-4"]
assert (aff4["reconfigs_per_1k_jobs"]
        < ll4["reconfigs_per_1k_jobs"]), (aff4, ll4)
print("bench_fleet smoke: %d jobs, affinity %.1f vs least-loaded %.1f "
      "loads/1k at 4 boards, JSON ok"
      % (data["jobs"], aff4["reconfigs_per_1k_jobs"],
         ll4["reconfigs_per_1k_jobs"]))
EOF
    rm -f "$fleet_json"

    # End-to-end benchmark smoke: every workload at a tiny size, traced
    # and untraced, through its correctness gate. Its build lands in
    # build/ with the rest.
    echo "== perfbench smoke =="
    CARGO_TARGET_DIR="$PWD/build/perfbench_smoke" \
        python3 perfbench/test_smoke.py

    # Golden-trace suite under ASan: the trace emitters and the JSONL
    # sink touch raw buffers, so run the byte-stability suite with
    # memory checking on.
    if have_sanitizer address; then
        echo "== ASan: build + golden-trace/kernel tests =="
        cmake -B build-asan -S . -DMISAM_SANITIZE=address \
              -DCMAKE_BUILD_TYPE=RelWithDebInfo
        cmake --build build-asan -j --target test_metrics \
              test_scheduler_kernels test_simd_dispatch test_generate_io \
              test_serve
        (cd build-asan && ctest --output-on-failure -L golden)
        (cd build-asan && ./tests/test_scheduler_kernels \
            --gtest_brief=1 >/dev/null)
        (cd build-asan && ./tests/test_simd_dispatch \
            --gtest_brief=1 >/dev/null)
        # The Matrix Market reader walks raw pointers over untrusted
        # bytes; its mutation run must stay memory-clean.
        (cd build-asan && ./tests/test_generate_io \
            --gtest_brief=1 >/dev/null)
        # So does the job-file parser, over untrusted JSONL lines.
        (cd build-asan && ./tests/test_serve --gtest_filter='JobFile*' \
            --gtest_brief=1 >/dev/null)
        echo "test_scheduler_kernels + test_simd_dispatch +" \
             "test_generate_io + job-file tests under ASan: ok"
    else
        echo "NOTICE: toolchain lacks AddressSanitizer support;" \
             "skipping the ASan golden pass."
    fi

    # Golden + scheduler-kernel tests under UBSan. The build uses
    # -fno-sanitize-recover=all, so *any* undefined behavior on these
    # paths aborts the test — a green run asserts the tree is UB-clean
    # where the determinism contract lives.
    if have_sanitizer undefined; then
        echo "== UBSan: build + golden-trace/kernel tests =="
        cmake -B build-ubsan -S . -DMISAM_SANITIZE=undefined \
              -DCMAKE_BUILD_TYPE=RelWithDebInfo
        cmake --build build-ubsan -j --target test_metrics \
              test_scheduler_kernels test_simd_dispatch test_generate_io \
              test_serve
        (cd build-ubsan && ctest --output-on-failure -L golden)
        (cd build-ubsan && ./tests/test_scheduler_kernels \
            --gtest_brief=1 >/dev/null)
        # The dispatch-parity suite drives every SIMD kernel (both
        # backends, boundary lengths) under -fno-sanitize-recover=all,
        # so any UB in the vector paths aborts here.
        (cd build-ubsan && ./tests/test_simd_dispatch \
            --gtest_brief=1 >/dev/null)
        (cd build-ubsan && ./tests/test_generate_io \
            --gtest_brief=1 >/dev/null)
        (cd build-ubsan && ./tests/test_serve --gtest_filter='JobFile*' \
            --gtest_brief=1 >/dev/null)
        echo "test_scheduler_kernels + test_simd_dispatch +" \
             "test_generate_io + job-file tests under UBSan: ok (no UB" \
             "on the golden/kernel/vector/Matrix Market/job-file paths)"
    else
        echo "NOTICE: toolchain lacks UndefinedBehaviorSanitizer" \
             "support; skipping the UBSan pass."
    fi
fi

# TSan pass over the parallel tests, the serving layer (cache + server
# smoke under concurrency), and the scratch-arena scheduler kernels /
# symbolic cache (thread-local arenas + shared memoization).
if have_sanitizer thread; then
    echo "== TSan: build + parallel/serve/kernel tests =="
    cmake -B build-tsan -S . -DMISAM_SANITIZE=thread \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build build-tsan -j --target test_parallel test_serve \
          test_lookahead test_fleet test_scheduler_kernels
    (cd build-tsan && ctest --output-on-failure -R '^Parallel')
    (cd build-tsan && ctest --output-on-failure -L serve)
    (cd build-tsan && ./tests/test_scheduler_kernels \
        --gtest_brief=1 >/dev/null)
    echo "test_scheduler_kernels under TSan: ok"
else
    echo "NOTICE: toolchain lacks ThreadSanitizer support; skipping" \
         "the TSan pass."
fi

echo "check.sh: all passes complete"
