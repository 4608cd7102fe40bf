#!/usr/bin/env bash
# End-to-end smoke test of the misam CLI: train a tiny model, persist
# it, analyze/simulate/predict a generated matrix, export a dataset.
set -euo pipefail

CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# A small deterministic banded matrix in Matrix Market form.
{
    n=256
    printf '%%%%MatrixMarket matrix coordinate real general\n'
    printf '%d %d %d\n' "$n" "$n" $((3 * n - 2))
    for ((i = 1; i <= n; ++i)); do
        printf '%d %d 1.0\n' "$i" "$i"
        if ((i < n)); then
            printf '%d %d 0.5\n' "$i" $((i + 1))
            printf '%d %d -0.5\n' $((i + 1)) "$i"
        fi
    done
} > "$WORK/g.mtx"

echo "== train =="
"$CLI" train --out "$WORK/model.bin" --samples 60 --seed 3
test -s "$WORK/model.bin"

echo "== analyze =="
"$CLI" analyze --matrix "$WORK/g.mtx" --self | grep -q "A_sparsity"

echo "== simulate =="
"$CLI" simulate --matrix "$WORK/g.mtx" --self | grep -q "fastest:"

echo "== simulate --metrics =="
"$CLI" simulate --matrix "$WORK/g.mtx" --self \
    --metrics "$WORK/trace.jsonl" | grep -q "metrics trace written"
test -s "$WORK/trace.jsonl"

# Schema check of the JSONL trace: every line parses as flat JSON,
# carries the documented envelope ("ev" string, "t" sequencing from 0),
# and every counter value is a non-negative integer.
if command -v python3 >/dev/null 2>&1; then
    python3 - "$WORK/trace.jsonl" <<'PYEOF'
import json, sys

path = sys.argv[1]
events = set()
with open(path) as f:
    for lineno, line in enumerate(f):
        try:
            obj = json.loads(line)
        except ValueError as e:
            sys.exit(f"{path}:{lineno + 1}: invalid JSON: {e}")
        for key in ("ev", "t"):
            if key not in obj:
                sys.exit(f"{path}:{lineno + 1}: missing key {key!r}")
        if not isinstance(obj["ev"], str) or not obj["ev"]:
            sys.exit(f"{path}:{lineno + 1}: 'ev' must be a string")
        if obj["t"] != lineno:
            sys.exit(f"{path}:{lineno + 1}: 't' is {obj['t']}, "
                     f"expected the line sequence {lineno}")
        if obj["ev"] == "counter":
            value = obj.get("value")
            if not isinstance(value, int) or value < 0:
                sys.exit(f"{path}:{lineno + 1}: counter "
                         f"{obj.get('name')!r} has non-counter "
                         f"value {value!r}")
        events.add(obj["ev"])
missing = {"run", "sim.design", "sim.hbm", "counter"} - events
if missing:
    sys.exit(f"{path}: expected event types missing: {sorted(missing)}")
print(f"trace schema OK ({lineno + 1} events)")
PYEOF
else
    # Fallback without python3: envelope + key events, line-anchored.
    grep -q '^{"ev":"run","t":0,' "$WORK/trace.jsonl"
    grep -q '"ev":"sim.design"' "$WORK/trace.jsonl"
    grep -q '"ev":"counter"' "$WORK/trace.jsonl"
    if grep -v '^{"ev":"[a-z._]*","t":[0-9]*,' "$WORK/trace.jsonl"; then
        echo "malformed trace line"; exit 1
    fi
    echo "trace schema OK (grep fallback)"
fi

echo "== detail =="
"$CLI" detail --matrix "$WORK/g.mtx" --self | grep -q "bound by"

echo "== predict =="
"$CLI" predict --model "$WORK/model.bin" --matrix "$WORK/g.mtx" --self \
    | grep -q "predicted design"

echo "== predict --metrics =="
"$CLI" predict --model "$WORK/model.bin" --matrix "$WORK/g.mtx" --self \
    --metrics "$WORK/ptrace.jsonl" | grep -q "metrics trace written"
grep -q '"ev":"decision"' "$WORK/ptrace.jsonl"
grep -q '"name":"phase.preprocess"' "$WORK/ptrace.jsonl"

echo "== serve =="
# Three jobs over the same matrix (self-product), one with repetitions:
# the content-addressed cache should see one distinct operand and hit on
# every lookup after the first.
{
    printf '# serve smoke jobs\n'
    printf '{"name":"first","a":"%s"}\n' "$WORK/g.mtx"
    printf '{"name":"again","a":"%s","b":"self"}\n' "$WORK/g.mtx"
    printf '{"name":"reps","a":"%s","repetitions":4}\n' "$WORK/g.mtx"
} > "$WORK/jobs.jsonl"
"$CLI" serve --model "$WORK/model.bin" --jobs "$WORK/jobs.jsonl" \
    --threads 2 --metrics "$WORK/strace.jsonl" | tee "$WORK/serve.out"
grep -q "served 3 jobs" "$WORK/serve.out"
grep -q "operand cache:" "$WORK/serve.out"
test -s "$WORK/strace.jsonl"

# Schema + counter checks on the serve trace: envelope as above, the
# per-job serve.job events, and the serve.*/cache.* counters with the
# values this workload pins (3 jobs, 1 distinct operand -> 5 hits of 6
# lookups).
if command -v python3 >/dev/null 2>&1; then
    python3 - "$WORK/strace.jsonl" <<'PYEOF'
import json, sys

path = sys.argv[1]
counters = {}
jobs = []
with open(path) as f:
    for lineno, line in enumerate(f):
        try:
            obj = json.loads(line)
        except ValueError as e:
            sys.exit(f"{path}:{lineno + 1}: invalid JSON: {e}")
        if "ev" not in obj or obj.get("t") != lineno:
            sys.exit(f"{path}:{lineno + 1}: bad envelope: {obj}")
        if obj["ev"] == "counter":
            counters[obj["name"]] = obj["value"]
        elif obj["ev"] == "serve.job":
            jobs.append(obj["name"])

if jobs != ["first", "again", "reps"]:
    sys.exit(f"{path}: serve.job events out of order: {jobs}")
expect = {"serve.admitted": 3, "serve.completed": 3,
          "cache.summary_misses": 1}
for name, value in expect.items():
    if counters.get(name) != value:
        sys.exit(f"{path}: counter {name} = {counters.get(name)!r}, "
                 f"expected {value}")
if counters.get("cache.summary_hits", 0) < 5:
    sys.exit(f"{path}: cache.summary_hits = "
             f"{counters.get('cache.summary_hits')!r}, expected >= 5")
print("serve trace OK")
PYEOF
else
    grep -q '"ev":"serve.job"' "$WORK/strace.jsonl"
    grep -q '"name":"serve.completed","value":3' "$WORK/strace.jsonl"
    grep -q '"name":"cache.summary_misses","value":1' "$WORK/strace.jsonl"
    echo "serve trace OK (grep fallback)"
fi

echo "== dataset =="
"$CLI" dataset --out "$WORK/data.csv" --samples 20 --seed 4
lines=$(wc -l < "$WORK/data.csv")
test "$lines" -eq 21   # header + 20 rows

echo "== usage on bad input =="
if "$CLI" frobnicate 2>/dev/null; then
    echo "expected nonzero exit"; exit 1
fi

echo "== --dense-cols beyond memory is refused before allocating =="
printf '%%%%MatrixMarket matrix coordinate real general\n4 16777216 0\n' \
    > "$WORK/wide.mtx"
if "$CLI" analyze --matrix "$WORK/wide.mtx" --dense-cols 4294967295 \
    2> "$WORK/dense.err"; then
    echo "expected nonzero exit"; exit 1
fi
grep -q "a 16777216 x 4294967295 dense B does not fit in memory" \
    "$WORK/dense.err"

# Survival check for the mode-keyed bench summary: a --smoke run must
# replace only the "smoke" section and carry an existing "full" section
# (the committed full-run numbers) over verbatim.
BENCH_SIM="${2:-}"
if [ -n "$BENCH_SIM" ]; then
    echo "== bench_sim_hot smoke keeps the full section =="
    cat > "$WORK/bench.json" <<'JSONEOF'
{
  "bench": "bench_sim_hot",
  "full": {
    "workloads": [
      {"name": "sentinel", "fast_seconds": 1.0}
    ]
  }
}
JSONEOF
    "$BENCH_SIM" --smoke --out="$WORK/bench.json" >/dev/null
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$WORK/bench.json" <<'PYEOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)
full = data.get("full", {}).get("workloads")
if not full or full[0].get("name") != "sentinel":
    sys.exit(f"full section clobbered by smoke run: {data.get('full')}")
if not data.get("smoke", {}).get("workloads"):
    sys.exit("smoke section missing after smoke run")
print("bench summary merge OK")
PYEOF
    else
        grep -q '"sentinel"' "$WORK/bench.json"
        grep -q '"smoke"' "$WORK/bench.json"
        echo "bench summary merge OK (grep fallback)"
    fi
fi

# misam-lint machine formats: the JSON and SARIF documents must parse
# and carry the documented envelope, and a warm re-run against an
# unchanged tree must serve every file from the incremental cache
# without reading a single file body.
LINT="${3:-}"
if [ -n "$LINT" ]; then
    echo "== misam-lint formats =="
    "$LINT" --root "$REPO_ROOT" --format=json \
        --out "$WORK/lint.json" >/dev/null
    "$LINT" --root "$REPO_ROOT" --format=sarif \
        --out "$WORK/lint.sarif" >/dev/null
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$WORK/lint.json" "$WORK/lint.sarif" <<'PYEOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
if doc.get("tool") != "misam-lint":
    sys.exit(f"json: bad tool field: {doc.get('tool')}")
for key in ("files_scanned", "allows_used", "cache", "diagnostics"):
    if key not in doc:
        sys.exit(f"json: missing key {key}")
for key in ("hits", "misses", "files_read"):
    if key not in doc["cache"]:
        sys.exit(f"json: missing cache key {key}")
for d in doc["diagnostics"]:
    for key in ("rule", "file", "line", "message"):
        if key not in d:
            sys.exit(f"json: diagnostic missing {key}: {d}")

with open(sys.argv[2]) as f:
    sarif = json.load(f)
if sarif.get("version") != "2.1.0":
    sys.exit(f"sarif: bad version: {sarif.get('version')}")
runs = sarif.get("runs")
if not runs:
    sys.exit("sarif: no runs")
driver = runs[0]["tool"]["driver"]
if driver.get("name") != "misam-lint":
    sys.exit(f"sarif: bad driver name: {driver.get('name')}")
rule_ids = {r["id"] for r in driver.get("rules", [])}
if len(rule_ids) < 10:
    sys.exit(f"sarif: expected >= 10 rules, got {sorted(rule_ids)}")
for res in runs[0].get("results", []):
    if res.get("ruleId") not in rule_ids:
        sys.exit(f"sarif: result names unknown rule: {res}")
    loc = res["locations"][0]["physicalLocation"]
    if loc["region"]["startLine"] < 1:
        sys.exit(f"sarif: bad startLine: {res}")
print("lint json + sarif schema OK")
PYEOF
    else
        grep -q '"tool": "misam-lint"' "$WORK/lint.json"
        grep -q '"version": "2.1.0"' "$WORK/lint.sarif"
        echo "lint json + sarif schema OK (grep fallback)"
    fi

    echo "== misam-lint warm cache =="
    "$LINT" --root "$REPO_ROOT" --cache "$WORK/lint.cache" \
        > "$WORK/lint_cold.txt"
    "$LINT" --root "$REPO_ROOT" --cache "$WORK/lint.cache" \
        > "$WORK/lint_warm.txt"
    grep -q " 0 cache hit(s)" "$WORK/lint_cold.txt"
    grep -q " 0 miss(es), 0 file(s) read" "$WORK/lint_warm.txt"
    echo "lint warm cache OK"
fi

echo "cli smoke OK"
