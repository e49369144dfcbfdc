#!/usr/bin/env bash
# End-to-end smoke of the `sxv serve` daemon (run by CI):
#
#   1. boot the daemon with two roles (nurse, doctor) over two generated
#      hospital documents;
#   2. fire a mixed-role request batch and assert every HTTP answer is
#      byte-identical to the one-shot `sxv query` answer for the same
#      (role, query, doc);
#   3. assert /stats reports every tenant that saw traffic;
#   4. shut the daemon down cleanly;
#   5. run the load generator in smoke mode, writing
#      target/smoke/BENCH_serve.json (it carries its own in-process
#      correctness gate). The committed BENCH_serve.json is left as it is.
set -euo pipefail
cd "$(dirname "$0")/.."

SXV="${SXV:-target/release/sxv}"
LOADGEN="${LOADGEN:-target/release/loadgen}"
if [ ! -x "$SXV" ]; then
  cargo build --release --bin sxv
fi
if [ ! -x "$LOADGEN" ]; then
  cargo build --release -p sxv-bench --bin loadgen
fi

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# Seeds are chosen so both documents are non-trivial (the generator can
# legitimately emit `<hospital/>` for unlucky seeds, since dept* allows
# zero departments).
"$SXV" generate --dtd assets/hospital.dtd --root hospital --branch 4 --seed 3 > "$WORK/h1.xml"
"$SXV" generate --dtd assets/hospital.dtd --root hospital --branch 5 --seed 22 > "$WORK/h2.xml"
for f in h1 h2; do
  test "$(wc -c < "$WORK/$f.xml")" -gt 100 || {
    echo "FAIL: generated $f.xml is trivial" >&2; exit 1; }
done

# The nurse policy's $wardNo bind must name a ward that exists at the
# dept level of h1 so nurse queries return non-empty answers.
WARD="$(python3 - "$WORK/h1.xml" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
for m in re.finditer(r'</clinicalTrial>\s*<patientInfo>(.*?)</patientInfo>', text, re.S):
    wards = re.findall(r'<wardNo>(.*?)</wardNo>', m.group(1))
    if wards:
        print(wards[0])
        break
EOF
)"
test -n "$WARD" || { echo "FAIL: no dept-level ward found in generated doc" >&2; exit 1; }
echo "binding wardNo=$WARD"

"$SXV" serve --dtd assets/hospital.dtd --root hospital \
  --role nurse=assets/hospital_nurse.spec \
  --role doctor=assets/hospital_doctor.spec \
  --doc h1="$WORK/h1.xml" --doc h2="$WORK/h2.xml" \
  --bind wardNo="$WARD" \
  --port 0 --workers 4 --stats-interval 0 \
  > "$WORK/serve.out" 2> "$WORK/serve.err" &
SERVER_PID=$!

ADDR=""
for _ in $(seq 50); do
  ADDR="$(awk '/^listening on /{print $3}' "$WORK/serve.out" 2>/dev/null || true)"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
test -n "$ADDR" || { echo "FAIL: daemon did not come up" >&2; cat "$WORK/serve.err" >&2; exit 1; }
echo "daemon at $ADDR (pid $SERVER_PID)"

QUERIES=('//patient/name' '//patient[wardNo]' '//bill' '*')
fail=0
for role in nurse doctor; do
  for docname in h1 h2; do
    for query in "${QUERIES[@]}"; do
      # One-shot CLI answer (the reference).
      "$SXV" query --dtd assets/hospital.dtd --root hospital \
        --spec "assets/hospital_${role}.spec" --bind wardNo="$WARD" \
        --doc "$WORK/$docname.xml" --query "$query" 2>/dev/null > "$WORK/cli.txt"
      # Daemon answer over HTTP, unpacked to the same line format.
      python3 - "$ADDR" "$role" "$docname" "$query" <<'EOF' > "$WORK/http.txt"
import json, sys, urllib.request
addr, role, doc, query = sys.argv[1:5]
body = json.dumps({"role": role, "doc": doc, "query": query}).encode()
req = urllib.request.Request(f"http://{addr}/query", data=body, method="POST")
with urllib.request.urlopen(req, timeout=30) as resp:
    answers = json.load(resp)["answers"]
print("\n".join(answers), end="\n" if answers else "")
EOF
      if ! cmp -s "$WORK/cli.txt" "$WORK/http.txt"; then
        echo "FAIL: $role/$docname $query: HTTP answers differ from sxv query" >&2
        diff "$WORK/cli.txt" "$WORK/http.txt" >&2 || true
        fail=1
      fi
    done
  done
done
if [ "$fail" -eq 0 ]; then
  echo "ok: 16 (role, doc, query) answers byte-identical to sxv query"
fi

python3 - "$ADDR" <<'EOF'
import json, sys, urllib.request
addr = sys.argv[1]
with urllib.request.urlopen(f"http://{addr}/stats", timeout=30) as resp:
    stats = json.load(resp)
tenants = stats["tenants"]
assert len(tenants) == 4, f"expected 4 tenants with traffic, got {len(tenants)}"
for t in tenants:
    assert t["ok"] >= 4, f"tenant answered too little: {t}"
    assert "p50_us" in t and "p99_us" in t and "plan_cache_hit_rate" in t, t
roles = {r["role"]: r for r in stats["roles"]}
assert set(roles) == {"nurse", "doctor"}, roles
for r in roles.values():
    assert r["plan_cache"]["hits"] > 0, f"warm engine saw no plan-cache hits: {r}"
print("ok: /stats reports all 4 tenants with warm plan caches")
EOF

python3 - "$ADDR" <<'EOF'
import json, sys, urllib.request
addr = sys.argv[1]
req = urllib.request.Request(f"http://{addr}/shutdown", data=b"", method="POST")
with urllib.request.urlopen(req, timeout=30) as resp:
    assert json.load(resp)["ok"] is True
EOF
wait "$SERVER_PID"
SERVER_PID=""
echo "ok: daemon shut down cleanly"

mkdir -p target/smoke
"$LOADGEN" --smoke --json target/smoke/BENCH_serve.json
python3 - <<'EOF'
import json
d = json.load(open("target/smoke/BENCH_serve.json"))
assert d["correctness"]["mismatches"] == 0
assert d["correctness"]["checked"] >= 16
assert len(d["tenants"]) == 4, d["tenants"]
for t in d["tenants"]:
    assert t["ok"] > 0 and t["p99_us"] > 0, t
assert d["overall"]["ok"] == d["overall"]["sent"], d["overall"]
print(f"ok: target/smoke/BENCH_serve.json — {d['overall']['ok']} requests, "
      f"overall p99 {d['overall']['p99_us']}us")
EOF

echo "serve smoke passed"
