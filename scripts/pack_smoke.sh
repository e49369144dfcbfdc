#!/usr/bin/env bash
# End-to-end smoke of the `.sxvpkg` package pipeline (run by CI):
#
#   1. generate a Table 1 (Adex) document and pack it with the §6
#      `analyst` policy plus the stricter `advertiser` policy;
#   2. reproducibility gate: packing the same document and roles a
#      second time must give a byte-identical file;
#   3. byte-identity gate: `sxv query --package` must print exactly
#      what the in-memory `sxv query` prints, for every Table 1 query
#      × every approach (naive, rewrite, optimize, annotate) × both
#      roles (both sides run the indexed `auto` plan, so this also
#      gates the packaged index's interval columns);
#   4. forward-compat gate: a package whose version field is bumped
#      must be refused with a typed version error (exit != 0, no
#      panic), and a truncated package likewise;
#   5. run the cold-start bench in smoke mode, writing
#      target/smoke/BENCH_coldstart.json (it carries its own byte-identity
#      assertion and re-executes fresh processes per probe). The
#      committed BENCH_coldstart.json is left as it is.
set -euo pipefail
cd "$(dirname "$0")/.."

SXV="${SXV:-target/release/sxv}"
COLDSTART="${COLDSTART:-target/release/coldstart}"
if [ ! -x "$SXV" ]; then
  cargo build --release --bin sxv
fi
if [ ! -x "$COLDSTART" ]; then
  cargo build --release -p sxv-bench --bin coldstart
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

DTD=assets/adex.dtd
SPEC=assets/adex_section6.spec
STRICT_SPEC="$WORK/advertiser.spec"
# The loadgen "advertiser" policy: all of head stays denied, listings open.
printf 'ann(adex, head) = N\nann(adex, body) = N\nann(ad-content, real-estate) = Y\n' \
  > "$STRICT_SPEC"

echo "== generate + pack =="
"$SXV" generate --dtd "$DTD" --root adex --branch 12 --seed 7 > "$WORK/adex.xml"
"$SXV" pack --dtd "$DTD" --root adex --doc "$WORK/adex.xml" \
  --role analyst="$SPEC" --role advertiser="$STRICT_SPEC" \
  --out "$WORK/adex.sxvpkg"

echo "== reproducibility: packing twice gives identical bytes =="
"$SXV" pack --dtd "$DTD" --root adex --doc "$WORK/adex.xml" \
  --role analyst="$SPEC" --role advertiser="$STRICT_SPEC" \
  --out "$WORK/again.sxvpkg"
if ! cmp "$WORK/adex.sxvpkg" "$WORK/again.sxvpkg"; then
  echo "FAIL: two packs of the same inputs differ" >&2
  exit 1
fi
echo "ok: two packs are byte-identical ($(wc -c < "$WORK/adex.sxvpkg") bytes)"

echo "== byte-identity: --package vs in-memory, Table 1 x approaches =="
Q1='//buyer-info/contact-info'
Q2='//house/r-e.warranty | //apartment/r-e.warranty'
Q3='//buyer-info[//company-id and //contact-info]'
Q4='//real-estate[//r-e.asking-price and //r-e.unit-type]'
CELLS=0
for role in analyst advertiser; do
  case "$role" in
    analyst) spec="$SPEC" ;;
    advertiser) spec="$STRICT_SPEC" ;;
  esac
  for q in "$Q1" "$Q2" "$Q3" "$Q4"; do
    for approach in naive rewrite optimize annotate; do
      "$SXV" query --dtd "$DTD" --root adex --spec "$spec" \
        --doc "$WORK/adex.xml" --query "$q" --approach "$approach" \
        > "$WORK/mem.out" 2>/dev/null
      "$SXV" query --package "$WORK/adex.sxvpkg" --role "$role" \
        --query "$q" --approach "$approach" \
        > "$WORK/pkg.out" 2>/dev/null
      if ! cmp -s "$WORK/mem.out" "$WORK/pkg.out"; then
        echo "FAIL: answers diverge: role=$role approach=$approach query=$q" >&2
        diff "$WORK/mem.out" "$WORK/pkg.out" >&2 || true
        exit 1
      fi
      CELLS=$((CELLS + 1))
    done
  done
done
echo "ok: $CELLS (role, query, approach) cells byte-identical"

echo "== forward compat: bumped version must be refused =="
cp "$WORK/adex.sxvpkg" "$WORK/future.sxvpkg"
# The version field is the u32 at byte offset 8 (after the 8-byte magic).
printf '\xff\x00\x00\x00' | dd of="$WORK/future.sxvpkg" bs=1 seek=8 conv=notrunc status=none
set +e
OUT="$("$SXV" query --package "$WORK/future.sxvpkg" --role analyst --query "$Q1" 2>&1)"
STATUS=$?
set -e
if [ "$STATUS" -eq 0 ]; then
  echo "FAIL: version-bumped package was accepted" >&2
  exit 1
fi
case "$OUT" in
  *version*) ;;
  *) echo "FAIL: refusal does not mention the version: $OUT" >&2; exit 1 ;;
esac
echo "ok: version-bumped package refused: $OUT"

echo "== robustness: truncated package must be refused =="
head -c 4096 "$WORK/adex.sxvpkg" > "$WORK/cut.sxvpkg"
if "$SXV" query --package "$WORK/cut.sxvpkg" --role analyst --query "$Q1" \
    > /dev/null 2> "$WORK/cut.err"; then
  echo "FAIL: truncated package was accepted" >&2
  exit 1
fi
echo "ok: truncated package refused: $(cat "$WORK/cut.err")"

echo "== cold-start smoke (target/smoke/BENCH_coldstart.json) =="
mkdir -p target/smoke
"$COLDSTART" --smoke --json target/smoke/BENCH_coldstart.json --dir "$WORK/cs"

echo "pack smoke passed."
