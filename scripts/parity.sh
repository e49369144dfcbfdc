#!/usr/bin/env bash
# Compare what two sxv binaries print, byte for byte.
#
#   scripts/parity.sh OLD_SXV NEW_SXV
#
# Generates fixed-seed documents with `sxv generate`, then runs one grid
# through both binaries:
#   * `explain --verify`, text and JSON, for every shipped policy × its
#     queries × the four approaches;
#   * `lint --plans --format json` once per policy, over its queries;
#   * `query --stats` over the generated documents × the same queries ×
#     the four approaches (the nurse policy under three `wardNo`
#     bindings), so the translation, the plan and the executor's work
#     counters are compared along with the answers.
# Each call's stdout, stderr and exit code go into one transcript per
# binary; `query` stderr lines that carry wall-clock timings (setup,
# query, certifier, accessibility bitmaps) are left out. Exits 0 when
# the transcripts are identical, 1 on any byte difference (printing the
# first differing lines), 2 on bad usage.
#
# Build the old binary from a clean copy of the old commit (`git
# archive`), and rebuild both from their sources before comparing.
set -uo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 2 ] || [ ! -x "$1" ] || [ ! -x "$2" ]; then
  echo "usage: scripts/parity.sh OLD_SXV NEW_SXV (two executable sxv binaries)" >&2
  exit 2
fi
old=$(realpath "$1")
new=$(realpath "$2")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

APPROACHES=(naive rewrite optimize annotate)

ADEX=(--dtd assets/adex.dtd --root adex --spec assets/adex_section6.spec)
ADEX_Q=(
  '//buyer-info/contact-info'
  '//house/r-e.warranty | //apartment/r-e.warranty'
  '//buyer-info[//company-id and //contact-info]'
  '//real-estate[//r-e.asking-price and //r-e.unit-type]'
  '//*'
  'head/*'
  '//ad-instance[real-estate]'
)
HOSPITAL=(--dtd assets/hospital.dtd --root hospital)
NURSE=("${HOSPITAL[@]}" --spec assets/hospital_nurse.spec)
NURSE_Q=(
  '//bill'
  '//patient/name'
  "//patient[wardNo='6']"
  '//dept/patientInfo'
  '//treatment/*'
  '//test'
  'dept'
  '//*'
)
DOCTOR=("${HOSPITAL[@]}" --spec assets/hospital_doctor.spec)
DOCTOR_Q=('//bill' '//patient/name' '//treatment' '//test' 'dept' '//*')
AUCTION=(--dtd assets/auction.dtd --root site --spec assets/auction_bidder.spec)
AUCTION_Q=(
  '//open-auction/current'
  '//bid/amount'
  '//closed-auction/final-price'
  '//category/cat-name'
  '//*'
)
BOM=(--dtd assets/bom.dtd --root bom --spec assets/bom_contractor.spec)
BOM_Q=('//partno' '//part/name' 'assembly/part/subpart//partno' '//part[name]/partno' '//*')

transcript=
bin=

# Run the binary under test with "$@" and append one record.
run() {
  "$bin" "$@" >"$work/out" 2>"$work/err"
  local code=$?
  if [ "$1" = query ]; then
    grep -v -E '^(setup|query|certifier|accessibility bitmaps): ' "$work/err" >"$work/kept"
    mv "$work/kept" "$work/err"
  fi
  {
    printf '## %s\n' "$*"
    cat "$work/out"
    printf '## stderr\n'
    cat "$work/err"
    printf '## exit %d\n' "$code"
  } >>"$transcript"
}

# explain and lint: POLICY_ARGS_NAME QUERIES_NAME [extra args…]
plans() {
  local -n policy=$1 queries=$2
  shift 2
  local q a lint=()
  for q in "${queries[@]}"; do
    lint+=(--query "$q")
    for a in "${APPROACHES[@]}"; do
      run explain "${policy[@]}" "$@" --query "$q" --approach "$a" --verify
      run explain "${policy[@]}" "$@" --query "$q" --approach "$a" --verify --format json
    done
  done
  run lint "${policy[@]}" "$@" "${lint[@]}" --plans --format json
}

# query: POLICY_ARGS_NAME QUERIES_NAME DOC [extra args…]
answers() {
  local -n policy=$1 queries=$2
  local doc=$3
  shift 3
  local q a
  for q in "${queries[@]}"; do
    for a in "${APPROACHES[@]}"; do
      run query "${policy[@]}" "$@" --doc "$doc" --query "$q" --approach "$a" --stats
    done
  done
}

# Documents come from the old binary; the new one must generate the
# same bytes (checked as part of its transcript).
gen() {
  "$old" generate "${@:2}" >"$work/$1" || {
    echo "parity: sxv generate failed for $1" >&2
    exit 2
  }
}
gen adex1.xml "${ADEX[@]:0:4}" --branch 3 --seed 1
gen adex2.xml "${ADEX[@]:0:4}" --branch 4 --seed 2
gen hospital.xml "${HOSPITAL[@]}" --branch 4 --seed 3
gen auction.xml "${AUCTION[@]:0:4}" --branch 3 --seed 4
gen bom.xml "${BOM[@]:0:4}" --branch 3 --seed 5 --depth 12

grid() {
  run generate "${ADEX[@]:0:4}" --branch 3 --seed 1
  run generate "${HOSPITAL[@]}" --branch 4 --seed 3
  plans ADEX ADEX_Q
  plans NURSE NURSE_Q --bind wardNo=6
  plans DOCTOR DOCTOR_Q
  plans AUCTION AUCTION_Q
  plans BOM BOM_Q
  answers ADEX ADEX_Q "$work/adex1.xml"
  answers ADEX ADEX_Q "$work/adex2.xml"
  local w
  for w in 6 7 8; do
    answers NURSE NURSE_Q "$work/hospital.xml" --bind wardNo="$w"
  done
  answers DOCTOR DOCTOR_Q "$work/hospital.xml"
  answers AUCTION AUCTION_Q "$work/auction.xml"
  answers BOM BOM_Q "$work/bom.xml"
}

for side in old new; do
  bin=${!side}
  transcript="$work/$side.txt"
  : >"$transcript"
  grid
done

calls=$(grep -c '^## exit ' "$work/old.txt")
if cmp -s "$work/old.txt" "$work/new.txt"; then
  echo "parity: $calls calls, $(wc -l <"$work/old.txt") transcript lines, byte-identical"
  exit 0
fi
echo "parity: transcripts differ over $calls calls; first differences:" >&2
diff "$work/old.txt" "$work/new.txt" | head -40 >&2
exit 1
