#!/bin/sh
# End-to-end smoke test of the iqtool CLI: generate -> build -> query ->
# stats -> profile -> validate -> reopt against real files in a temp
# directory.
set -eu

IQTOOL="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$IQTOOL" generate --out "$DIR/ds" --workload cad --n 3000 --dims 8 \
    --seed 7 | grep -q "wrote 3000 x 8"
"$IQTOOL" build --dir "$DIR" --dataset ds --index idx | grep -q "built 'idx'"
"$IQTOOL" query --dir "$DIR" --index idx \
    --point 0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5 --k 3 | grep -qc "id=" \
    >/dev/null
"$IQTOOL" query --dir "$DIR" --index idx \
    --point 0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5 --radius 0.4 \
    | grep -q "points within"
"$IQTOOL" stats --dir "$DIR" --index idx | grep -q "points:       3000"
"$IQTOOL" stats --dir "$DIR" --index idx --metrics \
    | grep -q "# TYPE iq_storage_reads_total counter"
"$IQTOOL" stats --dir "$DIR" --index idx --json | grep -q '"metrics"'
# profile: span tree + consistency check (exits non-zero on a
# trace/stats mismatch), single query and dataset batch, both modes.
"$IQTOOL" profile --dir "$DIR" --index idx \
    --point 0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5 --k 3 >/dev/null
"$IQTOOL" profile --dir "$DIR" --index idx --queries ds --limit 4 \
    --radius 0.4 >/dev/null
"$IQTOOL" profile --dir "$DIR" --index idx --queries ds --limit 4 --k 2 \
    --json | grep -q '"queries"'
# Batch mode runs the queries on a thread pool, each with its own
# tracer and stats sink: every query is calibrated, and each query's
# stats and the calibration report are the same, byte for byte, as
# when the queries run one after another.
"$IQTOOL" profile --dir "$DIR" --index idx --queries ds --limit 4 --k 2 \
    --threads 2 --json > "$DIR/profile.json"
grep -q '"queries"' "$DIR/profile.json"
# With observability compiled out (-DIQ_OBS_DISABLED) traces are empty
# and calibration records nothing.
calibrated=4
if grep -q '"trace":\[\]' "$DIR/profile.json"; then calibrated=0; fi
grep -Eq "\"dropped_spans\": ?0, ?\"calibrated_queries\": ?$calibrated" \
    "$DIR/profile.json"
"$IQTOOL" profile --dir "$DIR" --index idx --queries ds --limit 4 --k 2 \
    --threads 2 \
    | grep -Eq "^dropped_spans=0, calibrated $calibrated of 4 queries\$"
for threads in 1 4; do
  "$IQTOOL" profile --dir "$DIR" --index idx --queries ds --limit 8 --k 3 \
      --threads "$threads" --json \
      | grep -Eo '"stats":\{[^}]*\}|"calibration":.*"metrics"' \
      > "$DIR/observed-$threads.txt"
done
grep -q '"seeks"' "$DIR/observed-1.txt"
cmp "$DIR/observed-1.txt" "$DIR/observed-4.txt"
"$IQTOOL" validate --dir "$DIR" --index idx | grep -q "^OK"
"$IQTOOL" reopt --dir "$DIR" --index idx | grep -q "reoptimized"
"$IQTOOL" validate --dir "$DIR" --index idx | grep -q "^OK"

# Sharded layout: build a manifest, then both stats/health spellings.
"$IQTOOL" shard build --dir "$DIR" --dataset ds --manifest m --shards 3 \
    --plan rank | grep -q "built 3 shards over 3000 points"
"$IQTOOL" shard stats --dir "$DIR" --manifest m \
    | grep -q "points:       3000"
"$IQTOOL" shard stats --dir "$DIR" --manifest m --json \
    | grep -q '"per_shard"'
"$IQTOOL" stats --dir "$DIR" --manifest m --json | grep -q '"aggregate"'
"$IQTOOL" shard health --dir "$DIR" --manifest m \
    | grep -q "points / pages:     3000"
"$IQTOOL" health --dir "$DIR" --manifest m --json | grep -q '"per_shard"'

# Error paths exit non-zero.
if "$IQTOOL" query --dir "$DIR" --index missing --point 0.5 2>/dev/null; then
  echo "expected failure for missing index" >&2
  exit 1
fi
if "$IQTOOL" bogus-subcommand 2>/dev/null; then
  echo "expected usage failure" >&2
  exit 1
fi

# Bad arguments exit 2 with an error that names the option: one the
# command does not list, or a value that does not parse.
expect_arg_error() {
  option="$1"
  shift
  rc=0
  "$IQTOOL" "$@" >/dev/null 2>"$DIR/err.txt" || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -e "^error: .*$option" "$DIR/err.txt"; then
    echo "expected exit 2 and an error naming $option for: $*" >&2
    exit 1
  fi
}
expect_arg_error --bogus-flag shard build --dir "$DIR" --dataset ds \
    --manifest m2 --shards 2 --bogus-flag 3
expect_arg_error --batch shard build --dir "$DIR" --dataset ds \
    --manifest m2 --batch 8
expect_arg_error --k query --dir "$DIR" --index idx \
    --point 0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5 --k 10x
expect_arg_error --radius query --dir "$DIR" --index idx \
    --point 0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5 --radius 0.4x
expect_arg_error --metric build --dir "$DIR" --dataset ds --index idx2 \
    --metric l3
expect_arg_error --json stats --dir "$DIR" --index idx --json yes

echo "iqtool smoke OK"
