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
# Batch mode shares one tracer: the dropped-span count and the number
# of calibrated queries are always reported (no drops at this size).
"$IQTOOL" profile --dir "$DIR" --index idx --queries ds --limit 4 --k 2 \
    --threads 2 --json > "$DIR/profile.json"
grep -q '"queries"' "$DIR/profile.json"
grep -Eq '"dropped_spans": ?0, ?"calibrated_queries": ?[0-9]+' \
    "$DIR/profile.json"
"$IQTOOL" profile --dir "$DIR" --index idx --queries ds --limit 4 --k 2 \
    --threads 2 | grep -Eq '^dropped_spans=0, calibrated [0-9]+ of 4 queries$'
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

echo "iqtool smoke OK"
