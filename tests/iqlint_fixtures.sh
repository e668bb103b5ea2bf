#!/bin/sh
# End-to-end fixture test for the iqlint binary: every check has at
# least one clean fixture (exit 0) and one violating fixture (exit 1,
# with the expected diagnostic name and file:line anchor), plus a
# suppression round-trip (suppressed source is clean; stripping the
# suppression comment re-surfaces the finding).
#
# usage: iqlint_fixtures.sh <iqlint-binary> <testdata-dir>
set -eu

IQLINT=$1
TESTDATA=$2
FAILURES=0
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# expect_clean <fixture>
expect_clean() {
  fixture=$1
  if ! "$IQLINT" --root "$TESTDATA/$fixture" src >"$TMP/out" 2>&1; then
    echo "FAIL: $fixture should be clean:"
    cat "$TMP/out"
    FAILURES=$((FAILURES + 1))
  fi
}

# expect_finding <fixture> <check> <file:line-regex>
expect_finding() {
  fixture=$1
  check=$2
  anchor=$3
  status=0
  "$IQLINT" --root "$TESTDATA/$fixture" src >"$TMP/out" 2>&1 || status=$?
  if [ "$status" -ne 1 ]; then
    echo "FAIL: $fixture exited $status, want 1:"
    cat "$TMP/out"
    FAILURES=$((FAILURES + 1))
    return
  fi
  if ! grep -q "\[$check\]" "$TMP/out"; then
    echo "FAIL: $fixture missing [$check] diagnostic:"
    cat "$TMP/out"
    FAILURES=$((FAILURES + 1))
  fi
  if ! grep -Eq "$anchor" "$TMP/out"; then
    echo "FAIL: $fixture missing anchor '$anchor':"
    cat "$TMP/out"
    FAILURES=$((FAILURES + 1))
  fi
}

expect_clean layering_good
expect_finding layering_bad layering 'src/obs/bad\.h:2: error'
expect_finding layering_cycle layering 'include cycle'
expect_clean hotpath_good
expect_finding hotpath_bad hotpath-alloc 'src/core/bad\.cc:11: error'
expect_finding hotpath_bad hotpath-alloc 'src/core/bad\.cc:13: error'
expect_finding hotpath_bad hotpath-alloc 'src/core/bad\.cc:19: error'
expect_finding hotpath_bad hotpath-alloc 'src/core/bad\.cc:25: error'
expect_clean lockrank_good
expect_finding lockrank_bad lock-rank 'src/core/bad\.cc:9: error'
expect_finding lockrank_bad lock-rank 'src/core/bad\.cc:19: error'
expect_clean cast_good
expect_finding cast_bad cast-safety 'src/core/bad\.cc:7: error'
expect_finding cast_bad cast-safety 'src/core/bad\.cc:10: error'
expect_clean metric_good
expect_finding metric_bad metric-hygiene 'metric_names\.h:7: error'
expect_finding metric_bad metric-hygiene 'src/core/user\.cc:5: error'
expect_clean guarded_good
expect_finding guarded_bad guarded-by-coverage 'src/core/bad\.h:17: error'
expect_clean lockset_good
expect_finding lockset_bad lock-set 'src/core/bad\.h:14: error'
expect_clean typestate_good
expect_finding typestate_bad typestate 'src/core/use\.cc:9: error'
expect_finding typestate_bad typestate 'src/core/use\.cc:16: error'
expect_clean floatdet_good
expect_finding floatdet_bad float-determinism 'src/quant/filter_kernel\.cc:8: error'
expect_finding floatdet_bad float-determinism 'src/CMakeLists\.txt:4: error'

# Suppression round-trip: as checked in, the fixture is clean; with the
# suppression comment stripped the finding comes back at the same spot.
expect_clean suppress
mkdir -p "$TMP/suppress/src/core"
grep -v 'allow(cast-safety)' "$TESTDATA/suppress/src/core/s.cc" \
  >"$TMP/suppress/src/core/s.cc"
if "$IQLINT" --root "$TMP/suppress" src >"$TMP/out" 2>&1; then
  echo "FAIL: stripped suppression should re-surface the finding"
  FAILURES=$((FAILURES + 1))
elif ! grep -q '\[cast-safety\]' "$TMP/out"; then
  echo "FAIL: stripped suppression produced the wrong diagnostic:"
  cat "$TMP/out"
  FAILURES=$((FAILURES + 1))
fi

# Usage errors exit 2.
status=0
"$IQLINT" --check nonsense --root "$TESTDATA/layering_good" \
  >/dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
  echo "FAIL: unknown --check exited $status, want 2"
  FAILURES=$((FAILURES + 1))
fi

if [ "$FAILURES" -ne 0 ]; then
  echo "iqlint_fixtures: $FAILURES failure(s)"
  exit 1
fi
echo "iqlint_fixtures: all fixtures behaved"
