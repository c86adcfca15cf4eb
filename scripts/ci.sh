#!/usr/bin/env sh
# Repo CI gate: formatting, lints, then the tier-1 verify
# (build + full test suite). Run from the repo root:
#
#   sh scripts/ci.sh
#
# Fails fast: the first failing step aborts the run.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release --workspace

echo "==> tier-1: cargo test -q"
cargo test -q --workspace

echo "==> ftmpi-check lint"
cargo run -q --release -p ftmpi-check -- lint

echo "==> ftmpi-check smoke (invariants + perturbation)"
cargo run -q --release -p ftmpi-check -- smoke

echo "==> ftmpi-check storm --smoke (kills, partitions, node deaths, corruption)"
# Outputs pinned by scripts/golden.sha256 are collected here and checked
# after the fig5 cache round trip.
GOLDEN_TMP="${TMPDIR:-/tmp}/ftmpi-ci-golden-$$"
rm -rf "$GOLDEN_TMP"
mkdir -p "$GOLDEN_TMP"
cargo run -q --release -p ftmpi-check -- storm --smoke | tee "$GOLDEN_TMP/storm-smoke.log"
# The integrity families must actually be in the campaign for both
# protocols — a silent drop here would un-pin the corruption machinery.
for fam in flipfetch scrubrace allreplicas tornwrite quarantine; do
    grep -q "storm.corrupt.$fam.pcl" "$GOLDEN_TMP/storm-smoke.log"
    grep -q "storm.corrupt.$fam.vcl" "$GOLDEN_TMP/storm-smoke.log"
done

echo "==> ftmpi-check explore --smoke (DPOR over tied schedules, BENCH_explore.json)"
cargo run -q --release -p ftmpi-check -- explore --smoke | tee "$GOLDEN_TMP/explore-raw.log"
# Reproducer and BENCH paths print absolute: strip the checkout root so
# the pinned digest does not depend on where the repo lives.
sed "s|$PWD/||g" "$GOLDEN_TMP/explore-raw.log" > "$GOLDEN_TMP/explore-smoke.log"

echo "==> ftmpi-check storm --mine --smoke (coverage-guided miner, BENCH_storm.json)"
DIFF_TMP="${TMPDIR:-/tmp}/ftmpi-ci-mine-$$"
rm -rf "$DIFF_TMP"
mkdir -p "$DIFF_TMP"
cargo run -q --release -p ftmpi-check -- storm --mine --smoke | tee "$DIFF_TMP/mine-1.log"
cp BENCH_storm.json "$DIFF_TMP/mine-1.json"
cp results/storm/corpus.txt "$DIFF_TMP/mine-1-corpus.txt"
# The corruption genes must survive into the mined corpus: the seed
# genomes carry a targeted flip and a rotting disk, and both encode.
grep -q "corrupt@" "$DIFF_TMP/mine-1-corpus.txt"
grep -q "rot@" "$DIFF_TMP/mine-1-corpus.txt"

echo "==> storm --mine --smoke under the heap backend (must be byte-identical)"
FTMPI_NO_LADDER=1 cargo run -q --release -p ftmpi-check -- storm --mine --smoke \
    > "$DIFF_TMP/mine-2.log"
cmp "$DIFF_TMP/mine-1.log" "$DIFF_TMP/mine-2.log"
cmp "$DIFF_TMP/mine-1.json" BENCH_storm.json
cmp "$DIFF_TMP/mine-1-corpus.txt" results/storm/corpus.txt
rm -rf "$DIFF_TMP"

echo "==> cache prune round trip (ftmpi-bench cache --prune)"
PRUNE_TMP="${TMPDIR:-/tmp}/ftmpi-ci-prune-$$"
rm -rf "$PRUNE_TMP"
mkdir -p "$PRUNE_TMP/results/.cache"
# An orphaned temp file and a corrupt entry: both must be swept.
printf 'half-written' > "$PRUNE_TMP/results/.cache/.tmp-123-0"
printf 'not a cache entry' > "$PRUNE_TMP/results/.cache/r-deadbeef"
cargo run -q --release -p ftmpi-bench --bin ftmpi-bench -- \
    cache --prune --out "$PRUNE_TMP/results" | grep -q "removed 2"
test ! -e "$PRUNE_TMP/results/.cache/.tmp-123-0"
test ! -e "$PRUNE_TMP/results/.cache/r-deadbeef"
rm -rf "$PRUNE_TMP"

echo "==> result-cache round trip (fig5_servers cold, then warm from disk)"
CACHE_TMP="${TMPDIR:-/tmp}/ftmpi-ci-cache-$$"
rm -rf "$CACHE_TMP"
mkdir -p "$CACHE_TMP"
cargo run -q --release -p ftmpi-bench --bin fig5_servers -- \
    --fast --out "$CACHE_TMP/results" > "$CACHE_TMP/cold.log"
cp "$CACHE_TMP/results/fig5.json" "$CACHE_TMP/cold.json"
cp "$CACHE_TMP/results/fig5.json" "$GOLDEN_TMP/fig5.json"
# Same figure against the now-populated cache: every configuration must
# come from disk (zero misses, zero simulations) and the JSON must be
# byte-identical to the cold run's.
cargo run -q --release -p ftmpi-bench --bin fig5_servers -- \
    --fast --out "$CACHE_TMP/results" > "$CACHE_TMP/warm.log"
grep -q "/ 0 misses" "$CACHE_TMP/warm.log"
cmp "$CACHE_TMP/cold.json" "$CACHE_TMP/results/fig5.json"
# Ladder, batching, and cache off: the figure must still be
# byte-identical — the heap backend and unbatched flows are the reference
# semantics, not a degraded mode.
rm "$CACHE_TMP/results/fig5.json"
FTMPI_NO_LADDER=1 FTMPI_NO_BATCH=1 FTMPI_NO_CACHE=1 \
    cargo run -q --release -p ftmpi-bench --bin fig5_servers -- \
    --fast --out "$CACHE_TMP/results" > "$CACHE_TMP/plain.log"
cmp "$CACHE_TMP/cold.json" "$CACHE_TMP/results/fig5.json"
rm -rf "$CACHE_TMP"

echo "==> golden digests (cold fig5 --fast, storm --smoke, explore --smoke)"
# Captured when a thread-per-rank backend still ran beside the coroutine
# kernel and both produced these bytes (see DESIGN.md "Rank execution").
ROOT="$PWD"
(cd "$GOLDEN_TMP" && sha256sum -c "$ROOT/scripts/golden.sha256")
rm -rf "$GOLDEN_TMP"

echo "==> calibration seed cache (cold calibrate run, zero simulations)"
SEED_TMP="${TMPDIR:-/tmp}/ftmpi-ci-seed-$$"
rm -rf "$SEED_TMP"
# A cold out dir must be served entirely by the committed seed entries.
cargo run -q --release -p ftmpi-bench --bin calibrate -- \
    --out "$SEED_TMP/results" > "$SEED_TMP.log"
grep -q "6 hits (6 from disk) / 0 misses" "$SEED_TMP.log"
rm -rf "$SEED_TMP" "$SEED_TMP.log"

echo "==> kernel microbench (ladder vs heap, BENCH_kernel.json)"
cargo run -q --release -p ftmpi-bench --bin kernel_bench -- --quick

echo "==> rank-scale bench (512-rank and 10^5-rank runs, BENCH_scale.json)"
cargo run -q --release -p ftmpi-bench --bin scale_bench -- --quick

echo "CI green."
