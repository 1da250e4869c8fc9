#!/usr/bin/env bash
# CI gate: tier-1 verify (ROADMAP.md) plus lint, format, docs, and
# example checks.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> perfbench compiles against the workspace (its own workspace, so the"
echo "    build above never compiles it; its committed files must stay untouched)"
# Cargo rewrites perfbench's stale Cargo.lock on every build; restore the
# committed lock afterwards, and on any exit in between.
perfbench_lock="$(mktemp)"
cp perfbench/Cargo.lock "$perfbench_lock"
trap 'cp "$perfbench_lock" perfbench/Cargo.lock' EXIT
cargo check -q --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench-check
cp "$perfbench_lock" perfbench/Cargo.lock
trap - EXIT
rm -f "$perfbench_lock"
git diff --exit-code perfbench

echo "==> dxlint self-test (fixture corpus must produce the pinned findings)"
cargo run -q -p dogmatix_lint -- --self-test

echo "==> dxlint (workspace must be free of findings)"
cargo run -q -p dogmatix_lint

echo "==> store audit mutation suite (cargo test --features audit)"
cargo test -q --features audit --test audit

echo "==> streaming differential suite at CI depth (PROPTEST_CASES=128)"
PROPTEST_CASES=128 cargo test -q --test incremental

echo "==> thread-count differential suite at CI depth (PROPTEST_CASES=128)"
PROPTEST_CASES=128 cargo test -q --test sharding

echo "==> snapshot round-trip + corruption suite at CI depth (PROPTEST_CASES=128)"
PROPTEST_CASES=128 cargo test -q --test snapshot

echo "==> WAL kill-and-recover differential + corruption matrix at CI depth (PROPTEST_CASES=128)"
PROPTEST_CASES=128 cargo test -q --test wal

echo "==> frozen-store append differential at CI depth (PROPTEST_CASES=128)"
PROPTEST_CASES=128 cargo test -q -p dogmatix_core --lib \
    od::tests::appending_to_a_frozen_store_equals_reinterning

echo "==> edit-distance kernel differential suite at CI depth (PROPTEST_CASES=256)"
PROPTEST_CASES=256 cargo test -q -p dogmatix_textsim --test kernel_differential

echo "==> streaming bench sanity (delta replay must beat full re-detection)"
cargo bench -q -p dogmatix_bench --bench streaming >/dev/null

echo "==> scaling bench sanity (threads=0 must match threads=1 bit for bit and"
echo "    its wall-clock must not exceed threads=1;"
echo "    columnar comparison phase must not regress past the recorded baseline)"
cargo bench -q -p dogmatix_bench --bench scaling >/dev/null

echo "==> q-gram plan sanity (on CD n=2000 the blocking plan build must take"
echo "    <= 0.5x the comparison over the plan it builds)"
cargo bench -q -p dogmatix_bench --bench filter >/dev/null

echo "==> probe bench sanity (mixed probe+ingest load; p99 gated against the"
echo "    recorded baseline, candidate sets must stay sublinear in |Omega|)"
cargo bench -q -p dogmatix_bench --bench probe >/dev/null
test -s BENCH_probe.json || { echo "BENCH_probe.json was not written"; exit 1; }

echo "==> size ladder (CD, LSH 48x2, threads 1, n = 250/1000/4000): probe p50 at"
echo "    n=4000 <= 6 ms x allowance, a probe that examines no candidate <= 5x a"
echo "    copy of the store at n=4000, and p50 per examined candidate must not grow"
echo "    past 2x from n=250 to n=4000"
cargo bench -q -p dogmatix_bench --bench ladder >/dev/null
test -s BENCH_ladder.json || { echo "BENCH_ladder.json was not written"; exit 1; }

echo "==> WAL bench sanity (group commit must amortise the fsync >= 5x and"
echo "    stay within the recorded throughput baseline)"
cargo bench -q -p dogmatix_bench --bench wal >/dev/null
test -s BENCH_wal.json || { echo "BENCH_wal.json was not written"; exit 1; }

echo "==> budgeted snapshot gate (a snapshot several times the pool budget must"
echo "    load bit-identically through --mem-budget's pool with peak residency"
echo "    <= budget, and budgeted point reads must stay within the recorded baseline)"
cargo bench -q -p dogmatix_bench --bench paged >/dev/null
test -s BENCH_paged.json || { echo "BENCH_paged.json was not written"; exit 1; }

echo "==> edit-distance kernel gate (bit-parallel must be bit-identical to the"
echo "    scalar DP and >= 3x faster on the comparison-phase distribution)"
cargo bench -q -p dogmatix_bench --bench editdist >/dev/null
test -s BENCH_editdist.json || { echo "BENCH_editdist.json was not written"; exit 1; }

echo "==> dogmatixd smoke (boot on an ephemeral port, probe + ingest, shutdown)"
smoke_dir="$(mktemp -d)"
printf '<moviedoc><movie><title>The Matrix</title><year>1999</year></movie>%s%s</moviedoc>' \
    '<movie><title>The Matrrix</title><year>1999</year></movie>' \
    '<movie><title>Signs</title><year>2002</year></movie>' > "$smoke_dir/movies.xml"
printf 'MOVIE: $doc/moviedoc/movie\n' > "$smoke_dir/mapping.txt"
./target/release/dogmatixd "$smoke_dir/movies.xml" "$smoke_dir/mapping.txt" MOVIE \
    --addr 127.0.0.1:0 > "$smoke_dir/boot.log" &
server_pid=$!
for _ in $(seq 100); do
    grep -q "listening on" "$smoke_dir/boot.log" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/^dogmatixd listening on //p' "$smoke_dir/boot.log")"
[ -n "$addr" ] || { echo "dogmatixd never reported its address"; kill "$server_pid"; exit 1; }
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
smoke_expect() { # <request> <expected-prefix>
    printf '%s\n' "$1" >&3
    IFS= read -r -t 30 reply <&3 || { echo "no response to: $1"; exit 1; }
    case "$reply" in
        "$2"*) echo "    --> $1  =>  $reply" ;;
        *) echo "smoke failed: '$1' answered '$reply' (wanted '$2…')"; exit 1 ;;
    esac
}
smoke_expect 'PROBE 5 <movie><title>The Matrix</title><year>1999</year></movie>' 'OK n='
smoke_expect 'INGEST insert /moviedoc <movie><title>The Mutrix</title><year>1999</year></movie>' 'OK ingested seq=2'
smoke_expect 'PROBE 5 <movie><title>The Matrix</title><year>1999</year></movie>' 'OK n='
smoke_expect 'FROBNICATE' 'ERR protocol:'
smoke_expect 'STATS' 'OK seq=2'
smoke_expect 'SHUTDOWN' 'OK bye'
exec 3<&- 3>&-
wait "$server_pid"

echo "==> dogmatixd crash-recover smoke (INDEX-SAVE export, kill -9 mid-ingest,"
echo "    restart --recover, pre-kill ingest must answer probes)"
./target/release/dogmatixd "$smoke_dir/movies.xml" "$smoke_dir/mapping.txt" MOVIE \
    --addr 127.0.0.1:0 --wal "$smoke_dir/movies.wal" > "$smoke_dir/boot2.log" &
server_pid=$!
for _ in $(seq 100); do
    grep -q "listening on" "$smoke_dir/boot2.log" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/^dogmatixd listening on //p' "$smoke_dir/boot2.log")"
[ -n "$addr" ] || { echo "durable dogmatixd never reported its address"; kill "$server_pid"; exit 1; }
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
smoke_expect "INDEX-SAVE $smoke_dir/movies.dxts" 'OK index-save bytes='
smoke_expect 'INGEST insert /moviedoc <movie><title>The Maatrix</title><year>1999</year></movie>' 'OK ingested seq=2'
exec 3<&- 3>&-
# The crash: no shutdown, no drain — the acked delta must already be durable.
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
./target/release/dogmatixd "$smoke_dir/movies.xml" "$smoke_dir/mapping.txt" MOVIE \
    --addr 127.0.0.1:0 --wal "$smoke_dir/movies.wal" --recover \
    > "$smoke_dir/boot3.log" 2> "$smoke_dir/recover.log" &
server_pid=$!
for _ in $(seq 100); do
    grep -q "listening on" "$smoke_dir/boot3.log" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/^dogmatixd listening on //p' "$smoke_dir/boot3.log")"
[ -n "$addr" ] || { echo "recovered dogmatixd never reported its address"; kill "$server_pid"; exit 1; }
grep -q 'recovered from .* replayed=1' "$smoke_dir/recover.log" \
    || { echo "recovery did not replay the pre-kill delta:"; cat "$smoke_dir/recover.log"; kill "$server_pid"; exit 1; }
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
smoke_expect 'STATS' 'OK seq=1 objects=4 '
smoke_expect 'PROBE 5 <movie><title>The Maatrix</title><year>1999</year></movie>' 'OK n='
probe_matches="$(printf '%s' "$reply" | sed -n 's/^OK n=\([0-9]*\).*/\1/p')"
[ "$probe_matches" -ge 1 ] || { echo "pre-kill ingest lost: recovered probe found nothing"; exit 1; }
smoke_expect 'CHECKPOINT' 'OK checkpoint lsn='
smoke_expect 'SHUTDOWN' 'OK bye'
exec 3<&- 3>&-
wait "$server_pid"

echo "==> server-exported index loads in the CLI under a memory budget"
./target/release/dogmatix "$smoke_dir/movies.xml" --mapping "$smoke_dir/mapping.txt" \
    --type MOVIE --output "$smoke_dir/plain.xml" 2>/dev/null
./target/release/dogmatix "$smoke_dir/movies.xml" --mapping "$smoke_dir/mapping.txt" \
    --type MOVIE --index-load "$smoke_dir/movies.dxts" --mem-budget 8192 \
    --output "$smoke_dir/warm.xml" 2>/dev/null
grep -q '<dupcluster' "$smoke_dir/plain.xml" \
    || { echo "plain run found no duplicates"; exit 1; }
cmp -s "$smoke_dir/plain.xml" "$smoke_dir/warm.xml" \
    || { echo "INDEX-SAVE export loaded via --index-load diverged from a plain run"; exit 1; }
rm -rf "$smoke_dir"

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> build and run all examples"
cargo build --release --examples
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "    --> $name"
    cargo run --release --quiet --example "$name" >/dev/null
done

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
    -p dogmatix-repro -p dogmatix_core -p dogmatix_xml -p dogmatix_textsim \
    -p dogmatix_datagen -p dogmatix_eval -p dogmatix_bench -p dogmatix_server

echo "CI green."
