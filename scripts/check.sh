#!/usr/bin/env sh
# Tier-1 gate: release build + full test suite, fully offline.
set -eu
cd "$(dirname "$0")/.."
cargo build --release --offline --workspace
cargo test -q --offline --workspace
# Rustdoc with warnings denied: a doc link left dangling (or pointing at a
# private item) by a deletion fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps
# Clippy with warnings denied, over tests, examples and binaries too.
cargo clippy -q --offline --workspace --all-targets -- -D warnings

# The benchmark is a package of its own (outside `--workspace`) that
# imports the harness and the linalg kernels; build and test it too.
cargo test --offline -q --manifest-path benchmark/Cargo.toml
# Its smoke pass runs every workload, untraced and traced: each run must
# check correct (label digests repeat, ARI floors hold) and report every
# metric BENCHMARK.json lists, or run.sh exits non-zero.
CARGO_TARGET_DIR=.bench_build bash benchmark/run.sh --smoke > /dev/null

# Second pass with telemetry globally enabled: instrumentation must never
# change a single result, so the identical suite has to stay green.
MULTICLUST_TELEMETRY=1 cargo test -q --offline --workspace

# CLI telemetry smoke: stdout byte-identical with and without the flag,
# and the same exit status; stderr carries the trace report (phase table,
# counters, convergence section).
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
printf '1,2\n1.1,2.1\n0.9,1.9\n8,9\n8.1,9.2\n7.9,8.8\n4,0\n4.1,0.2\n' > "$tmp/data.csv"
./target/release/multiclust kmeans --input "$tmp/data.csv" --k 3 --seed 1 \
    > "$tmp/plain.csv" 2> "$tmp/plain.err"
./target/release/multiclust kmeans --input "$tmp/data.csv" --k 3 --seed 1 \
    --telemetry > "$tmp/traced.csv" 2> "$tmp/traced.txt"
cmp "$tmp/plain.csv" "$tmp/traced.csv"
test ! -s "$tmp/plain.err"
grep -q '^phase (span path)' "$tmp/traced.txt"
grep -q '^  trajectory kmeans.iter' "$tmp/traced.txt"
grep -q '^  parallel.tasks = ' "$tmp/traced.txt"
# The exit status with --telemetry is the status without it, on a run that
# succeeds (above, under `set -e`) and on one that fails (k > n).
for flag in "" --telemetry; do
    status=0
    ./target/release/multiclust kmeans --input "$tmp/data.csv" --k 9 $flag \
        > /dev/null 2>&1 || status=$?
    echo "$status" >> "$tmp/status.txt"
done
test "$(sort -u "$tmp/status.txt")" = 1

# Verification harness: the full invariant × family matrix plus the golden
# fixtures must pass, and the report must be bit-identical whether the
# deterministic pool runs on one thread or four.
MULTICLUST_THREADS=1 ./target/release/multiclust verify > "$tmp/verify1.txt"
MULTICLUST_THREADS=4 ./target/release/multiclust verify > "$tmp/verify4.txt"
cmp "$tmp/verify1.txt" "$tmp/verify4.txt"
grep -q 'all 741 checks passed across 8 families' "$tmp/verify1.txt"

# Distance-kernel engine: flipping the runtime kernel switch must not
# change a command's stdout by a single byte. k = 3 only runs the exact
# across-points sweep; k = 16 on 400 rows also reaches the warm Hamerly
# passes and their exact panel-row scans (k past the sweep/Hamerly
# crossover and ≥ one SIMD stripe). That those passes actually prune is
# telemetry contract 9 in tests/telemetry.rs.
MULTICLUST_KERNELS=naive ./target/release/multiclust kmeans \
    --input "$tmp/data.csv" --k 3 --seed 1 > "$tmp/naive.csv"
MULTICLUST_KERNELS=blocked ./target/release/multiclust kmeans \
    --input "$tmp/data.csv" --k 3 --seed 1 > "$tmp/blocked.csv"
cmp "$tmp/blocked.csv" "$tmp/naive.csv"
awk 'BEGIN { srand(11); for (i = 0; i < 400; i++) { c = i % 16;
    printf "%.4f,%.4f,%.4f\n",
        (c % 4) * 10 + rand() * 4, int(c / 4) * 10 + rand() * 4, rand() * 4 } }' \
    > "$tmp/grid.csv"
MULTICLUST_KERNELS=naive ./target/release/multiclust kmeans \
    --input "$tmp/grid.csv" --k 16 --seed 1 > "$tmp/naive16.csv"
MULTICLUST_KERNELS=blocked ./target/release/multiclust kmeans \
    --input "$tmp/grid.csv" --k 16 --seed 1 > "$tmp/blocked16.csv"
cmp "$tmp/blocked16.csv" "$tmp/naive16.csv"
# COALA reads its links from the distance matrix under `blocked` and sums
# them afresh under `naive`; the k-means families share one packed copy of
# their points across restarts, seeding and assignment passes under
# `blocked` (k = 32 on the Hamerly path, k = 4 on the sweep; k = 12 reads
# warm rows from a centre panel under one stripe; Qi–Davidson runs k-means
# on its transformed rows) and scan exhaustively under `naive`. COALA also
# runs on integer points each listed twice, where equal links are common
# and only the row/column tie order picks a merge; CLIQUE evaluates its
# lattice levels and extracts its regions on the pool. Both modes, at one
# thread and at four, must print the same labels and clusters.
awk '{ print (NR - 1) % 16 % 4 }' "$tmp/grid.csv" > "$tmp/grid-given.csv"
awk 'BEGIN { srand(13); for (i = 0; i < 150; i++) row[i] = int(rand() * 6) "," int(rand() * 6);
    for (r = 0; r < 2; r++) for (i = 0; i < 150; i++) print row[i] }' > "$tmp/ties.csv"
awk '{ print (NR - 1) % 3 }' "$tmp/ties.csv" > "$tmp/ties-given.csv"
for run in "coala:alternative --method coala --k 4 --w 0.8 --given $tmp/grid-given.csv" \
    "kmeans32:kmeans --k 32" \
    "kmeans12:kmeans --k 12" \
    "deckmeans:dec-kmeans --ks 4,4" \
    "qidavidson:alternative --method qidavidson --k 4 --given $tmp/grid-given.csv" \
    "clique:subspace --xi 4 --tau 0.08 --select none" \
    "coalaties:alternative --method coala --k 4 --w 0.8 --given $tmp/ties-given.csv"; do
    name=${run%%:*}
    input="$tmp/grid.csv"
    if [ "$name" = coalaties ]; then input="$tmp/ties.csv"; fi
    for mode in naive blocked; do
        for threads in 1 4; do
            # shellcheck disable=SC2086 # the command's flags split on purpose
            MULTICLUST_KERNELS=$mode MULTICLUST_THREADS=$threads \
                ./target/release/multiclust ${run#*:} --input "$input" \
                > "$tmp/$name-$mode-$threads.csv"
            cmp "$tmp/$name-naive-1.csv" "$tmp/$name-$mode-$threads.csv"
        done
    done
done

# Trace export + convergence diagnostics: `--trace` leaves stdout
# byte-identical while streaming a versioned JSONL file that `trace`
# reads back as the attribution table, the flamegraph stacks and the
# convergence report; a healthy k-means trajectory diagnoses clean.
./target/release/multiclust kmeans --input "$tmp/data.csv" --k 3 --seed 1 \
    --trace "$tmp/run.trace.jsonl" > "$tmp/traced2.csv"
cmp "$tmp/plain.csv" "$tmp/traced2.csv"
head -1 "$tmp/run.trace.jsonl" | grep -q 'multiclust-trace/v2'
grep -q '"type":"end"' "$tmp/run.trace.jsonl"
./target/release/multiclust trace "$tmp/run.trace.jsonl" > "$tmp/trace.txt"
grep -q 'kmeans.fit' "$tmp/trace.txt"
grep -q 'kmeans.iter' "$tmp/trace.txt"
./target/release/multiclust trace --collapse "$tmp/run.trace.jsonl" \
    | grep -q '^kmeans.fit '

# Resource observability: allocation accounting must never change a
# single stdout byte.
MULTICLUST_ALLOC=1 ./target/release/multiclust kmeans \
    --input "$tmp/data.csv" --k 3 --seed 1 \
    --trace "$tmp/alloc.trace.jsonl" > "$tmp/alloc.csv"
cmp "$tmp/plain.csv" "$tmp/alloc.csv"
./target/release/multiclust trace "$tmp/alloc.trace.jsonl" \
    | grep -q 'alloc.peak'

# A corrupt trace must fail `trace` with a clean error naming the bad
# line — no panic, no usage dump.
printf '{"type":"meta","schema":"multiclust-trace/v2"}\n{"type":"ev' \
    > "$tmp/corrupt.jsonl"
if ./target/release/multiclust trace "$tmp/corrupt.jsonl" \
    > /dev/null 2> "$tmp/corrupt.err"; then
    echo "check.sh: corrupt trace was NOT rejected" >&2
    exit 1
fi
grep -q 'line 2' "$tmp/corrupt.err"
if grep -q 'usage:' "$tmp/corrupt.err"; then
    echo "check.sh: data error printed the usage dump" >&2
    exit 1
fi

# wait_serve PID: waits for a server sent `shutdown` and returns its exit
# status. The accept loop blocks until shutdown wakes it, so a wake that
# never lands would hang here; fail the gate after 10 s instead.
wait_serve() {
    for _ in $(seq 1 100); do
        kill -0 "$1" 2> /dev/null || break
        sleep 0.1
    done
    if kill -0 "$1" 2> /dev/null; then
        kill "$1"
        echo "check.sh: serve did not exit after shutdown" >&2
        exit 1
    fi
    wait "$1"
}

# Resident service smoke: boot `serve` on a temp Unix socket, play a
# scripted fit/assign/compare/evict/list session through `client`, and
# diff the transcript against the checked-in golden — responses are a
# pure function of the requests, so the bytes must match at any thread
# count. `stats` is wall-clock-dependent and asserted by grep instead;
# the trace must carry one span per request; a shutdown request must
# leave the server exiting 0 with the socket file removed.
cat > "$tmp/serve-session.txt" <<'EOF'
# fit two models, predict with one, compare them, evict, list the rest
{"id":"1","op":"fit","model":"a","family":"kmeans","k":2,"seed":7,"data":[[0,0],[0.2,0.1],[0.1,0.3],[9,9],[9.2,9.1],[9.1,9.3]]}
{"id":"2","op":"fit","model":"b","family":"dec-kmeans","k":2,"seed":7,"data":[[0,0],[0.2,0.1],[0.1,0.3],[9,9],[9.2,9.1],[9.1,9.3]]}
{"id":"3","op":"assign","model":"a","data":[[0.1,0.1],[9.1,9.1]]}
{"id":"4","op":"compare","a":"a","b":"b","sa":0,"sb":0}
{"id":"5","op":"evict","model":"b"}
{"id":"6","op":"list"}
EOF
for threads in 1 4; do
    sock="$tmp/serve-$threads.sock"
    MULTICLUST_THREADS=$threads ./target/release/multiclust serve \
        --listen "unix:$sock" --trace "$tmp/serve-$threads.trace.jsonl" \
        > "$tmp/serve-$threads.ready" 2> "$tmp/serve-$threads.err" &
    serve_pid=$!
    for _ in $(seq 1 200); do
        [ -S "$sock" ] && break
        sleep 0.05
    done
    ./target/release/multiclust client --connect "unix:$sock" \
        --script "$tmp/serve-session.txt" > "$tmp/serve-$threads.out"
    ./target/release/multiclust client --connect "unix:$sock" \
        --request '{"id":"st","op":"stats"}' > "$tmp/serve-$threads.stats"
    ./target/release/multiclust client --connect "unix:$sock" \
        --request '{"id":"bye","op":"shutdown"}' > /dev/null
    wait_serve "$serve_pid"
    if [ -S "$sock" ]; then
        echo "check.sh: serve left its socket file behind" >&2
        exit 1
    fi
    grep -q '"type":"ready","schema":"multiclust-serve/v1"' \
        "$tmp/serve-$threads.ready"
    grep -q 'shut down cleanly' "$tmp/serve-$threads.err"
    grep -q '"uptime_ms"' "$tmp/serve-$threads.stats"
    grep -q '"fit":2' "$tmp/serve-$threads.stats"
    grep -q '"path":"serve.fit"' "$tmp/serve-$threads.trace.jsonl"
    grep -q '"path":"serve.parse"' "$tmp/serve-$threads.trace.jsonl"
    grep -q '"path":"serve.compare"' "$tmp/serve-$threads.trace.jsonl"
    grep -q '"type":"end"' "$tmp/serve-$threads.trace.jsonl"
done
cmp "$tmp/serve-1.out" "$tmp/serve-4.out"
cmp "$tmp/serve-1.out" tests/golden/serve_session.golden

# Inline matrices past the 128 KiB piece floor are read in pieces on the
# pool: a 3000 x 16 fit and an assign on the same rows answer the same
# bytes at one thread and at four, and the fit, repeated with `data`
# moved before the other fields, answers its first bytes again.
awk 'function matrix(  i, j) {
        printf "["
        for (i = 0; i < 3000; i++) {
            printf "%s[", (i ? "," : "")
            for (j = 0; j < 16; j++) printf "%s%s", (j ? "," : ""), cell[i, j]
            printf "]"
        }
        printf "]"
    }
    BEGIN { srand(5)
        for (i = 0; i < 3000; i++) for (j = 0; j < 16; j++)
            cell[i, j] = sprintf("%.6f", (i % 4) * 10 + rand() * 4)
        head = "\"id\":\"fit\",\"op\":\"fit\",\"model\":\"big\",\"family\":\"kmeans\",\"k\":4,\"seed\":3"
        printf "{%s,\"data\":", head; matrix(); printf "}\n"
        printf "{\"id\":\"assign\",\"op\":\"assign\",\"model\":\"big\",\"data\":"; matrix(); printf "}\n"
        printf "{\"id\":\"evict\",\"op\":\"evict\",\"model\":\"big\"}\n"
        printf "{\"data\":"; matrix(); printf ",%s}\n", head }' > "$tmp/serve-big.txt"
for threads in 1 4; do
    sock="$tmp/serve-big-$threads.sock"
    MULTICLUST_THREADS=$threads ./target/release/multiclust serve \
        --listen "unix:$sock" > /dev/null 2> /dev/null &
    serve_pid=$!
    for _ in $(seq 1 200); do
        [ -S "$sock" ] && break
        sleep 0.05
    done
    ./target/release/multiclust client --connect "unix:$sock" \
        --script "$tmp/serve-big.txt" > "$tmp/serve-big-$threads.out"
    ./target/release/multiclust client --connect "unix:$sock" \
        --request '{"id":"bye","op":"shutdown"}' > /dev/null
    wait_serve "$serve_pid"
done
cmp "$tmp/serve-big-1.out" "$tmp/serve-big-4.out"
test "$(grep -c '"ok":true' "$tmp/serve-big-1.out")" -eq 4
grep -q '"n":3000,"d":16' "$tmp/serve-big-1.out"
sed -n 1p "$tmp/serve-big-1.out" > "$tmp/serve-big-fit.out"
sed -n 4p "$tmp/serve-big-1.out" | cmp "$tmp/serve-big-fit.out" -

# Flight-recorder correlation: a failing fit on the shipped server
# leaves its request id in the flight ring, the `dump` op writes the ring
# to a file, and both the raw dump and the `last errors` section
# `multiclust trace` prints over it name that id and the failing op.
sock="$tmp/serve-flight.sock"
MULTICLUST_FLIGHT_DIR="$tmp" ./target/release/multiclust serve \
    --listen "unix:$sock" > /dev/null 2> /dev/null &
serve_pid=$!
for _ in $(seq 1 200); do
    [ -S "$sock" ] && break
    sleep 0.05
done
./target/release/multiclust client --connect "unix:$sock" --request \
    '{"id":"t-given","op":"fit","family":"coala","k":2,"data":[[0,0],[0.2,0.1],[9,9],[9.2,9.1]],"given":[0,0,1,4000000000]}' \
    > "$tmp/flight-fit.out"
grep -q '"code":"bad-request"' "$tmp/flight-fit.out"
./target/release/multiclust client --connect "unix:$sock" \
    --request '{"id":"d","op":"dump"}' > "$tmp/flight-dump.out"
./target/release/multiclust client --connect "unix:$sock" \
    --request '{"id":"bye","op":"shutdown"}' > /dev/null
wait_serve "$serve_pid"
dump=$(sed -n 's/.*"path":"\([^"]*\)".*/\1/p' "$tmp/flight-dump.out")
test -n "$dump"
head -1 "$dump" | grep -q 'multiclust-trace/v2'
grep -q '"request_id":"t-given"' "$dump"
./target/release/multiclust trace "$dump" > "$tmp/flight.txt"
grep -q 'request_id=t-given' "$tmp/flight.txt"
grep -q 'serve.fit.bad-request' "$tmp/flight.txt"

# The same story with telemetry on (`serve --trace`): every span and
# event, on the connection thread and on the pool (a 12-means fit's
# restarts), also lands in the one flight ring. After that fit and then a
# failing fit, the `dump` op's file must still read back with
# `multiclust trace`, hold at most the ring's 1024 records, carry the
# fit's iteration events, each tagged with the fit's request id, and name
# the failing request.
sed -n 1p "$tmp/serve-big.txt" | sed 's/"k":4/"k":12/' > "$tmp/flight-traced.txt"
printf '%s\n' \
    '{"id":"t-traced","op":"fit","family":"coala","k":2,"data":[[0,0],[0.2,0.1],[9,9],[9.2,9.1]],"given":[0,0,1,4000000000]}' \
    '{"id":"d","op":"dump"}' >> "$tmp/flight-traced.txt"
sock="$tmp/serve-flight-traced.sock"
MULTICLUST_THREADS=4 MULTICLUST_FLIGHT_DIR="$tmp" ./target/release/multiclust serve \
    --listen "unix:$sock" --trace "$tmp/flight-traced.trace.jsonl" > /dev/null 2> /dev/null &
serve_pid=$!
for _ in $(seq 1 200); do
    [ -S "$sock" ] && break
    sleep 0.05
done
./target/release/multiclust client --connect "unix:$sock" \
    --script "$tmp/flight-traced.txt" > "$tmp/flight-traced.out"
./target/release/multiclust client --connect "unix:$sock" \
    --request '{"id":"bye","op":"shutdown"}' > /dev/null
wait_serve "$serve_pid"
sed -n 1p "$tmp/flight-traced.out" | grep -q '"ok":true'
sed -n 2p "$tmp/flight-traced.out" | grep -q '"code":"bad-request"'
traced_dump=$(sed -n '3s/.*"path":"\([^"]*\)".*/\1/p' "$tmp/flight-traced.out")
test -n "$traced_dump"
records=$(sed -n 's/.*"type":"end".*"records":\([0-9]*\).*/\1/p' "$traced_dump")
test "$records" -le 1024
test "$(grep -c '"type":"\(span\|event\|error\)"' "$traced_dump")" -eq "$records"
grep -q '"request_id":"t-traced"' "$traced_dump"
grep -q '"name":"kmeans.iter"' "$traced_dump"
# Pool workers carry the request context: every iteration event of the
# fit, wherever it ran, names the fit's request id.
untagged=$(grep '"name":"kmeans.iter"' "$traced_dump" | grep -cv '"request_id":"fit"' || true)
test "$untagged" -eq 0
./target/release/multiclust trace "$traced_dump" > "$tmp/flight-traced.report"
grep -q 'source flight (capacity 1024, ' "$tmp/flight-traced.report"
grep -q 'request_id=t-traced' "$tmp/flight-traced.report"

# One format, one reader: both views of `trace` accept both producers'
# files — the `--trace` sink and the flight dump.
for file in "$tmp/run.trace.jsonl" "$dump"; do
    ./target/release/multiclust trace "$file" > /dev/null
    ./target/release/multiclust trace --collapse "$file" > /dev/null
done

# The recorder must never leak into the protocol: the scripted serve
# session replayed with the recorder forced off is byte-identical to the
# recorded run above.
sock="$tmp/serve-noflight.sock"
MULTICLUST_FLIGHT=0 ./target/release/multiclust serve --listen "unix:$sock" \
    > /dev/null 2> /dev/null &
serve_pid=$!
for _ in $(seq 1 200); do
    [ -S "$sock" ] && break
    sleep 0.05
done
./target/release/multiclust client --connect "unix:$sock" \
    --script "$tmp/serve-session.txt" > "$tmp/serve-noflight.out"
./target/release/multiclust client --connect "unix:$sock" \
    --request '{"id":"bye","op":"shutdown"}' > /dev/null
wait_serve "$serve_pid"
cmp "$tmp/serve-1.out" "$tmp/serve-noflight.out"

echo "check.sh: all gates passed"
