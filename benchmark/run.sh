#!/usr/bin/env bash
# Builds multiclust and the benchmark from source, runs the workloads and
# checks that each run's output names every metric BENCHMARK.json lists,
# with its unit and sample count.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--inject wrong-expected]
#       every workload untraced (end-to-end metrics), then every workload
#       traced (per-layer metrics)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--smoke] [--inject wrong-expected]
#       one run; the last line of standard output is its JSON result
#   benchmark/run.sh --baseline
#       two sets of three full runs, summarised into benchmark/baseline/seed.json
#
# Build output and run records go to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
workloads=(fit-large fit-small serve-session serve-churn)

workload="" seed=1 seconds="" trace="" baseline=0
extra=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --smoke) extra+=(--smoke); seconds="${seconds:-1}"; shift ;;
        --inject) extra+=(--inject "$2"); shift 2 ;;
        --baseline) baseline=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

seconds="${seconds:-20}"

cargo build --offline --release --quiet -p multiclust >&2
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/multiclust-benchmark"
# The ceiling keeps git from searching the directories above the checkout.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse HEAD 2>/dev/null || echo unknown)"
records="$CARGO_TARGET_DIR/benchmark"
mkdir -p "$records"

# run_one WORKLOAD TRACE SEED OUTFILE: one run, its output on stdout and in
# OUTFILE; fails when the run is incorrect or its output is incomplete.
run_one() {
    local status=0
    "$bin" --workload "$1" --trace "$2" --seed "$3" --seconds "$seconds" --commit "$commit" \
        --trace-out "$records/$1.trace.jsonl" ${extra[@]+"${extra[@]}"} > "$4" || status=$?
    cat "$4"
    if [ "$status" -ne 0 ]; then
        echo "run.sh: $1 (trace $2) exited with $status" >&2
        return 1
    fi
    "$bin" validate BENCHMARK.json "$2" "$4" || {
        echo "run.sh: $1 (trace $2) does not report what BENCHMARK.json lists" >&2
        return 1
    }
}

if [ -n "$workload" ]; then
    run_one "$workload" "${trace:-0}" "$seed" "$records/$workload-${trace:-0}.out"
    exit
fi

if [ "$baseline" -eq 1 ]; then
    dir="$records/baseline"
    rm -rf "$dir"
    mkdir -p "$dir"
    for set in a b; do
        for run in 1 2 3; do
            # Set a runs seeds 1-3, set b seeds 4-6.
            s=$run
            [ "$set" = a ] || s=$((run + 3))
            for t in 0 1; do
                for w in "${workloads[@]}"; do
                    run_one "$w" "$t" "$s" "$dir/$set-$run-$w-$t.out" > /dev/null
                done
            done
        done
    done
    mkdir -p benchmark/baseline
    "$bin" summarize BENCHMARK.json "$dir" > benchmark/baseline/seed.json
    echo "run.sh: wrote benchmark/baseline/seed.json" >&2
    exit
fi

failed=0
for t in 0 1; do
    for w in "${workloads[@]}"; do
        echo "== $w trace=$t seed=$seed"
        run_one "$w" "$t" "$seed" "$records/$w-$t.out" || failed=1
    done
done
if [ "$failed" -ne 0 ]; then
    echo "run.sh: some runs failed" >&2
    exit 1
fi
echo "run.sh: every run correct, every metric reported"
