//! Property tests of the flight recorder's ring semantics: wraparound
//! must keep exactly the newest `capacity` records of the process (oldest
//! overwritten, never torn), and below capacity the surviving record set
//! must be invariant to how the recording work was partitioned across
//! threads — the determinism the auto-dump correlation story leans on.

use std::path::PathBuf;
use std::sync::Mutex;

use multiclust_telemetry::flight;
use multiclust_telemetry::trace::{read_trace, TraceFile};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The recorder is process-global state; every case resets it, so the
/// cases must not interleave (cargo's test threads would otherwise race
/// two resets against each other's records).
static LOCK: Mutex<()> = Mutex::new(());

fn dump_path(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "multiclust-flight-prop-{}-{tag}-{seed}.jsonl",
        std::process::id()
    ))
}

fn dump(tag: &str, seed: u64) -> TraceFile {
    let path = dump_path(tag, seed);
    flight::dump_to_file(&path)
        .expect("dump writes")
        .expect("recorder enabled");
    let parsed = read_trace(&path).expect("dump re-parses");
    let _ = std::fs::remove_file(&path);
    parsed
}

/// `(kind, name, request_id)` with the interleaving-dependent parts
/// (seq, timestamps) stripped, sorted.
fn canonical(f: &TraceFile) -> Vec<(String, String, Option<String>)> {
    let mut rows: Vec<(String, String, Option<String>)> = f
        .records
        .iter()
        .map(|r| (r.kind.clone(), r.name.clone(), r.request_id.clone()))
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Overfilling the ring from one thread keeps exactly the last
    /// `capacity` records in order and counts every older one as
    /// overwritten.
    #[test]
    fn wraparound_keeps_exactly_the_newest_capacity_records(seed in 0u64..100_000) {
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let cap = flight::DEFAULT_CAPACITY;
        let total = StdRng::seed_from_u64(seed).gen_range(cap + 1..cap * 4);
        flight::set_flight(true);
        for i in 0..total {
            flight::record_event(&format!("r{i:03}"));
        }
        let parsed = dump("wrap", seed);
        flight::set_flight(true);

        prop_assert_eq!(parsed.records.len(), cap);
        prop_assert_eq!(parsed.meta_u64("overwritten"), Some((total - cap) as u64));
        let names: Vec<String> = parsed.records.iter().map(|r| r.name.clone()).collect();
        let expected: Vec<String> =
            (total - cap..total).map(|i| format!("r{i:03}")).collect();
        prop_assert_eq!(names, expected);
    }

    /// Below capacity, recording the same labelled work on one thread or
    /// partitioned round-robin over four scoped threads yields the same
    /// canonical record set — the partition only reorders records in the
    /// ring, it never loses or duplicates one.
    #[test]
    fn dump_is_thread_partition_invariant_below_capacity(seed in 0u64..100_000) {
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let cap = flight::DEFAULT_CAPACITY;
        let total = StdRng::seed_from_u64(seed ^ 0xabcd).gen_range(1..=cap);
        let record = |i: usize| {
            flight::set_request(&format!("q{i:03}"), i as u64 + 1);
            flight::record_event(&format!("r{i:03}"));
            flight::clear_request();
        };

        flight::set_flight(true);
        for i in 0..total {
            record(i);
        }
        let single = canonical(&dump("one", seed));

        flight::set_flight(true);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                scope.spawn(move || {
                    for i in (t..total).step_by(4) {
                        record(i);
                    }
                });
            }
        });
        let partitioned = canonical(&dump("four", seed));
        flight::set_flight(true);

        prop_assert_eq!(single, partitioned);
    }
}
