//! Deterministic data-parallel primitives on scoped `std::thread`.
//!
//! Every primitive here guarantees **bit-identical results regardless of
//! thread count**. That property comes from two rules:
//!
//! 1. Work is split into *fixed* chunks whose boundaries depend only on the
//!    input size (never on the number of threads), and
//! 2. per-chunk results are combined **in chunk order** on the calling
//!    thread, so floating-point reductions associate exactly as the serial
//!    loop over the same chunks would.
//!
//! Threads are claimed from [`std::thread::scope`] per call: workers pull
//! chunk indices from a shared atomic counter (dynamic load balance), and
//! the calling thread participates, so a pool of size 1 never spawns.
//! Which thread computes a chunk is non-deterministic; *what* each chunk
//! computes and how the results are merged is not, which is all that
//! matters for reproducibility.
//!
//! The thread count comes from [`set_threads`] if set, else the
//! `MULTICLUST_THREADS` environment variable, else
//! [`std::thread::available_parallelism`]. The environment and the
//! hardware are read once per process, on the first region; later changes
//! to `MULTICLUST_THREADS` are not seen. At 1 thread every primitive runs
//! the plain serial loop inline. Nested calls from inside a worker also run
//! inline (no oversubscription, no deadlock). A panic in any closure is
//! propagated to the caller after all sibling workers finish.
//!
//! When `multiclust-telemetry` is enabled the pool reports task counts
//! (`parallel.tasks`, `parallel.regions.{serial,fanout}`) and per-worker
//! busy time (`parallel.worker.<i>.busy_ns` counters), so utilization is
//! measurable; when disabled this costs one relaxed atomic load per
//! region.

#![forbid(unsafe_code)]

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

use multiclust_telemetry as telemetry;
use telemetry::flight;

/// Soft upper bound on the number of chunks a call fans out into. Fixed so
/// chunk boundaries never depend on the thread count.
const TARGET_CHUNKS: usize = 64;

/// Programmatic thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread is executing inside a parallel region, so
    /// nested primitives run inline instead of fanning out again.
    static IN_PARALLEL_REGION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Overrides the pool size for this process. `threads == 0` clears the
/// override, restoring the default that `MULTICLUST_THREADS` or the
/// hardware gave on first use.
///
/// Results are identical either way; this only changes how much hardware
/// parallelism is used. Intended for tests and embedders.
pub fn set_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// The number of threads parallel regions may use right now: the
/// [`set_threads`] override, else the default resolved once per process
/// from `MULTICLUST_THREADS`, else [`std::thread::available_parallelism`],
/// else 1.
pub fn current_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    *DEFAULT.get_or_init(|| {
        threads_from_env().unwrap_or(None).unwrap_or_else(|| {
            thread::available_parallelism().map(usize::from).unwrap_or(1)
        })
    })
}

/// Reads `MULTICLUST_THREADS`: unset or blank is `Ok(None)` (the hardware
/// default), a positive integer is the thread count, and any other value
/// is an error naming the variable. The CLI refuses that error at
/// startup; [`current_threads`] treats it as unset.
pub fn threads_from_env() -> Result<Option<usize>, String> {
    let invalid = || "MULTICLUST_THREADS must be a positive integer".to_string();
    match std::env::var("MULTICLUST_THREADS") {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(invalid()),
        Ok(v) if v.trim().is_empty() => Ok(None),
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(invalid()),
        },
    }
}

/// Chunk length for `n` items given a caller-supplied floor: large enough
/// that a chunk amortizes dispatch, small enough that up to
/// [`TARGET_CHUNKS`] chunks exist for load balancing. Depends only on `n`
/// and `min_chunk` — never on the thread count.
fn chunk_len(n: usize, min_chunk: usize) -> usize {
    n.div_ceil(TARGET_CHUNKS).max(min_chunk).max(1)
}

/// Element-operations of arithmetic a block-granular work unit should aim
/// for. Large enough that chunk dispatch (one atomic fetch-add plus a
/// closure call) is noise against the arithmetic; small enough that a
/// row-block's scratch stays cache-resident and the pool still has units
/// to balance. Fixed — like `TARGET_CHUNKS`, block boundaries must never
/// depend on the thread count.
pub const BLOCK_WORK: usize = 1 << 16;

/// Rows per work unit for a block-granular row sweep (e.g. handing whole
/// matrix rows to [`par_chunks_mut`]) where each row costs roughly
/// `row_work` element operations. Returns at least 1 and depends only on
/// `row_work`, so the resulting block boundaries are thread-count
/// independent and results stay bit-identical at any pool size.
pub fn block_rows(row_work: usize) -> usize {
    BLOCK_WORK / row_work.max(1) + 1
}

/// Runs `work` for every chunk index in `0..n_chunks`, returning results in
/// chunk order. Workers steal indices from a shared counter; the caller
/// participates. Assumes `n_chunks > 1` and `threads > 1`. With telemetry
/// on, every worker carries the caller's request context, so its spans
/// and events are tagged with the request they serve.
fn run_chunks<A, W>(n_chunks: usize, threads: usize, work: W) -> Vec<A>
where
    A: Send,
    W: Fn(usize) -> A + Sync,
{
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<A>> = (0..n_chunks).map(|_| None).collect();

    let drain = |acc: &mut Vec<(usize, A)>| {
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_chunks {
                break;
            }
            acc.push((i, work(i)));
        }
    };

    let context = telemetry::enabled().then(flight::current_request).flatten();
    let context = context.as_ref();
    thread::scope(|s| {
        let workers: Vec<_> = (1..threads.min(n_chunks))
            .map(|w| {
                s.spawn(move || {
                    adopt(context);
                    IN_PARALLEL_REGION.with(|f| f.set(true));
                    let started = telemetry::enabled().then(std::time::Instant::now);
                    let mut local = Vec::new();
                    drain(&mut local);
                    if let Some(t0) = started {
                        record_busy(w, t0.elapsed());
                    }
                    IN_PARALLEL_REGION.with(|f| f.set(false));
                    local
                })
            })
            .collect();

        let caller_was_inside = IN_PARALLEL_REGION.with(|f| f.replace(true));
        let started = telemetry::enabled().then(std::time::Instant::now);
        let mut local = Vec::new();
        let caller_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drain(&mut local);
        }));
        if let Some(t0) = started {
            record_busy(0, t0.elapsed());
        }
        IN_PARALLEL_REGION.with(|f| f.set(caller_was_inside));
        for (i, a) in local {
            slots[i] = Some(a);
        }

        // Join every worker before propagating any panic so no closure is
        // still running when the scope unwinds.
        let mut first_panic = caller_result.err();
        for w in workers {
            match w.join() {
                Ok(local) => {
                    for (i, a) in local {
                        slots[i] = Some(a);
                    }
                }
                Err(p) => {
                    first_panic.get_or_insert(p);
                }
            }
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
    });

    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.unwrap_or_else(|| {
                panic!(
                    "multiclust-parallel: chunk {i} of {n_chunks} produced no \
                     result although every worker joined without panicking — \
                     this is a bug in the chunk-claiming logic"
                )
            })
        })
        .collect()
}

/// Installs the caller's request context, if any, in a spawned worker.
/// Kept out of line: inlined into every generic region body, this branch
/// slowed the served fits and assigns by about a tenth (2-core x86-64,
/// telemetry off).
#[inline(never)]
fn adopt(context: Option<&(String, u64)>) {
    if let Some((request_id, conn)) = context {
        flight::set_request(request_id, *conn);
    }
}

/// Records pool-utilization telemetry for one participant of a parallel
/// region: `worker` 0 is the calling thread, 1.. are spawned workers.
/// Only called when telemetry is enabled.
fn record_busy(worker: usize, busy: std::time::Duration) {
    let ns = u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX);
    telemetry::counter_add(&format!("parallel.worker.{worker}.busy_ns"), ns);
}

/// Counts one parallel-primitive invocation: total task (chunk) count plus
/// which path — `serial` covers the inline loop (1 thread, 1 chunk or a
/// nested call), `fanout` the multi-threaded dispatch through
/// [`run_chunks`]. One branch on the telemetry switch when disabled.
fn record_region(n_chunks: usize, serial_path: bool) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter_add("parallel.tasks", n_chunks as u64);
    telemetry::counter_add(
        if serial_path {
            "parallel.regions.serial"
        } else {
            "parallel.regions.fanout"
        },
        1,
    );
}

/// True when this call should take the inline serial path.
fn serial(threads: usize, n_chunks: usize) -> bool {
    threads <= 1 || n_chunks <= 1 || IN_PARALLEL_REGION.with(|f| f.get())
}

/// Computes `f(i)` for every `i in 0..n`, in parallel, returning results in
/// index order. `min_chunk` is the smallest number of items worth handing
/// to a thread (tune to the cost of one `f` call).
///
/// Each `f(i)` sees only its index, so the output is identical to the
/// serial `(0..n).map(f).collect()` at any thread count.
pub fn par_map_indexed<T, F>(n: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let clen = chunk_len(n, min_chunk);
    let n_chunks = n.div_ceil(clen.max(1)).max(1);
    if serial(current_threads(), n_chunks) {
        record_region(n_chunks, true);
        return (0..n).map(f).collect();
    }
    record_region(n_chunks, false);
    let per_chunk = run_chunks(n_chunks, current_threads(), |c| {
        let lo = c * clen;
        let hi = (lo + clen).min(n);
        (lo..hi).map(&f).collect::<Vec<T>>()
    });
    let mut out = Vec::with_capacity(n);
    for chunk in per_chunk {
        out.extend(chunk);
    }
    out
}

/// Maps each consecutive `chunk`-sized slice of `data` (the last may be
/// shorter) through `f(start_index, chunk_slice)` in parallel, returning
/// the per-chunk results in chunk order — the read-only sibling of
/// [`par_chunks_mut`].
pub fn par_chunks<T, A, F>(data: &[T], chunk: usize, f: F) -> Vec<A>
where
    T: Sync,
    A: Send,
    F: Fn(usize, &[T]) -> A + Sync,
{
    let chunk = chunk.max(1);
    let n_chunks = data.len().div_ceil(chunk).max(1);
    if data.is_empty() {
        return Vec::new();
    }
    if serial(current_threads(), n_chunks) {
        record_region(n_chunks, true);
        return data
            .chunks(chunk)
            .enumerate()
            .map(|(c, slice)| f(c * chunk, slice))
            .collect();
    }
    record_region(n_chunks, false);
    run_chunks(n_chunks, current_threads(), |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(data.len());
        f(lo, &data[lo..hi])
    })
}

/// Splits `data` into consecutive chunks of `chunk` elements (the last may
/// be shorter) and runs `f(start_index, chunk_slice)` on each in parallel.
///
/// Chunks are disjoint `&mut` slices, so writes cannot race; because each
/// chunk's content depends only on its own range, the result is identical
/// to the serial loop at any thread count.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk = chunk.max(1);
    let n_chunks = data.len().div_ceil(chunk).max(1);
    let threads = current_threads();
    if serial(threads, n_chunks) {
        record_region(n_chunks, true);
        for (c, slice) in data.chunks_mut(chunk).enumerate() {
            f(c * chunk, slice);
        }
        return;
    }
    record_region(n_chunks, false);
    // A shared queue of (start, slice) hands each disjoint chunk to exactly
    // one thread — mutability without unsafe index arithmetic.
    let queue: Mutex<Vec<(usize, &mut [T])>> = Mutex::new(
        data.chunks_mut(chunk)
            .enumerate()
            .map(|(c, s)| (c * chunk, s))
            .rev()
            .collect(),
    );
    let pop = || queue.lock().map(|mut q| q.pop()).unwrap_or(None);
    run_chunks(threads.min(n_chunks), threads, |_| {
        while let Some((start, slice)) = pop() {
            f(start, slice);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_rows_is_positive_and_bounded() {
        assert_eq!(block_rows(0), BLOCK_WORK + 1);
        assert_eq!(block_rows(usize::MAX), 1);
        // A row costing exactly the budget still forms a 1-row block.
        assert_eq!(block_rows(BLOCK_WORK), 2);
        // Cheap rows batch up to roughly the work budget.
        let r = block_rows(1000);
        assert!(r * 1000 >= BLOCK_WORK, "{r}");
        assert!((r - 1) * 1000 <= BLOCK_WORK, "{r}");
    }

    /// Runs `f` under a fixed thread-count override. The override is
    /// process-global and tests run concurrently, so this serializes all
    /// override-dependent tests and restores the previous value even if
    /// `f` panics.
    fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        static LOCK: Mutex<()> = Mutex::new(());
        let _serialize = LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                THREAD_OVERRIDE.store(self.0, Ordering::Relaxed);
            }
        }
        let _restore = Restore(THREAD_OVERRIDE.swap(n, Ordering::Relaxed));
        f()
    }

    #[test]
    fn map_indexed_matches_serial_on_all_sizes() {
        for &n in &[0usize, 1, 2, 7, 63, 64, 65, 1000] {
            let serial: Vec<usize> = (0..n).map(|i| i * i).collect();
            for &t in &[1usize, 2, 4, 9] {
                let par = with_threads(t, || par_map_indexed(n, 1, |i| i * i));
                assert_eq!(par, serial, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn empty_input_yields_empty_or_none() {
        with_threads(4, || {
            assert!(par_map_indexed(0, 1, |i| i).is_empty());
            let mut empty: [u8; 0] = [];
            par_chunks_mut(&mut empty, 4, |_, _| panic!("no chunks expected"));
        });
    }

    #[test]
    fn fewer_items_than_threads() {
        with_threads(16, || {
            let out = par_map_indexed(3, 1, |i| i + 10);
            assert_eq!(out, vec![10, 11, 12]);
        });
    }

    #[test]
    fn pool_size_one_never_spawns() {
        with_threads(1, || {
            let caller = thread::current().id();
            let ids = par_map_indexed(100, 1, |_| thread::current().id());
            assert!(ids.iter().all(|&id| id == caller));
        });
    }

    #[test]
    fn chunks_matches_serial_chunking() {
        let data: Vec<u32> = (0..103).collect();
        let serial: Vec<u32> = data.chunks(10).map(|c| c.iter().sum()).collect();
        for &t in &[1usize, 4, 16] {
            let par = with_threads(t, || {
                par_chunks(&data, 10, |_, c| c.iter().sum::<u32>())
            });
            assert_eq!(par, serial, "t={t}");
        }
        with_threads(4, || {
            assert!(par_chunks(&[] as &[u32], 10, |_, c| c.len()).is_empty());
        });
    }

    #[test]
    fn chunks_mut_writes_every_element_once() {
        for &t in &[1usize, 4] {
            let mut data = vec![0u32; 257];
            with_threads(t, || {
                par_chunks_mut(&mut data, 10, |start, chunk| {
                    for (off, x) in chunk.iter_mut().enumerate() {
                        *x += (start + off) as u32;
                    }
                });
            });
            let expect: Vec<u32> = (0..257).collect();
            assert_eq!(data, expect, "t={t}");
        }
    }

    #[test]
    fn reduce_is_bit_identical_across_thread_counts() {
        // Values chosen so summation order changes the bits; per-chunk sums
        // folded in chunk order must associate identically at every thread
        // count.
        let vals: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2_654_435_761_usize) % 1000) as f64 * 1e-3 + 1e-9)
            .collect();
        let reduce = |t: usize| {
            with_threads(t, || {
                par_chunks(&vals, 157, |_, c| c.iter().sum::<f64>())
                    .into_iter()
                    .fold(0.0, |acc, s| acc + s)
            })
        };
        let one = reduce(1);
        for t in [2, 3, 4, 8] {
            assert_eq!(one.to_bits(), reduce(t).to_bits(), "t={t}");
        }
    }

    #[test]
    fn nested_calls_run_inline_and_stay_correct() {
        let expect: Vec<usize> = (0..40).map(|i| (0..i).sum::<usize>()).collect();
        let got = with_threads(4, || {
            par_map_indexed(40, 1, |i| {
                par_map_indexed(i, 1, |j| j).into_iter().sum::<usize>()
            })
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn workers_carry_the_callers_request_context() {
        // Telemetry is process-global: hold the thread-override lock so no
        // other test of this binary runs a region meanwhile.
        let (records, ids) = with_threads(4, || {
            let was_enabled = telemetry::enabled();
            telemetry::set_enabled(true);
            flight::set_flight(true);
            flight::set_request("req-7", 3);
            // Chunks 0 and 1 meet at a barrier, so two threads run them.
            let meet = std::sync::Barrier::new(2);
            let ids = par_map_indexed(64, 1, |i| {
                telemetry::event("test.parallel.chunk", &[]);
                if i < 2 {
                    meet.wait();
                }
                thread::current().id()
            });
            flight::clear_request();
            telemetry::set_enabled(was_enabled);
            let dump = flight::dump_to_string().expect("the recorder is on");
            let trace = telemetry::trace::parse_trace(dump.as_bytes()).expect("dump parses");
            (trace.records, ids)
        });
        assert_ne!(ids[0], ids[1], "a spawned worker ran chunk 0 or 1");
        assert_eq!(records.len(), 64);
        for r in &records {
            assert_eq!((r.request_id.as_deref(), r.conn), (Some("req-7"), Some(3)), "{r:?}");
        }
    }

    #[test]
    fn panic_in_closure_propagates() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map_indexed(100, 1, |i| {
                    if i == 63 {
                        panic!("boom at {i}");
                    }
                    i
                })
            })
        });
        assert!(result.is_err());
    }
}
