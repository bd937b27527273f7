//! The one parallel loop every fan-out in the workspace runs on.
//!
//! [`map_claimed`] runs `work(i)` for every `i in 0..n` on scoped worker
//! threads. Workers claim the next unclaimed index from a shared
//! counter, so a slow item delays only the worker running it instead of
//! stranding a fixed chunk behind it. Results travel over a bounded
//! channel to the calling thread, which hands each to `sink` (so
//! observers see a single-threaded stream, and a slow sink
//! back-pressures the workers) and stores it at its index. The returned
//! vector is therefore in index order whatever the schedule was: a
//! caller whose `work(i)` depends only on `i` gets output independent of
//! the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Results a worker may have in flight before it blocks on the sink.
const CHANNEL_BOUND: usize = 1024;

/// Worker count for `requested` threads (0 = all cores) over
/// `work_items` items: never more workers than items, never fewer than 1.
fn effective_threads(requested: usize, work_items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let n = if requested == 0 { hw } else { requested };
    n.clamp(1, work_items.max(1))
}

/// Runs `work(i)` for each `i in 0..n` on up to `threads` workers (0 =
/// all cores) and returns the results in index order. `sink` sees every
/// result once, on the calling thread, in completion order. With one
/// effective worker (including `n < 2`) everything runs inline, in
/// index order.
///
/// A panic in `work` is re-raised on the calling thread with its
/// original payload once the other workers have stopped.
pub fn map_claimed<R: Send>(
    n: usize,
    threads: usize,
    work: impl Fn(usize) -> R + Sync,
    mut sink: impl FnMut(&R),
) -> Vec<R> {
    let nthreads = effective_threads(threads, n);
    if nthreads <= 1 {
        return (0..n)
            .map(|i| {
                let r = work(i);
                sink(&r);
                r
            })
            .collect();
    }

    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    // The counter only hands out indices; results are published through
    // the channel, so no ordering beyond the RMW's atomicity is needed.
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, R)>(CHANNEL_BOUND);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..nthreads)
            .map(|_| {
                let (tx, next, work) = (tx.clone(), &next, &work);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    // A failed send means the collector is gone (it
                    // panicked); there is no one left to work for.
                    if i >= n || tx.send((i, work(i))).is_err() {
                        break;
                    }
                })
            })
            .collect();
        drop(tx);
        for (i, r) in rx {
            sink(&r);
            slots[i] = Some(r);
        }
        for w in workers {
            if let Err(payload) = w.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32};

    #[test]
    fn every_index_runs_exactly_once_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let runs: Vec<AtomicU32> = (0..257).map(|_| AtomicU32::new(0)).collect();
            let mut sunk = 0;
            let out = map_claimed(
                runs.len(),
                threads,
                |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    i * i
                },
                |_| sunk += 1,
            );
            assert_eq!(sunk, runs.len(), "threads={threads}");
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
            assert_eq!(out, (0..runs.len()).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn results_are_stored_by_index_not_completion_order() {
        // Item 0 finishes only after the sink has seen another result,
        // so it completes after item 1 on every schedule.
        let sunk_any = AtomicBool::new(false);
        let mut order = Vec::new();
        let out = map_claimed(
            2,
            2,
            |i| {
                while i == 0 && !sunk_any.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                i
            },
            |&r| {
                order.push(r);
                sunk_any.store(true, Ordering::SeqCst);
            },
        );
        assert_eq!(order, vec![1, 0]);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn empty_and_fewer_items_than_threads() {
        let out: Vec<usize> = map_claimed(0, 4, |i| i, |_| panic!("no results"));
        assert!(out.is_empty());
        let mut sunk = Vec::new();
        let out = map_claimed(3, 16, |i| i + 10, |r| sunk.push(*r));
        assert_eq!(out, vec![10, 11, 12]);
        sunk.sort_unstable();
        assert_eq!(sunk, out);
    }

    #[test]
    fn sink_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        map_claimed(
            64,
            4,
            |i| i,
            |_| assert_eq!(std::thread::current().id(), caller),
        );
    }

    #[test]
    #[should_panic(expected = "worker failed on 13")]
    fn worker_panic_propagates_with_its_payload() {
        map_claimed(
            40,
            4,
            |i| {
                if i == 13 {
                    panic!("worker failed on {i}");
                }
                i
            },
            |_| {},
        );
    }
}
