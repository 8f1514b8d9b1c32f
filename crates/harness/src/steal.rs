//! Work-stealing task scheduler for evaluation sweeps — the harness's one
//! scheduler.
//!
//! A central work counter (one shared atomic, one item per claim) is fine
//! for the paper's 720-point grid, but the scenario spaces the harness
//! sweeps — issue rates × latency tables × cache configs × levels — have
//! two properties that punish it:
//!
//! * **skewed per-point costs**: trip counts in Table 2 span two orders of
//!   magnitude, and a cached wide-issue Lev4 point simulates many times
//!   longer than a perfect-memory Conv point, so tail latency is governed
//!   by whoever claims the expensive points last;
//! * **many tiny points**: at small trip-count scales the per-claim
//!   synchronization is a measurable fraction of the work.
//!
//! [`execute`] distributes items into per-worker deques up front
//! (contiguous blocks, preserving the submission order's cache locality),
//! then lets each worker drain its own deque lock-cheaply and **steal half
//! of a victim's remaining items** when it runs dry. Steal-half (rather
//! than steal-one) amortizes synchronization and rebalances skew in
//! O(log n) steals. Everything is `std`-only: one `Mutex<VecDeque<usize>>`
//! per worker; an owner's pop and a thief's steal contend only on that
//! worker's deque, never on a global structure.
//!
//! Results are returned in submission order, so callers can zip them back
//! to their items — the scheduler never reorders observable output, which
//! is what lets a sweep prove observable identity with a sequential,
//! in-order evaluation of the same points (`tests/sweep_engine_differential.rs`).

use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The most worker threads a command line may ask for (`report
/// --threads`, `ilpc-serve --workers` and `--sweep-threads`): far above
/// any host this runs on, there so that a typo cannot ask the OS for
/// thousands of threads. A larger value is a usage error; a default taken
/// from the host is clamped to it ([`default_threads`]).
pub const MAX_THREADS: usize = 256;

/// The host's available parallelism (4 if unknown), at most
/// [`MAX_THREADS`].
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(MAX_THREADS)
}

/// Observability counters for one [`execute`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Successful steal operations (each moved ≥ 1 item).
    pub steals: u64,
    /// Items moved between deques by those steals.
    pub stolen_items: u64,
}

/// Run `eval` over every item on `threads` workers with work stealing.
///
/// Returns one result per item, **in item order**. `eval` receives the
/// item index and the item itself. Panics inside `eval` propagate (the
/// sweep wraps each point in `catch_unwind` before it reaches here).
pub fn execute<T, R, F>(items: &[T], threads: usize, eval: F) -> (Vec<R>, StealStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return (Vec::new(), StealStats::default());
    }
    let threads = threads.max(1).min(n);

    // Block distribution: worker w owns a contiguous chunk. Stealing takes
    // from the *back* of a victim's deque (the far end of its block), so
    // the owner keeps working the front undisturbed.
    let mut deques: Vec<Mutex<VecDeque<usize>>> = Vec::with_capacity(threads);
    let per = n.div_ceil(threads);
    for w in 0..threads {
        let lo = w * per;
        let hi = ((w + 1) * per).min(n);
        deques.push(Mutex::new((lo..hi.max(lo)).collect()));
    }
    let deques = &deques;

    let steals = AtomicU64::new(0);
    let stolen = AtomicU64::new(0);

    // Each worker returns its `(index, result)` pairs through its join
    // handle; a worker's panic resumes here, in the caller. The vector is
    // sized before the workers start (DESIGN §15 says why).
    let mut collected: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|me| {
                let eval = &eval;
                let steals = &steals;
                let stolen = &stolen;
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    'work: loop {
                        // Drain our own deque from the front.
                        let mine = {
                            let mut dq = lock(&deques[me]);
                            dq.pop_front()
                        };
                        if let Some(i) = mine {
                            local.push((i, eval(i, &items[i])));
                            continue;
                        }
                        // Empty: try to steal half of someone else's backlog.
                        for step in 1..threads {
                            let victim = (me + step) % threads;
                            let grabbed = {
                                let mut v = lock(&deques[victim]);
                                let take = v.len().div_ceil(2);
                                if take == 0 {
                                    continue;
                                }
                                // Steal the *back* half: the items farthest
                                // from the victim's working front.
                                let split_at = v.len() - take;
                                v.split_off(split_at)
                            };
                            steals.fetch_add(1, Ordering::Relaxed);
                            stolen.fetch_add(grabbed.len() as u64, Ordering::Relaxed);
                            let mut dq = lock(&deques[me]);
                            *dq = grabbed;
                            drop(dq);
                            continue 'work;
                        }
                        // Every deque we could see was empty. Any remaining
                        // work is already claimed by (and will be finished by)
                        // another worker, so exiting is safe: items leave a
                        // deque only when a worker commits to executing them.
                        break;
                    }
                    local
                })
            })
            .collect();
        for w in workers {
            collected.extend(w.join().unwrap_or_else(|p| resume_unwind(p)));
        }
    });
    debug_assert_eq!(collected.len(), n, "scheduler lost or duplicated items");
    collected.sort_unstable_by_key(|(i, _)| *i);
    let out = collected.into_iter().map(|(_, r)| r).collect();
    let stats = StealStats {
        steals: steals.load(Ordering::Relaxed),
        stolen_items: stolen.load(Ordering::Relaxed),
    };
    (out, stats)
}

/// Lock a mutex, recovering from poisoning: a deque stays consistent
/// because every mutation is a single pop, split or assignment.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_preserve_item_order() {
        let items: Vec<u64> = (0..1000).collect();
        let (out, _) = execute(&items, 8, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..257).collect();
        let (out, _) = execute(&items, 5, |_, &i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 257);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn skewed_costs_get_rebalanced_by_stealing() {
        // One worker's block is all-expensive; with more than one thread
        // the others must steal from it. (On a single-core host the steal
        // still *happens* — the schedule interleaves — it just cannot cut
        // wall time.)
        let items: Vec<u64> = (0..64)
            .map(|i| if i < 16 { 400_000 } else { 10 })
            .collect();
        let (out, stats) = execute(&items, 4, |_, &cost| {
            // Busy work proportional to cost.
            let mut acc = 0u64;
            for k in 0..cost {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        });
        assert_eq!(out.len(), 64);
        assert!(
            stats.steals > 0,
            "skewed blocks should force at least one steal: {stats:?}"
        );
        assert_eq!(stats.stolen_items >= stats.steals, true, "{stats:?}");
    }

    #[test]
    fn degenerate_shapes() {
        let empty: Vec<u32> = vec![];
        let (out, stats) = execute(&empty, 4, |_, &x| x);
        assert!(out.is_empty());
        assert_eq!(stats, StealStats::default());

        // One item, many threads: threads clamp to the item count.
        let (out, _) = execute(&[7u32], 16, |_, &x| x + 1);
        assert_eq!(out, vec![8]);

        // Zero threads clamp to one.
        let items: Vec<u32> = (0..10).collect();
        let (out, stats) = execute(&items, 0, |_, &x| x);
        assert_eq!(out, items);
        assert_eq!(stats.steals, 0, "a lone worker has nobody to rob");
    }

    #[test]
    fn more_threads_than_items_is_safe() {
        let items: Vec<u32> = (0..3).collect();
        let (out, _) = execute(&items, 64, |_, &x| x * x);
        assert_eq!(out, vec![0, 1, 4]);
    }
}
