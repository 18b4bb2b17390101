//! The workspace's one parallel map: an order-preserving map over a
//! slice on scoped threads ([`std::thread::scope`], no extra
//! dependencies), and the worker count it runs on.
//!
//! The simulation engine runs its batches through [`map`], and so does
//! the testbed build (the EPI profile and the Fig. 5 sequence funnel).
//! [`workers`] sizes both from one setting: `VOLTNOISE_THREADS` when set,
//! otherwise [`std::thread::available_parallelism`].
//! `VOLTNOISE_THREADS=1` runs every map serially on the calling thread.
//!
//! Results land in per-item slots allocated by the calling thread, so
//! the output order, and every value in it, is the serial run's: a
//! parallel map of a pure function is bitwise its serial map.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Parses a `VOLTNOISE_THREADS` value into a worker count.
fn parsed_workers(raw: &str) -> Result<usize, &'static str> {
    let n: usize = raw.trim().parse().map_err(|_| "not a positive integer")?;
    if n == 0 {
        return Err("thread count must be at least 1");
    }
    Ok(n)
}

/// Resolves the worker count: `VOLTNOISE_THREADS` when set and valid,
/// otherwise the machine's available parallelism. An invalid setting is
/// reported on stderr, once per process, rather than silently ignored.
pub fn workers() -> usize {
    static WARNED: AtomicBool = AtomicBool::new(false);
    if let Ok(s) = std::env::var("VOLTNOISE_THREADS") {
        match parsed_workers(&s) {
            Ok(n) => return n,
            Err(why) if !WARNED.swap(true, Ordering::Relaxed) => eprintln!(
                "voltnoise: ignoring VOLTNOISE_THREADS={s:?} ({why}); \
                 falling back to available parallelism"
            ),
            Err(_) => {}
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item and returns the results in input order.
///
/// Starts exactly `min(workers, items.len())` threads, which claim items
/// from a shared cursor; with one worker (or at most one item) it runs
/// on the calling thread and starts none. A panic in `f` resurfaces on
/// the calling thread with its original payload once every worker has
/// stopped.
///
/// # Examples
///
/// ```
/// use voltnoise_uarch::par;
///
/// let squares = par::map(&[1, 2, 3, 4], 3, |&x| x * x);
/// assert_eq!(squares, [1, 4, 9, 16]);
/// ```
pub fn map<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let panicked = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(&items[i]);
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
                })
            })
            .collect();
        handles.into_iter().find_map(|h| h.join().err())
    });
    if let Some(payload) = panicked {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("no worker panicked, so every item ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread::ThreadId;

    #[test]
    fn map_keeps_input_order_at_every_worker_count() {
        for n in [0, 1, 2, 7, 100] {
            let items: Vec<usize> = (0..n).collect();
            let serial: Vec<usize> = items.iter().map(|&i| i * i + 1).collect();
            for workers in [1, 2, 3, 8] {
                assert_eq!(
                    map(&items, workers, |&i| i * i + 1),
                    serial,
                    "n={n} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn map_starts_at_most_min_workers_items_threads_and_none_for_one() {
        let caller = std::thread::current().id();
        let ran_on = |workers: usize, n: usize| -> HashSet<ThreadId> {
            let seen = Mutex::new(HashSet::new());
            let items: Vec<usize> = (0..n).collect();
            map(&items, workers, |_| {
                seen.lock().unwrap().insert(std::thread::current().id());
            });
            seen.into_inner().unwrap()
        };
        assert_eq!(ran_on(1, 50), HashSet::from([caller]));
        assert_eq!(ran_on(4, 1), HashSet::from([caller]));
        for (workers, n) in [(2, 50), (3, 2), (8, 5)] {
            let threads = ran_on(workers, n);
            assert!(threads.len() <= workers.min(n), "{workers} on {n}");
            assert!(!threads.contains(&caller), "{workers} on {n}");
        }
    }

    #[test]
    fn map_reraises_a_worker_panic_with_its_payload() {
        for workers in [1, 3] {
            let items: Vec<usize> = (0..20).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                map(&items, workers, |&i| {
                    assert!(i != 13, "unlucky item");
                    i
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains("unlucky item"), "workers={workers}: {msg:?}");
        }
    }

    #[test]
    fn parsed_workers_accepts_positive_integers() {
        assert_eq!(parsed_workers("1"), Ok(1));
        assert_eq!(parsed_workers(" 8 "), Ok(8));
        assert_eq!(parsed_workers("32"), Ok(32));
    }

    #[test]
    fn parsed_workers_rejects_garbage_and_zero() {
        assert!(parsed_workers("0").is_err());
        assert!(parsed_workers("-2").is_err());
        assert!(parsed_workers("four").is_err());
        assert!(parsed_workers("2.5").is_err());
        assert!(parsed_workers("").is_err());
    }
}
