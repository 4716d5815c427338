//! Deterministic parallel Monte-Carlo campaigns.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `n_runs` independent simulations in parallel and collects their
/// results in seed order.
///
/// Run `i` receives the seed `base_seed + i`. Workers are
/// self-scheduling: each one claims the next unclaimed run index from a
/// shared counter, runs it, and claims again until every index is
/// taken, so no worker idles while a run is left. Job costs may differ
/// by orders of magnitude (a sweep's noisy points run far longer than
/// its clean ones); a core then idles at the end of the batch for at
/// most the length of one run.
///
/// Which worker runs which index, and in what order, depends on timing,
/// but the result does not: run `i` depends only on its seed, and its
/// result is written back at index `i`. A campaign is therefore
/// bit-reproducible for a fixed `base_seed`, whatever the thread count
/// or interleaving. A panic in any run propagates out of this call once
/// the other workers have drained the remaining runs.
///
/// `threads = 0` picks the available parallelism; with one thread, or
/// at most one run, the runs execute in order on the calling thread.
///
/// # Examples
///
/// ```
/// use btsim_stats::run_campaign;
///
/// let results = run_campaign(100, 0, 42, |seed| seed % 7);
/// assert_eq!(results.len(), 100);
/// assert_eq!(results[3], (42 + 3) % 7);
/// ```
pub fn run_campaign<T, F>(n_runs: usize, threads: usize, base_seed: u64, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
    .min(n_runs.max(1));

    if threads <= 1 || n_runs <= 1 {
        return (0..n_runs)
            .map(|i| run(base_seed.wrapping_add(i as u64)))
            .collect();
    }

    // Relaxed suffices: the counter only hands out indices, and results
    // reach this thread through `join`.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_runs {
                return done;
            }
            done.push((i, run(base_seed.wrapping_add(i as u64))));
        }
    };
    let mut slots: Vec<Option<T>> = (0..n_runs).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        for w in workers {
            let done = w.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            for (i, out) in done {
                slots[i] = Some(out);
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    #[test]
    fn results_are_in_seed_order() {
        let r = run_campaign(64, 4, 1000, |seed| seed);
        let expect: Vec<u64> = (1000..1064).collect();
        assert_eq!(r, expect);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let f = |seed: u64| seed.wrapping_mul(6364136223846793005).rotate_left(17);
        let seq = run_campaign(41, 1, 7, f);
        let par = run_campaign(41, 8, 7, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn idle_worker_takes_the_remaining_runs() {
        // Run 0 finishes only after every other run has: a worker that
        // owned a fixed share of the runs would wait on run 0 forever.
        let n = 16;
        let finished = (Mutex::new(0usize), Condvar::new());
        let r = run_campaign(n, 2, 0, |seed| {
            let (count, cv) = &finished;
            let mut count = count.lock().expect("no run panics holding the lock");
            if seed == 0 {
                let (_count, wait) = cv
                    .wait_timeout_while(count, Duration::from_secs(5), |c| *c < n - 1)
                    .expect("no run panics holding the lock");
                assert!(!wait.timed_out(), "run 0 starved the other runs");
            } else {
                *count += 1;
                cv.notify_all();
            }
            seed
        });
        assert_eq!(r, (0..n as u64).collect::<Vec<_>>());
    }

    #[test]
    fn skewed_costs_keep_seed_order() {
        let f = |seed: u64| {
            // Every fifth run costs ~50x more than the others.
            let spins = if seed.is_multiple_of(5) {
                200_000
            } else {
                4_000
            };
            (0..spins).fold(seed, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
        };
        let seq = run_campaign(37, 1, 9, f);
        for threads in [2, 3, 8] {
            assert_eq!(run_campaign(37, threads, 9, f), seq, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "run 13 failed")]
    fn a_panicking_run_propagates() {
        run_campaign(32, 2, 0, |seed| {
            if seed == 13 {
                panic!("run 13 failed");
            }
            seed
        });
    }

    #[test]
    fn more_threads_than_runs() {
        let r = run_campaign(3, 16, 100, |s| s + 1);
        assert_eq!(r, vec![101, 102, 103]);
    }

    #[test]
    fn zero_runs() {
        let r = run_campaign(0, 4, 0, |s| s);
        assert!(r.is_empty());
    }

    #[test]
    fn single_run() {
        let r = run_campaign(1, 8, 5, |s| s * 2);
        assert_eq!(r, vec![10]);
    }

    #[test]
    fn auto_thread_count() {
        let r = run_campaign(10, 0, 0, |s| s);
        assert_eq!(r.len(), 10);
    }
}
