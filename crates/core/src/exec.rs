//! The one parallel fan-out primitive and its one width knob.
//!
//! Certain answers are coNP-hard in general, so the exponential engines
//! (the completion sweep, the CSP, core retraction) and the big joins
//! (partitioned evaluation, the chase match phase, bulk ingest) fan out
//! over threads. They all do it through [`map`], so there is one place
//! that spawns, one claim discipline, one cancellation rule and one
//! in-order merge to prove deterministic. This module is the only
//! non-test code that touches `std::thread` or reads a `CA_*` variable
//! (ca-lint L003).
//!
//! **The width rule.** A width passed explicitly by a caller is honoured
//! verbatim, subject only to the calling site's own work gate (below a
//! few thousand completions, rows or seeds a fan-out costs more than it
//! saves). [`width`] is only the default: `CA_THREADS` if set, else the
//! available parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The width variable: the default worker count of every fan-out.
const THREADS_VAR: &str = "CA_THREADS";

/// Upper bound on the default width. Partitioned sites allocate one
/// answer buffer per partition, so a typo'd huge `CA_THREADS` degrades
/// to this cap instead of aborting on allocation. The cap is far above
/// any host width (determinism suites deliberately run wider than the
/// machine).
pub const THREADS_MAX: usize = 4096;

/// Saturating thread-count parse: `Some(n.max(1))` for all-digit input
/// (overflow saturates to `usize::MAX`), `None` for anything else.
fn parse_threads(raw: &str) -> Option<usize> {
    let digits = raw.trim();
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    // All-digit input can only fail to parse by overflow: saturate.
    Some(digits.parse::<usize>().unwrap_or(usize::MAX).max(1))
}

/// The width for a raw `CA_THREADS` value: a well-formed value (`"0"`
/// counts as 1), else the available parallelism; capped at
/// [`THREADS_MAX`].
fn resolve(raw: Option<&str>) -> usize {
    raw.and_then(parse_threads)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
        .min(THREADS_MAX)
}

/// The default fan-out width: `CA_THREADS` if set and well-formed, else
/// the available parallelism, capped at [`THREADS_MAX`]. Resolved once
/// per process (the environment variable and the core count are both
/// read on first use).
pub fn width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| resolve(std::env::var(THREADS_VAR).ok().as_deref()))
}

/// The shared cancellation cut of one [`map`] call. Every task index at
/// or above the cut is cancelled; the cut only ever moves down. Relaxed
/// ordering suffices here and for the claim counter: neither publishes
/// data, and results travel back through the thread joins.
pub struct Stop {
    cut: AtomicUsize,
}

impl Stop {
    /// Cancel every task at index `>= i`. Tasks below `i` are never
    /// affected.
    pub fn keep_below(&self, i: usize) {
        self.cut.fetch_min(i, Ordering::Relaxed);
    }

    /// Has task `i` been cancelled? A running search polls this to stop
    /// early; its result is then the caller's to ignore.
    pub fn cancelled(&self, i: usize) -> bool {
        i >= self.cut.load(Ordering::Relaxed)
    }
}

/// Run `f(i, stop)` for every task `i` in `0..tasks` and return the
/// results **in task-index order**.
///
/// * At most `min(width, tasks)` scoped workers claim tasks dynamically.
///   With `width <= 1` or `tasks <= 1` this is a plain loop on the
///   calling thread: no spawn and no claim counter.
/// * [`Stop::keep_below`] cancels tasks; a task already cancelled when
///   it would start is not run and its slot holds `T::default()`. Tasks
///   below the final cut always run to completion uncancelled, so their
///   results do not depend on the width or the schedule.
/// * A panicking task re-raises its original payload on the caller.
pub fn map<T, F>(tasks: usize, width: usize, f: F) -> Vec<T>
where
    T: Send + Default,
    F: Fn(usize, &Stop) -> T + Sync,
{
    let stop = Stop {
        cut: AtomicUsize::new(tasks),
    };
    let run = |i: usize| {
        if stop.cancelled(i) {
            T::default()
        } else {
            f(i, &stop)
        }
    };
    let workers = width.min(tasks);
    if workers <= 1 {
        return (0..tasks).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            return done;
                        }
                        done.push((i, run(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    // The deterministic merge: every result lands in its task's slot.
    let slots: Vec<T> = (0..tasks).map(|_| T::default()).collect();
    per_worker
        .into_iter()
        .flatten()
        .fold(slots, |mut slots, (i, t)| {
            if let Some(slot) = slots.get_mut(i) {
                *slot = t;
            }
            slots
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn parse_is_saturating() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 8 "), Some(8));
        assert_eq!(parse_threads("0"), Some(1), "zero saturates up to one");
        assert_eq!(
            parse_threads("999999999999999999999999999999"),
            Some(usize::MAX),
            "overflow saturates instead of falling back"
        );
        assert_eq!(parse_threads("abc"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("3.5"), None);
    }

    #[test]
    fn width_policy_caps_and_falls_back() {
        let default = resolve(None);
        assert!((1..=THREADS_MAX).contains(&default));
        assert_eq!(resolve(Some("7")), 7);
        assert_eq!(resolve(Some("0")), 1);
        assert_eq!(resolve(Some("999999999999999999999999999999")), THREADS_MAX);
        assert_eq!(resolve(Some("abc")), default, "malformed is the default");
        assert!((1..=THREADS_MAX).contains(&width()));
    }

    #[test]
    fn results_come_back_in_index_order_at_every_width() {
        let expected: Vec<usize> = (0..103).map(|i| i * i).collect();
        for width in [1, 2, 3, 4, 7, 9] {
            assert_eq!(map(103, width, |i, _| i * i), expected, "width {width}");
        }
    }

    #[test]
    fn zero_tasks_and_width_above_tasks() {
        for width in [0, 1, 4] {
            assert!(map(0, width, |i, _| i).is_empty());
        }
        assert_eq!(map(1, 4, |i, _| i + 10), vec![10]);
        assert_eq!(map(3, 64, |i, _| i), vec![0, 1, 2]);
    }

    #[test]
    fn keep_below_never_cancels_a_lower_task() {
        for width in [1, 2, 4, 7] {
            // Every task cuts just above itself; the lowest cut wins and
            // every task below it still runs, uncancelled, to the end.
            let out = map(50, width, |i, stop| {
                if i >= 20 {
                    stop.keep_below(i + 1);
                }
                !stop.cancelled(i)
            });
            assert!(out[..=20].iter().all(|&ran| ran), "width {width}");
            // Sequentially, nothing past the first cut runs at all.
            if width == 1 {
                assert!(out[21..].iter().all(|&ran| !ran));
            }
        }
    }

    #[test]
    fn a_worker_panic_reraises_its_payload() {
        for width in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                map(8, width, |i, _| {
                    if i == 5 {
                        std::panic::panic_any(String::from("task five"));
                    }
                    i
                })
            });
            let payload = caught.expect_err("the panic propagates");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("task five"),
                "width {width}"
            );
        }
    }

    /// Task 0 blocks until task 1 has run. A sequential "width 2" would
    /// run task 0 first and time out (failing, not hanging).
    #[test]
    fn width_two_runs_tasks_concurrently() {
        let (tx, rx) = channel::<()>();
        let tx = Mutex::new(tx);
        let rx = Mutex::new(rx);
        let out = map(2, 2, |i, _| match i {
            0 => rx
                .lock()
                .map(|rx| rx.recv_timeout(Duration::from_secs(5)).is_ok())
                .unwrap_or(false),
            _ => tx.lock().map(|tx| tx.send(()).is_ok()).unwrap_or(false),
        });
        assert_eq!(out, vec![true, true], "task 0 never heard from task 1");
    }
}
