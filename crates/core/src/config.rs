//! Retired width knobs.
//!
//! The three per-kernel width variables are gone: every fan-out takes
//! its default width from [`crate::exec::width`] (`CA_THREADS`), and an
//! explicit width is honoured verbatim.

/// Always `None`: no knob overrides an explicit width any more. Kept
/// only because the pipeline benchmark's reproducibility footer still
/// calls it; it goes with the next change to that benchmark.
pub fn part_threads_set() -> Option<usize> {
    None
}
