//! Worker-count resolution: CLI override, `REPRO_JOBS`, hardware.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-global worker-count override (0 = unset). Written once by
/// the CLI front end, read by every parallel entry point that was not
/// handed an explicit count.
static GLOBAL_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Install (or clear, with `None`) the process-global worker count.
///
/// The CLI's `--jobs N` flag lands here so that library code deep in
/// the call tree honors it without threading a parameter through every
/// signature. `Some(0)` is treated as `None`.
pub fn set_global_jobs(jobs: Option<usize>) {
    GLOBAL_JOBS.store(jobs.unwrap_or(0), Ordering::Relaxed);
}

/// The currently installed global override, if any.
fn global_jobs() -> Option<usize> {
    match GLOBAL_JOBS.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Parse a worker count from flag/environment text: a positive
/// integer. `0`, negative, or junk yields `None` (caller falls back).
pub fn parse_jobs(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(0) | Err(_) => None,
        Ok(n) => Some(n),
    }
}

/// The machine's available parallelism (1 if unknown).
fn hardware_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolve a worker count: `explicit` beats the global override beats
/// the `REPRO_JOBS` environment variable beats the hardware default.
///
/// Results are unaffected by the choice (see the crate docs); this
/// only selects how many OS threads the pool spawns.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit.filter(|&n| n > 0) {
        return n;
    }
    if let Some(n) = global_jobs() {
        return n;
    }
    if let Some(n) = std::env::var("REPRO_JOBS").ok().as_deref().and_then(parse_jobs) {
        return n;
    }
    hardware_jobs()
}

/// [`resolve_jobs`] with no explicit count — what library entry points
/// use when the caller did not pick one.
pub fn current_jobs() -> usize {
    resolve_jobs(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_jobs_accepts_positive_integers_only() {
        assert_eq!(parse_jobs("4"), Some(4));
        assert_eq!(parse_jobs(" 16 "), Some(16));
        assert_eq!(parse_jobs("0"), None);
        assert_eq!(parse_jobs("-2"), None);
        assert_eq!(parse_jobs("four"), None);
        assert_eq!(parse_jobs(""), None);
    }

    #[test]
    fn global_override_round_trip() {
        // One test exercises the whole lifecycle to avoid racing other
        // tests on the process-global.
        set_global_jobs(None);
        assert_eq!(global_jobs(), None);
        set_global_jobs(Some(3));
        assert_eq!(global_jobs(), Some(3));
        assert_eq!(resolve_jobs(None), 3);
        // Explicit beats global.
        assert_eq!(resolve_jobs(Some(7)), 7);
        // Some(0) clears, like None.
        set_global_jobs(Some(0));
        assert_eq!(global_jobs(), None);
    }

    #[test]
    fn resolve_defaults_to_at_least_one_worker() {
        set_global_jobs(None);
        assert!(resolve_jobs(None) >= 1);
        assert!(current_jobs() >= 1);
    }
}
