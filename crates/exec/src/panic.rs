//! Panic containment: a panicking task becomes a typed [`TaskPanic`]
//! at its index instead of unwinding through a worker.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// A task that panicked, contained by the runtime.
///
/// The process survives, the other tasks' results are unaffected, and
/// the panic is reported against the task's stable index — the same
/// index at any worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Stable index of the task that panicked.
    pub task: usize,
    /// Stringified panic payload (`&str`/`String` payloads verbatim).
    pub payload: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.task, self.payload)
    }
}

impl std::error::Error for TaskPanic {}

/// Stringify a panic payload (mirrors proplite's runner).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run task `i`'s body under `catch_unwind`, turning a panic into a
/// typed [`TaskPanic`] at that index.
pub(crate) fn contain<R>(i: usize, body: impl FnOnce() -> R) -> Result<R, TaskPanic> {
    // AssertUnwindSafe: a panicked task's result is discarded, and the
    // worker state is a caller-provided scratch value whose every use
    // fully overwrites it before reading (the `init`/`task` contract).
    catch_unwind(AssertUnwindSafe(body))
        .map_err(|p| TaskPanic { task: i, payload: panic_message(p) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_is_contained_and_indexed() {
        let p = contain(4, || -> usize { panic!("boom at {}", 4) }).unwrap_err();
        assert_eq!(p.task, 4);
        assert_eq!(p.payload, "boom at 4");
        assert_eq!(p.to_string(), "task 4 panicked: boom at 4");
        assert_eq!(contain(5, || 5), Ok(5));
    }
}
