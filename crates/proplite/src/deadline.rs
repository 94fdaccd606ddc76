//! A wall-clock bound for test bodies that could hang.

use std::panic::resume_unwind;
// detlint:allow(D3) -- test harness: the body's result comes back over a channel so the wait can time out
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

/// How long [`within_deadline`] lets a body run: generous, since
/// bodies that finish normally take milliseconds.
pub const DEADLINE: Duration = Duration::from_secs(60);

/// Run a test body on its own thread and panic if it has not finished
/// within [`DEADLINE`], so a body that would wait forever (say, on a
/// result that is never delivered) fails its test instead of stalling
/// the suite. A hung body's thread is left behind and ends with the
/// test process. A panic in the body reaches the caller unchanged.
pub fn within_deadline<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    // detlint:allow(D3) -- test harness: the body gets its own thread so a hang can be timed out; no result depends on which thread runs it
    let worker = std::thread::spawn(move || {
        // The receiver is gone only after a timeout, when the result
        // no longer matters.
        let _ = tx.send(body());
    });
    match rx.recv_timeout(DEADLINE) {
        Err(RecvTimeoutError::Timeout) => panic!(
            "test body still running after {DEADLINE:?}: it hangs (a result it waits on never came)"
        ),
        // The body returned, or unwound and dropped the sender: its
        // thread is done.
        done => match worker.join() {
            Err(payload) => resume_unwind(payload),
            Ok(()) => done.expect("a body that returns sends its result"),
        },
    }
}
