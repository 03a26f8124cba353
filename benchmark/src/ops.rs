//! Failure accounting: every call the benchmark makes into the simulator
//! is one operation, run under `catch_unwind`. A quiet panic hook keeps
//! each distinct failure message (with how often it occurred) instead of
//! printing a backtrace per failed operation.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;

static FAILURES: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Operations this thread is inside of; panics elsewhere are the
    /// benchmark's own bugs and keep the default report.
    static IN_OP: Cell<u32> = const { Cell::new(0) };
}

/// Make panics inside [`op`] quiet: record the message and its source
/// location instead of printing them.
pub fn install_quiet_hook() {
    let default = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if IN_OP.with(Cell::get) == 0 {
            return default(info);
        }
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        let at = info
            .location()
            .map(|l| format!(" (at {}:{})", l.file(), l.line()))
            .unwrap_or_default();
        note(format!("panic: {msg}{at}"), 1);
    }));
}

/// Record `count` failures with the message `msg`.
pub fn note(msg: String, count: u64) {
    *FAILURES
        .lock()
        .expect("failure log poisoned")
        .entry(msg)
        .or_insert(0) += count;
}

/// Run one operation. A panic or an `Err` counts as a failure and is
/// recorded; the operation's value comes back only on success.
pub fn op<R, E: std::fmt::Display>(f: impl FnOnce() -> Result<R, E>) -> Option<R> {
    IN_OP.with(|d| d.set(d.get() + 1));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    IN_OP.with(|d| d.set(d.get() - 1));
    match result {
        Ok(Ok(r)) => Some(r),
        Ok(Err(e)) => {
            note(format!("error: {e}"), 1);
            None
        }
        // The hook already recorded the panic message.
        Err(_) => None,
    }
}

/// [`op`] for a call that reports failure only by panicking.
pub fn op_infallible<R>(f: impl FnOnce() -> R) -> Option<R> {
    op(|| Ok::<R, std::convert::Infallible>(f()))
}

/// Every distinct failure message recorded so far, with its count.
pub fn distinct() -> Vec<(String, u64)> {
    FAILURES
        .lock()
        .expect("failure log poisoned")
        .iter()
        .map(|(m, c)| (m.clone(), *c))
        .collect()
}
