//! Recording outside any `collect` scope is a no-op. `enabled()` reads
//! the calling thread's count of live scopes, so a scope another thread
//! holds open leaves it false here.

use bband_metrics::{collect, counter, enabled, record_ps};

#[test]
fn disabled_recording_is_a_no_op() {
    assert!(!enabled());
    record_ps("nothing", 42);
    counter("nothing", 1);
    let (_, task) = collect(|| ());
    assert!(task.hists.is_empty());
    assert!(task.counters.is_empty());
}
