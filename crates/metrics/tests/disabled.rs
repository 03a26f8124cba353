//! Recording outside any `collect` scope is a no-op. `enabled()` reads a
//! process-wide count of live scopes, so this test has a binary of its
//! own: any test running beside it in the same process may hold a scope
//! open and make `enabled()` true.

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
