//! Progress with no file installed: every task handle is inert. Its own
//! test binary, because installing a progress file cannot be undone.

#[test]
fn disabled_handles_are_inert() {
    let t = qdi_obs::progress::task("obs.test.inert", 10);
    assert!(!t.is_enabled());
    t.advance(5);
    t.finish();
    assert!(t.snapshot().is_none());
    assert!(qdi_obs::ProgressSnapshot::capture().tasks.is_empty());
}
