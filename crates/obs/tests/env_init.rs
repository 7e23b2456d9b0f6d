//! `QDI_LOG` is read lazily by the first span. Its own test binary, so
//! the variable is set before anything else in the process reads it.

#[test]
fn qdi_log_turns_spans_on_at_the_first_span() {
    std::env::set_var("QDI_LOG", "warn");
    let sink = std::sync::Arc::new(qdi_obs::MemorySink::new());
    qdi_obs::set_sinks(vec![sink.clone()]);
    {
        let span = qdi_obs::span_at(qdi_obs::Level::Warn, "obs_env", "first");
        assert!(span.is_recording(), "QDI_LOG=warn enables warn spans");
    }
    assert_eq!(sink.len(), 1);
    // Overriding the filter turns spans off again.
    qdi_obs::set_filter(qdi_obs::Filter::off());
    assert!(!qdi_obs::span::hot("obs_env.hot").is_recording());
}
