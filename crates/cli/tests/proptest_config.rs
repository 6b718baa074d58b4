//! Property tests for the experiment config format: no text makes
//! `ExperimentConfig::from_str` panic, a config that fails names a line of
//! its text, and a config that parses runs through `run_experiment`
//! without panicking.

use proptest::prelude::*;
use proteus_cli::config::ExperimentConfig;
use proteus_cli::run_experiment;

/// A short, small experiment every generated config starts from.
const BASE: &str = "trace = flat\n\
                    trace_secs = 2\n\
                    base_qps = 5\n\
                    peak_qps = 20\n\
                    cluster = 1, 1, 1\n\
                    realloc_period = 1\n";

/// Numbers at and past the edges of `f64`, `u32`, `u64` and `SimTime`,
/// and junk.
const EDGES: [&str; 18] = [
    "nan",
    "NaN",
    "inf",
    "-inf",
    "-0",
    "0",
    "1",
    "2.5",
    "-1",
    "0.99",
    "1e300",
    "-1e300",
    "4294967295",
    "4294967296",
    "1e10",
    "18446744073709551616",
    "x",
    "",
];

/// The edges a key that sizes the run may take in a run: non-finite,
/// signed, zero and small. A large finite trace length, demand, cluster or
/// SLO (a query may wait that long) asks for an arbitrarily long run, so
/// only the parse property gives those keys every edge.
const SIZE_EDGES: [&str; 12] = [
    "nan", "NaN", "inf", "-inf", "-0", "0", "1", "3", "2.5", "-1", "x", "",
];

/// Assignment shapes: a key, a value template whose `{}` takes an edge,
/// and whether the key sizes the run.
const LINES: [(&str, &str, bool); 24] = [
    ("trace_secs", "{}", true),
    ("base_qps", "{}", true),
    ("peak_qps", "{}", true),
    ("cluster", "{}, 1, 1", true),
    ("seed", "{}", false),
    ("slo_multiplier", "{}", true),
    ("realloc_period", "{}", false),
    ("realloc_period_secs", "{}", false),
    ("beta", "{}", false),
    ("solve_latency", "fixed:{}", false),
    ("batching", "static:{}", false),
    ("telemetry_window", "{}", false),
    ("telemetry_step", "{}", false),
    ("telemetry_objective", "{}", false),
    ("telemetry", "on", false),
    ("solve_latency", "model", false),
    ("trace", "diurnal", false),
    ("trace", "bursty", false),
    ("model_allocation", "infaas_v2", false),
    ("model_allocation", "clipper_ha", false),
    ("model_allocation", "sommelier", false),
    ("output", "latency", false),
    ("audit", "on", false),
    ("faults", "crash@1:0; recover@1.5:0; loadfail@0.5", false),
];

/// `BASE` plus one to four generated assignments. `run_sized` picks the
/// edges of run-sizing keys from `SIZE_EDGES`.
fn config_text(run_sized: bool) -> impl Strategy<Value = String> {
    prop::collection::vec((0usize..LINES.len(), 0usize..EDGES.len()), 1..5).prop_map(move |lines| {
        let mut text = BASE.to_string();
        for (shape, edge) in lines {
            let (key, template, sizes) = LINES[shape];
            let value = if run_sized && sizes {
                SIZE_EDGES[edge % SIZE_EDGES.len()]
            } else {
                EDGES[edge]
            };
            text.push_str(&format!("{key} = {}\n", template.replace("{}", value)));
        }
        text
    })
}

/// Parses `text`: `None` if it fails, which must name one of its lines.
fn parse(text: &str) -> Result<Option<ExperimentConfig>, TestCaseError> {
    match text.parse::<ExperimentConfig>() {
        Ok(config) => {
            prop_assert!(config.validate().is_ok(), "{}", text);
            Ok(Some(config))
        }
        Err(e) => {
            let lines = text.lines().count();
            prop_assert!((1..=lines).contains(&e.line), "{}: {}", text, e);
            Ok(None)
        }
    }
}

proptest! {
    /// Arbitrary Unicode text, bare or as `key = value` lines over the real
    /// keys, is either a config or an error.
    #[test]
    fn arbitrary_text_never_panics(
        key in 0usize..LINES.len(),
        codes in prop::collection::vec(0u32..0x11_0000, 0..48),
    ) {
        let text: String = codes.into_iter().filter_map(char::from_u32).collect();
        let _ = text.parse::<ExperimentConfig>();
        let _ = format!("{} = {text}", LINES[key].0).parse::<ExperimentConfig>();
    }

    /// Every edge on every key parses to a valid config or fails on a
    /// line of the text.
    #[test]
    fn edge_numbers_parse_or_name_a_line(text in config_text(false)) {
        parse(&text)?;
    }

    /// A config that parses runs to the end without panicking and
    /// accounts for every query.
    #[test]
    fn parsed_configs_run(text in config_text(true)) {
        if let Some(config) = parse(&text)? {
            let s = run_experiment(&config).outcome.metrics.summary();
            prop_assert!(s.total_arrived == s.total_served + s.total_dropped, "{}", text);
        }
    }
}
