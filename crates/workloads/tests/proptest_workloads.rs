//! Property-based tests of the workload generators and trace I/O.

use proptest::prelude::*;
use proteus_profiler::ModelFamily;
use proteus_workloads::dist::Zipf;
use proteus_workloads::io::{arrivals_from_csv, arrivals_to_csv, RecordedTrace};
use proteus_workloads::{
    ArrivalKind, ArrivalProcess, DemandTrace, DiurnalTrace, FlatTrace, TraceBuilder,
};

/// Tokens at the edges of what the readers must refuse or accept: signs,
/// non-finite spellings, times just past what `SimTime` can hold, and
/// malformed numbers.
const EDGE_TOKENS: &[&str] = &[
    "0",
    "-0",
    "1",
    "+1",
    ".5",
    "5.",
    "e5",
    "",
    " ",
    "-1",
    "inf",
    "-inf",
    "NaN",
    "1e20",
    "1e300",
    "1e-400",
    "18446744073",
    "18446744074",
    "18446744073.709551615",
    "1.7976931348623157e308",
    "18446744073709551616",
    "0x10",
    "1_000",
];

/// A numeric-looking CSV field: a whole number of any size, a float of
/// any magnitude and sign, or an edge token.
fn numeric_token() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(|n| n.to_string()),
        (-1e3f64..1e3, -330i32..330).prop_map(|(m, e)| format!("{m}e{e}")),
        (0usize..EDGE_TOKENS.len()).prop_map(|i| EDGE_TOKENS[i].to_string()),
    ]
}

/// Feeds `text` to both readers; only an `Err` may come back, never a
/// panic, and what `arrivals_from_csv` accepts is time-ordered.
fn read_both(text: &str) -> Result<(), TestCaseError> {
    if let Ok(arrivals) = arrivals_from_csv(text) {
        prop_assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
        prop_assert!(arrivals.iter().all(|a| a.cost.is_finite() && a.cost > 0.0));
    }
    if let Ok(trace) = RecordedTrace::from_csv(text) {
        prop_assert!((0..trace.duration_secs()).all(|s| trace.qps_at(s) >= 0.0));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_readers(bytes in prop::collection::vec(0u16..256, 0..128)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        read_both(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn numeric_rows_never_panic_the_readers(
        rows in prop::collection::vec((numeric_token(), numeric_token(), 0usize..4), 1..12),
    ) {
        let mut arrivals_csv = String::from("time_secs,family,cost\n");
        let mut demand_csv = String::from("second,qps\n");
        for (i, (a, b, shape)) in rows.iter().enumerate() {
            let family = ModelFamily::ALL[i % ModelFamily::ALL.len()].label();
            arrivals_csv.push_str(&match shape {
                0 => format!("{a},{family}\n"),
                1 => format!("{a},{family},{b}\n"),
                2 => format!("{a},{b}\n"),
                _ => format!("{a}\n"),
            });
            // Dense second indices get past the ordering check to the rate.
            let second = if *shape == 3 { a.clone() } else { i.to_string() };
            demand_csv.push_str(&format!("{second},{b}\n"));
        }
        read_both(&arrivals_csv)?;
        read_both(&demand_csv)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Zipf masses sum to one and decrease with rank for any size/exponent.
    #[test]
    fn zipf_is_a_distribution(n in 1usize..40, alpha in 0.0f64..3.0) {
        let z = Zipf::new(n, alpha);
        let total: f64 = (1..=n).map(|r| z.mass(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for r in 1..n {
            prop_assert!(z.mass(r) >= z.mass(r + 1) - 1e-12);
        }
    }

    /// Arrival processes hit their configured rate within sampling noise,
    /// for every inter-arrival law.
    #[test]
    fn arrival_rates_converge(rate in 20.0f64..400.0, seed in 0u64..50) {
        for kind in [
            ArrivalKind::Uniform,
            ArrivalKind::Poisson,
            ArrivalKind::Gamma { shape: 0.5 },
        ] {
            let n = ArrivalProcess::new(kind, rate, seed)
                .take_for_secs(30.0)
                .len() as f64;
            let observed = n / 30.0;
            prop_assert!(
                (observed - rate).abs() < 6.0 * (rate / 30.0).sqrt().max(1.0),
                "{kind:?}: observed {observed} vs {rate}"
            );
        }
    }

    /// Trace-builder output is time-sorted, within the trace horizon, and
    /// totals the integrated demand within Poisson noise.
    #[test]
    fn builder_output_is_well_formed(qps in 10.0f64..400.0, secs in 3u32..30, seed in 0u64..20) {
        let trace = FlatTrace { qps, secs };
        let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
            .seed(seed)
            .build(&trace);
        for w in arrivals.windows(2) {
            prop_assert!(w[0].at <= w[1].at);
        }
        let horizon = proteus_sim::SimTime::from_secs(secs as u64);
        prop_assert!(arrivals.iter().all(|a| a.at < horizon));
        let expect = qps * secs as f64;
        prop_assert!(
            (arrivals.len() as f64 - expect).abs() < 6.0 * expect.sqrt().max(1.0),
            "{} vs {expect}", arrivals.len()
        );
        prop_assert!(arrivals.iter().all(|a| a.cost == 1.0));
    }

    /// Arrival CSV round-trips exactly for any generated stream, including
    /// variable input costs.
    #[test]
    fn arrival_csv_round_trips(seed in 0u64..30, shape in 0.5f64..4.0) {
        let arrivals = TraceBuilder::new(vec![ModelFamily::Bert, ModelFamily::ResNet])
            .seed(seed)
            .variable_input_sizes(shape)
            .build(&FlatTrace { qps: 120.0, secs: 4 });
        let parsed = arrivals_from_csv(&arrivals_to_csv(&arrivals)).unwrap();
        prop_assert_eq!(parsed.len(), arrivals.len());
        for (a, b) in parsed.iter().zip(&arrivals) {
            prop_assert_eq!(a.at, b.at);
            prop_assert_eq!(a.family, b.family);
            prop_assert!((a.cost - b.cost).abs() < 1e-6);
        }
    }

    /// Recorded traces capture any diurnal curve exactly (up to CSV
    /// rounding) and speed-up preserves total volume.
    #[test]
    fn recorded_traces_capture_and_compress(
        secs in 20u32..120,
        base in 10.0f64..200.0,
        amp in 0.0f64..800.0,
        factor in 1u32..6,
    ) {
        let trace = DiurnalTrace::paper_like(secs, base, base + amp, 3);
        let recorded = RecordedTrace::capture(&trace);
        prop_assert_eq!(recorded.duration_secs(), secs);
        let round = RecordedTrace::from_csv(&recorded.to_csv()).unwrap();
        for s in 0..secs {
            prop_assert!((round.qps_at(s) - trace.qps_at(s)).abs() < 1e-4);
        }
        let fast = recorded.sped_up(factor);
        let total_before: f64 = (0..secs).map(|s| recorded.qps_at(s)).sum();
        let total_after: f64 = (0..fast.duration_secs()).map(|s| fast.qps_at(s)).sum();
        prop_assert!((total_before - total_after).abs() < 1e-6);
        prop_assert_eq!(fast.duration_secs(), secs.div_ceil(factor));
    }
}
