//! Property tests for the JSONL trace codec: generated events of every kind
//! survive `to_jsonl` → `parse_line` exactly, and no input — random bytes,
//! or a valid line cut short or with a byte flipped — makes the reader
//! panic.

use proptest::prelude::*;
use proteus_profiler::{DeviceId, DeviceType, ModelFamily, VariantId};
use proteus_sim::SimTime;
use proteus_trace::{
    parse_jsonl_torn, parse_line, to_jsonl, AlertSeverity, DiscardReason, DropReason, EventKind,
    ReplanCause, TraceEvent,
};

/// Number of [`EventKind`] variants [`event`] can build.
const KINDS: usize = 27;

/// Ids: small, anywhere in `u64`, and the top of the range.
fn id() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..1_000,
        0u64..u64::MAX,
        (0u64..4).prop_map(|k| u64::MAX - k),
    ]
}

/// `u32` counters and device numbers, including the top of the range.
fn small() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..64,
        0u32..u32::MAX,
        (0u32..2).prop_map(|k| u32::MAX - k),
    ]
}

/// Non-integral floats of either sign, from about 1e-301 to 4.5e15:
/// `(m + 1/2) * 2^e` with `e <= 0` always has a fractional part.
fn float() -> impl Strategy<Value = f64> {
    (0u64..1 << 52, -1000i32..1, any::<bool>()).prop_map(|(m, e, negative)| {
        let x = (m as f64 + 0.5) * 2f64.powi(e);
        if negative {
            -x
        } else {
            x
        }
    })
}

/// Label choices: family, device type, cause/reason, variant index.
fn picks() -> impl Strategy<Value = (usize, usize, usize, u8)> {
    (0usize..9, 0usize..3, 0usize..6, 0u8..255)
}

/// Builds one event of kind number `kind` (`0..KINDS`) from generated
/// parts. `some` decides every optional field.
#[allow(clippy::too_many_arguments)]
fn event(
    kind: usize,
    at: u64,
    [q, b, n]: [u64; 3],
    [d, m]: [u32; 2],
    [x, y, z]: [f64; 3],
    (fam, dev, why, idx): (usize, usize, usize, u8),
    some: bool,
    queries: Vec<u64>,
) -> TraceEvent {
    let device = DeviceId(d);
    let family = ModelFamily::ALL[fam % ModelFamily::ALL.len()];
    let variant = VariantId { family, index: idx };
    let cause = ReplanCause::ALL[why % ReplanCause::ALL.len()];
    let kind = match kind {
        0 => EventKind::WorkerOnline {
            device,
            device_type: DeviceType::ALL[dev],
        },
        1 => EventKind::Arrived { query: q, family },
        2 => EventKind::Routed { query: q, device },
        3 => EventKind::Enqueued {
            query: q,
            device,
            depth: m,
            behind: some.then_some(b),
        },
        4 => EventKind::BatchFormed {
            device,
            batch: b,
            queries,
        },
        5 => EventKind::ExecStarted {
            device,
            batch: b,
            variant,
            size: m,
            until: SimTime::from_nanos(n),
        },
        6 => EventKind::ExecCompleted { device, batch: b },
        7 => EventKind::ServedOnTime {
            query: q,
            latency: SimTime::from_nanos(n),
            epoch: b,
        },
        8 => EventKind::ServedLate {
            query: q,
            latency: SimTime::from_nanos(n),
            epoch: b,
        },
        9 => EventKind::Dropped {
            query: q,
            reason: DropReason::ALL[why % DropReason::ALL.len()],
        },
        10 => EventKind::ModelLoadStarted {
            device,
            variant: some.then_some(variant),
            until: SimTime::from_nanos(n),
        },
        11 => EventKind::ModelLoadFinished { device },
        12 => EventKind::ReplanTriggered { cause },
        13 => EventKind::PlanApplied {
            changed: m,
            shrink: x,
        },
        14 => EventKind::SolveStats {
            nodes: q,
            pivots: b,
            warm_starts: n,
            wall_nanos: q ^ b,
        },
        15 => EventKind::AuditReport {
            violations: m,
            devices_checked: d,
            families_checked: m ^ d,
        },
        16 => EventKind::WorkerCrashed { device },
        17 => EventKind::WorkerRecovered { device },
        18 => EventKind::QueryRetried {
            query: q,
            from: device,
            attempt: m,
        },
        19 => EventKind::LoadFailed {
            device,
            variant: some.then_some(variant),
            attempt: m,
        },
        20 => EventKind::StragglerStarted {
            device,
            slowdown: x,
        },
        21 => EventKind::StragglerEnded { device },
        22 | 23 => {
            let (scope, severity) = (
                some.then_some(family),
                AlertSeverity::ALL[why % AlertSeverity::ALL.len()],
            );
            if kind == 22 {
                EventKind::AlertFired {
                    scope,
                    severity,
                    burn: x,
                    long_secs: y,
                    short_secs: z,
                }
            } else {
                EventKind::AlertResolved {
                    scope,
                    severity,
                    burn: x,
                    long_secs: y,
                    short_secs: z,
                }
            }
        }
        24 => EventKind::SolveStarted {
            cause,
            until: SimTime::from_nanos(n),
        },
        25 => EventKind::SolveComplete { cause },
        26 => EventKind::PlanDiscarded {
            cause,
            reason: DiscardReason::ALL[why % DiscardReason::ALL.len()],
        },
        other => panic!("no event kind {other}"),
    };
    TraceEvent {
        at: SimTime::from_nanos(at),
        kind,
    }
}

/// One generated valid event (all kinds, any ids).
fn any_event() -> impl Strategy<Value = TraceEvent> {
    (
        (0usize..KINDS, id(), id(), id(), id()),
        (small(), small()),
        (float(), float(), float()),
        picks(),
        any::<bool>(),
        prop::collection::vec(id(), 0..8),
    )
        .prop_map(
            |((kind, at, q, b, n), (d, m), (x, y, z), pick, some, queries)| {
                event(kind, at, [q, b, n], [d, m], [x, y, z], pick, some, queries)
            },
        )
}

/// `line` with every letter inside a string written as a `\u00XX`
/// escape: the same JSON, read through the decoder's escape path. The
/// writer never escapes, so every `"` opens or closes a string.
fn escape_letters(line: &str) -> String {
    let mut in_string = false;
    line.chars()
        .map(|c| {
            in_string ^= c == '"';
            if in_string && c.is_ascii_alphabetic() {
                format!("\\u{:04x}", u32::from(c))
            } else {
                c.to_string()
            }
        })
        .collect()
}

/// Feeds `bytes` to both readers, as one line and as the torn tail of a
/// document; only an `Err` may come back, never a panic.
fn read_all_ways(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = parse_line(&text);
    let _ = parse_jsonl_torn(&text);
    let good = "{\"t\":1,\"ev\":\"worker_crashed\",\"d\":0}\n";
    let _ = parse_jsonl_torn(&format!("{good}{text}"));
    let _ = parse_jsonl_torn(&format!("{good}{text}\n{good}"));
}

#[test]
fn the_generator_covers_every_event_kind() {
    let mut names: Vec<&str> = (0..KINDS)
        .map(|k| {
            event(k, 0, [0; 3], [0; 2], [0.5; 3], (0, 0, 0, 0), true, vec![])
                .kind
                .name()
        })
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), KINDS);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn generated_events_round_trip_exactly(e in any_event()) {
        let line = to_jsonl(&e);
        prop_assert_eq!(parse_line(&line), Ok(e.clone()));
        prop_assert_eq!(parse_line(&escape_letters(&line)), Ok(e.clone()));
        // Also as one line of a document, with and without its newline.
        let doc = format!("{line}\n{line}");
        prop_assert_eq!(parse_jsonl_torn(&doc), Ok((vec![e.clone(), e], None)));
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u16..256, 0..96)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        read_all_ways(&bytes);
    }

    #[test]
    fn json_like_bytes_never_panic(picks in prop::collection::vec(0usize..32, 0..96)) {
        // Bytes from the format's own alphabet get past the first token.
        const ALPHABET: &[u8; 32] = b"{}[]\":,0123456789-+.eEnul\\ tqdr\xc3";
        let bytes: Vec<u8> = picks.into_iter().map(|i| ALPHABET[i]).collect();
        read_all_ways(&bytes);
    }

    #[test]
    fn cut_and_flipped_lines_never_panic(
        e in any_event(),
        cut in 0usize..1 << 16,
        flip in (0usize..1 << 16, 1u16..256),
    ) {
        let plain = to_jsonl(&e);
        for line in [escape_letters(&plain), plain] {
            let line = line.into_bytes();
            read_all_ways(&line[..cut % (line.len() + 1)]);
            let mut flipped = line.clone();
            let at = flip.0 % flipped.len();
            flipped[at] ^= flip.1 as u8;
            read_all_ways(&flipped);
            // A strict prefix is never a whole event.
            let prefix = String::from_utf8_lossy(&line[..cut % line.len()]).into_owned();
            prop_assert!(parse_line(&prefix).is_err(), "{}", prefix);
        }
    }
}
