//! Property tests for the `--faults` grammar: no input string makes
//! `FaultSchedule::from_str` panic, and generated valid clauses parse to
//! exactly the events they spell.

use proptest::prelude::*;
use proteus_sim::{FaultEvent, FaultKind, FaultSchedule, SimTime};

/// Clause shapes of the grammar (and near misses), with `{}` fields.
const SHAPES: [&str; 8] = [
    "crash@{}:{}",
    "recover@{}:{}",
    "slow@{}-{}:{}x{}",
    "loadfail@{}",
    "slow@{}:{}x{}",
    "slow@{}-{}:{}",
    "frob@{}",
    "{}",
];

/// Field values: valid numbers, numbers at and past the edges of `f64`,
/// `u32` and `SimTime`, and junk.
const FIELDS: [&str; 16] = [
    "0",
    "1",
    "2.5",
    " 3 ",
    "1.5e1",
    "-1",
    "-0",
    "1e300",
    "1e20",
    "18446744074",
    "4294967296",
    "inf",
    "NaN",
    "x",
    "",
    "@:;-x",
];

/// Characters a random edit may insert.
const EDITS: [char; 10] = ['@', ':', ';', '-', 'x', '.', 'e', ' ', '9', 'é'];

/// One clause: `SHAPES[shape]` with its `{}`s filled from `FIELDS`.
fn fill(shape: usize, fields: &[usize]) -> String {
    let mut fields = fields.iter().map(|&f| FIELDS[f]);
    let mut parts = SHAPES[shape].split("{}");
    let mut text = parts.next().unwrap_or("").to_string();
    for part in parts {
        text.push_str(fields.next().unwrap_or(""));
        text.push_str(part);
    }
    text
}

/// A string over the grammar: clauses of random shapes with random fields
/// joined by `;`, then usually one character inserted at a random place.
fn grammar_text() -> impl Strategy<Value = String> {
    let clause = (
        0usize..SHAPES.len(),
        prop::collection::vec(0usize..FIELDS.len(), 4),
    );
    (
        prop::collection::vec(clause, 1..4),
        0usize..64,
        0usize..EDITS.len() + 2,
    )
        .prop_map(|(clauses, at, edit)| {
            let clauses: Vec<String> = clauses.iter().map(|(s, f)| fill(*s, f)).collect();
            let mut text = clauses.join(";");
            if let Some(&c) = EDITS.get(edit) {
                let at = (0..=text.len())
                    .filter(|&i| text.is_char_boundary(i))
                    .nth(at)
                    .unwrap_or(0);
                text.insert(at, c);
            }
            text
        })
}

/// One valid clause: its text and the schedule change it makes.
#[derive(Debug, Clone)]
enum Clause {
    Event(String, Vec<FaultEvent>),
    LoadFail(String, f64),
}

fn clause() -> impl Strategy<Value = Clause> {
    (
        0usize..4,
        0.0f64..1e6,
        0.001f64..1e4,
        0u32..u32::MAX,
        1.0f64..10.0,
    )
        .prop_map(|(kind, at, len, device, factor)| {
            let start = SimTime::from_secs_f64(at);
            match kind {
                0 => Clause::Event(
                    format!("crash@{at}:{device}"),
                    vec![FaultEvent {
                        at: start,
                        kind: FaultKind::DeviceCrash { device },
                    }],
                ),
                1 => Clause::Event(
                    format!(" recover @ {at} : {device} "),
                    vec![FaultEvent {
                        at: start,
                        kind: FaultKind::DeviceRecover { device },
                    }],
                ),
                2 => {
                    let end = at + len;
                    Clause::Event(
                        format!("slow@{at}-{end}:{device}x{factor}"),
                        vec![
                            FaultEvent {
                                at: start,
                                kind: FaultKind::StragglerStart {
                                    device,
                                    slowdown: factor,
                                },
                            },
                            FaultEvent {
                                at: SimTime::from_secs_f64(end),
                                kind: FaultKind::StragglerEnd { device },
                            },
                        ],
                    )
                }
                _ => {
                    let p = factor / 10.0;
                    Clause::LoadFail(format!("loadfail@{p}"), p)
                }
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary Unicode text is either a schedule or an error.
    #[test]
    fn arbitrary_text_never_panics(codes in prop::collection::vec(0u32..0x11_0000, 0..48)) {
        let text: String = codes.into_iter().filter_map(char::from_u32).collect();
        let _ = text.parse::<FaultSchedule>();
    }

    /// Text over the grammar's own alphabet reaches every parse step; what
    /// parses is sorted and valid.
    #[test]
    fn grammar_alphabet_never_panics(text in grammar_text()) {
        if let Ok(schedule) = text.parse::<FaultSchedule>() {
            prop_assert!(schedule.validate().is_ok(), "{}", text);
            prop_assert!(schedule.events.windows(2).all(|w| w[0].at <= w[1].at), "{}", text);
        }
    }

    /// Valid clauses parse to the events they spell, sorted stably by time,
    /// with the last `loadfail` clause setting the probability.
    #[test]
    fn valid_clauses_parse_to_their_events(clauses in prop::collection::vec(clause(), 0..8)) {
        let mut expected = FaultSchedule::default();
        let mut texts = Vec::new();
        for c in &clauses {
            match c {
                Clause::Event(text, events) => {
                    texts.push(text.clone());
                    expected.events.extend(events.iter().copied());
                }
                Clause::LoadFail(text, p) => {
                    texts.push(text.clone());
                    expected.load_failure_p = *p;
                }
            }
        }
        expected.sort();
        let text = texts.join(";");
        let parsed = text.parse::<FaultSchedule>();
        prop_assert_eq!(parsed, Ok(expected));
    }
}
