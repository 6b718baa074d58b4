//! Deterministic fault-injection schedules ("proteus-chaos").
//!
//! A [`FaultSchedule`] is a sorted script of [`FaultEvent`]s plus a
//! per-load failure probability. The serving engine turns the script into
//! ordinary simulation events at run start, so a fault schedule is exactly
//! as deterministic as the rest of the run: the same seed and schedule
//! always reproduce the same crash, the same salvage decisions and the
//! same replans.
//!
//! Schedules come from three places:
//!
//! * scripted, via the [`FromStr`] grammar (the CLI's `--faults` flag):
//!   `;`-separated clauses `crash@<secs>:<dev>`, `recover@<secs>:<dev>`,
//!   `slow@<start>-<end>:<dev>x<factor>` and `loadfail@<p>`;
//! * generated, via [`FaultSchedule::seeded_random`] (chaos testing);
//! * built programmatically from [`FaultEvent`] values.

use std::fmt;
use std::str::FromStr;

use crate::SimTime;

/// One kind of injected fault, applied to a device by dense index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The device dies instantly: its in-flight batch never completes and
    /// its queue must be salvaged by the serving layer.
    DeviceCrash {
        /// Dense device index.
        device: u32,
    },
    /// The device comes back empty (no model loaded) and serviceable.
    DeviceRecover {
        /// Dense device index.
        device: u32,
    },
    /// The device keeps serving but every batch takes `slowdown` times
    /// longer until the matching [`FaultKind::StragglerEnd`].
    StragglerStart {
        /// Dense device index.
        device: u32,
        /// Latency multiplier, `>= 1.0`.
        slowdown: f64,
    },
    /// The device's execution latency returns to normal.
    StragglerEnd {
        /// Dense device index.
        device: u32,
    },
}

impl FaultKind {
    /// The device this fault targets.
    pub fn device(self) -> u32 {
        match self {
            FaultKind::DeviceCrash { device }
            | FaultKind::DeviceRecover { device }
            | FaultKind::StragglerStart { device, .. }
            | FaultKind::StragglerEnd { device } => device,
        }
    }
}

/// A scheduled fault: when it strikes, and what it does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Absolute simulated time the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A complete fault script for one run.
///
/// The default schedule is empty: no crashes, no stragglers, loads never
/// fail — byte-identical behaviour to a run without fault injection.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    /// Scripted faults, sorted by [`FaultEvent::at`] (ties keep insertion
    /// order, matching the simulator's FIFO tie-break).
    pub events: Vec<FaultEvent>,
    /// Probability in `[0, 1]` that any individual model load fails and
    /// must be retried with backoff. Zero disables load failures.
    pub load_failure_p: f64,
}

impl FaultSchedule {
    /// `true` when the schedule injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.load_failure_p <= 0.0
    }

    /// Sorts the script by fire time (stable, so equal-time faults keep
    /// their authoring order).
    pub fn sort(&mut self) {
        self.events.sort_by_key(|e| e.at);
    }

    /// Semantic validation: device-independent bounds on every clause.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid clause.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.load_failure_p) {
            return Err(format!(
                "load failure probability {} outside [0, 1]",
                self.load_failure_p
            ));
        }
        for e in &self.events {
            if let FaultKind::StragglerStart { slowdown, .. } = e.kind {
                if !slowdown.is_finite() || slowdown < 1.0 {
                    return Err(format!("straggler slowdown {slowdown} must be >= 1.0"));
                }
            }
        }
        Ok(())
    }

    /// Generates a reproducible random schedule for chaos testing: each
    /// device independently draws crash (and usually recovery) times plus
    /// an optional straggler window inside `[0, horizon]`, and runs draw a
    /// moderate load-failure probability. The result is a pure function of
    /// `seed`.
    pub fn seeded_random(seed: u64, horizon: SimTime, num_devices: u32) -> Self {
        let mut mix = SplitMix64::new(seed ^ 0x00c0_ffee_c4a5_0000);
        let span = horizon.as_nanos();
        let at = |frac: f64| SimTime::from_nanos((span as f64 * frac) as u64);
        let mut schedule = FaultSchedule {
            events: Vec::new(),
            load_failure_p: if mix.uniform() < 0.5 {
                0.3 * mix.uniform()
            } else {
                0.0
            },
        };
        for device in 0..num_devices {
            if mix.uniform() < 0.4 {
                let crash = 0.05 + 0.8 * mix.uniform();
                schedule.events.push(FaultEvent {
                    at: at(crash),
                    kind: FaultKind::DeviceCrash { device },
                });
                if mix.uniform() < 0.7 {
                    let recover = crash + (0.95 - crash) * mix.uniform();
                    schedule.events.push(FaultEvent {
                        at: at(recover),
                        kind: FaultKind::DeviceRecover { device },
                    });
                }
            }
            if mix.uniform() < 0.3 {
                let start = 0.8 * mix.uniform();
                let end = start + (0.95 - start) * mix.uniform();
                let slowdown = 1.5 + 3.0 * mix.uniform();
                schedule.events.push(FaultEvent {
                    at: at(start),
                    kind: FaultKind::StragglerStart { device, slowdown },
                });
                schedule.events.push(FaultEvent {
                    at: at(end),
                    kind: FaultKind::StragglerEnd { device },
                });
            }
        }
        schedule.sort();
        schedule
    }
}

/// A failure parsing a `--faults` specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultError {
    /// Human-readable reason, naming the offending clause.
    pub reason: String,
}

impl fmt::Display for ParseFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec: {}", self.reason)
    }
}

impl std::error::Error for ParseFaultError {}

impl FromStr for FaultSchedule {
    type Err = ParseFaultError;

    /// Parses the CLI grammar: `;`-separated clauses.
    ///
    /// * `crash@30:2` — device 2 crashes at t = 30 s;
    /// * `recover@90:2` — device 2 comes back at t = 90 s;
    /// * `slow@10-40:1x2.5` — device 1 runs 2.5× slower from 10 s to 40 s;
    /// * `loadfail@0.2` — every model load fails with probability 0.2.
    fn from_str(text: &str) -> Result<Self, ParseFaultError> {
        let err = |reason: String| ParseFaultError { reason };
        let num = |v: &str| -> Result<f64, ParseFaultError> {
            v.trim()
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| err(format!("`{v}` is not a non-negative number")))
        };
        let secs = |v: &str| -> Result<SimTime, ParseFaultError> {
            SimTime::checked_from_secs_f64(num(v)?)
                .ok_or_else(|| err(format!("`{v}` seconds is past the end of simulated time")))
        };
        let dev = |v: &str| -> Result<u32, ParseFaultError> {
            v.trim()
                .parse::<u32>()
                .map_err(|_| err(format!("`{v}` is not a device index")))
        };
        let mut schedule = FaultSchedule::default();
        for clause in text.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let Some((verb, rest)) = clause.split_once('@') else {
                return Err(err(format!("`{clause}` has no `@`")));
            };
            match verb.trim() {
                "crash" | "recover" => {
                    let Some((at, device)) = rest.split_once(':') else {
                        return Err(err(format!("`{clause}` needs `<secs>:<device>`")));
                    };
                    let at = secs(at)?;
                    let device = dev(device)?;
                    schedule.events.push(FaultEvent {
                        at,
                        kind: if verb.trim() == "crash" {
                            FaultKind::DeviceCrash { device }
                        } else {
                            FaultKind::DeviceRecover { device }
                        },
                    });
                }
                "slow" => {
                    let Some((window, target)) = rest.split_once(':') else {
                        return Err(err(format!(
                            "`{clause}` needs `<start>-<end>:<device>x<factor>`"
                        )));
                    };
                    let Some((start, end)) = window.split_once('-') else {
                        return Err(err(format!("`{clause}` needs a `<start>-<end>` window")));
                    };
                    let Some((device, factor)) = target.split_once('x') else {
                        return Err(err(format!(
                            "`{clause}` needs a `<device>x<factor>` target"
                        )));
                    };
                    let (start, end) = (secs(start)?, secs(end)?);
                    if end <= start {
                        return Err(err(format!("`{clause}` window must end after it starts")));
                    }
                    let device = dev(device)?;
                    schedule.events.push(FaultEvent {
                        at: start,
                        kind: FaultKind::StragglerStart {
                            device,
                            slowdown: num(factor)?,
                        },
                    });
                    schedule.events.push(FaultEvent {
                        at: end,
                        kind: FaultKind::StragglerEnd { device },
                    });
                }
                "loadfail" => schedule.load_failure_p = num(rest)?,
                other => return Err(err(format!("unknown fault verb `{other}`"))),
            }
        }
        schedule.sort();
        schedule
            .validate()
            .map_err(|reason| ParseFaultError { reason })?;
        Ok(schedule)
    }
}

/// SplitMix64: a tiny self-contained generator so schedule generation does
/// not perturb (or depend on) the run's main noise stream.
#[derive(Debug)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn default_schedule_is_empty() {
        let s = FaultSchedule::default();
        assert!(s.is_empty());
        assert!(s.validate().is_ok());
    }

    #[test]
    fn parses_full_grammar() {
        let s: FaultSchedule = "crash@30:2; recover@90:2; slow@10-40:1x2.5; loadfail@0.2"
            .parse()
            .unwrap();
        assert_eq!(s.load_failure_p, 0.2);
        assert_eq!(s.events.len(), 4);
        // Sorted by time: slow-start (10), crash (30), slow-end (40),
        // recover (90).
        assert_eq!(
            s.events[0].kind,
            FaultKind::StragglerStart {
                device: 1,
                slowdown: 2.5
            }
        );
        assert_eq!(s.events[0].at, secs(10.0));
        assert_eq!(s.events[1].kind, FaultKind::DeviceCrash { device: 2 });
        assert_eq!(s.events[1].at, secs(30.0));
        assert_eq!(s.events[2].kind, FaultKind::StragglerEnd { device: 1 });
        assert_eq!(s.events[3].kind, FaultKind::DeviceRecover { device: 2 });
    }

    #[test]
    fn empty_spec_parses_to_empty_schedule() {
        let s: FaultSchedule = "".parse().unwrap();
        assert!(s.is_empty());
        let s: FaultSchedule = " ; ; ".parse().unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn rejects_malformed_clauses() {
        for bad in [
            "crash",
            "crash@30",
            "crash@x:1",
            "crash@30:x",
            "slow@10:1x2",
            "slow@40-10:1x2",
            "slow@10-40:1",
            "slow@10-40:1x0.5",
            "loadfail@1.5",
            "loadfail@x",
            "frob@1:2",
        ] {
            assert!(bad.parse::<FaultSchedule>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_times_past_the_end_of_simulated_time() {
        // u64::MAX nanoseconds is about 18446744073.7 s.
        for bad in [
            "crash@1e300:1",
            "recover@18446744074:0",
            "slow@0-1e20:1x2",
            "slow@1e300-1e301:1x2",
        ] {
            let e = bad.parse::<FaultSchedule>().unwrap_err();
            assert!(e.reason.contains("past the end"), "{bad:?}: {e}");
        }
        assert!("crash@18446744073:0".parse::<FaultSchedule>().is_ok());
    }

    #[test]
    fn seeded_random_is_deterministic_and_valid() {
        let a = FaultSchedule::seeded_random(7, secs(60.0), 9);
        let b = FaultSchedule::seeded_random(7, secs(60.0), 9);
        assert_eq!(a, b);
        assert!(a.validate().is_ok());
        let c = FaultSchedule::seeded_random(8, secs(60.0), 9);
        assert_ne!(a, c, "different seeds should give different schedules");
        // Sorted and inside the horizon.
        for w in a.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for e in &a.events {
            assert!(e.at <= secs(60.0));
            assert!(e.kind.device() < 9);
        }
    }

    #[test]
    fn seeded_random_eventually_crashes_something() {
        let crashed = (0..50).any(|seed| {
            FaultSchedule::seeded_random(seed, secs(60.0), 9)
                .events
                .iter()
                .any(|e| matches!(e.kind, FaultKind::DeviceCrash { .. }))
        });
        assert!(crashed);
    }
}
