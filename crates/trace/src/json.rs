//! JSON Lines serialization of trace events, without a JSON dependency.
//!
//! Each event is one flat JSON object per line. The writer and the parser
//! are developed together against round-trip tests, so the on-disk format
//! is exactly the dialect the parser accepts: objects with string, integer,
//! float, null, and integer-array values.

use std::borrow::Cow;
use std::fmt::Write as _;

use proteus_profiler::{DeviceId, ModelFamily, VariantId};
use proteus_sim::SimTime;

use crate::event::{AlertSeverity, DiscardReason, DropReason, EventKind, ReplanCause, TraceEvent};

/// Serializes one event as a single JSON line (no trailing newline).
pub fn to_jsonl(event: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    write_jsonl(&mut s, event);
    s
}

/// Appends one event's JSON line (no trailing newline) to `s`.
pub fn write_jsonl(s: &mut String, event: &TraceEvent) {
    let _ = write!(
        s,
        "{{\"t\":{},\"ev\":\"{}\"",
        event.at.as_nanos(),
        event.kind.name()
    );
    match &event.kind {
        EventKind::WorkerOnline {
            device,
            device_type,
        } => {
            let _ = write!(
                s,
                ",\"d\":{},\"type\":\"{}\"",
                device.0,
                device_type.label()
            );
        }
        EventKind::Arrived { query, family } => {
            let _ = write!(s, ",\"q\":{query},\"family\":\"{}\"", family.label());
        }
        EventKind::Routed { query, device } => {
            let _ = write!(s, ",\"q\":{query},\"d\":{}", device.0);
        }
        EventKind::Enqueued {
            query,
            device,
            depth,
            behind,
        } => {
            let _ = write!(s, ",\"q\":{query},\"d\":{},\"depth\":{depth}", device.0);
            if let Some(b) = behind {
                let _ = write!(s, ",\"behind\":{b}");
            }
        }
        EventKind::BatchFormed {
            device,
            batch,
            queries,
        } => {
            let _ = write!(s, ",\"d\":{},\"batch\":{batch},\"queries\":[", device.0);
            for (i, q) in queries.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{q}");
            }
            s.push(']');
        }
        EventKind::ExecStarted {
            device,
            batch,
            variant,
            size,
            until,
        } => {
            let _ = write!(
                s,
                ",\"d\":{},\"batch\":{batch},\"variant\":\"{variant}\",\"size\":{size},\"until\":{}",
                device.0,
                until.as_nanos()
            );
        }
        EventKind::ExecCompleted { device, batch } => {
            let _ = write!(s, ",\"d\":{},\"batch\":{batch}", device.0);
        }
        EventKind::ServedOnTime {
            query,
            latency,
            epoch,
        }
        | EventKind::ServedLate {
            query,
            latency,
            epoch,
        } => {
            let _ = write!(
                s,
                ",\"q\":{query},\"latency\":{},\"epoch\":{epoch}",
                latency.as_nanos()
            );
        }
        EventKind::Dropped { query, reason } => {
            let _ = write!(s, ",\"q\":{query},\"reason\":\"{}\"", reason.label());
        }
        EventKind::ModelLoadStarted {
            device,
            variant,
            until,
        } => {
            let _ = write!(s, ",\"d\":{},\"variant\":", device.0);
            match variant {
                Some(v) => {
                    let _ = write!(s, "\"{v}\"");
                }
                None => s.push_str("null"),
            }
            let _ = write!(s, ",\"until\":{}", until.as_nanos());
        }
        EventKind::ModelLoadFinished { device } => {
            let _ = write!(s, ",\"d\":{}", device.0);
        }
        EventKind::ReplanTriggered { cause } => {
            let _ = write!(s, ",\"cause\":\"{}\"", cause.label());
        }
        EventKind::PlanApplied { changed, shrink } => {
            let _ = write!(s, ",\"changed\":{changed},\"shrink\":{shrink}");
        }
        EventKind::SolveStats {
            nodes,
            pivots,
            warm_starts,
            wall_nanos,
        } => {
            let _ = write!(
                s,
                ",\"nodes\":{nodes},\"pivots\":{pivots},\"warm\":{warm_starts},\"wall\":{wall_nanos}"
            );
        }
        EventKind::AuditReport {
            violations,
            devices_checked,
            families_checked,
        } => {
            let _ = write!(
                s,
                ",\"violations\":{violations},\"devices\":{devices_checked},\"families\":{families_checked}"
            );
        }
        EventKind::WorkerCrashed { device } | EventKind::WorkerRecovered { device } => {
            let _ = write!(s, ",\"d\":{}", device.0);
        }
        EventKind::QueryRetried {
            query,
            from,
            attempt,
        } => {
            let _ = write!(
                s,
                ",\"q\":{query},\"from\":{},\"attempt\":{attempt}",
                from.0
            );
        }
        EventKind::LoadFailed {
            device,
            variant,
            attempt,
        } => {
            let _ = write!(s, ",\"d\":{},\"variant\":", device.0);
            match variant {
                Some(v) => {
                    let _ = write!(s, "\"{v}\"");
                }
                None => s.push_str("null"),
            }
            let _ = write!(s, ",\"attempt\":{attempt}");
        }
        EventKind::StragglerStarted { device, slowdown } => {
            let _ = write!(s, ",\"d\":{},\"slowdown\":{slowdown}", device.0);
        }
        EventKind::StragglerEnded { device } => {
            let _ = write!(s, ",\"d\":{}", device.0);
        }
        EventKind::AlertFired {
            scope,
            severity,
            burn,
            long_secs,
            short_secs,
        }
        | EventKind::AlertResolved {
            scope,
            severity,
            burn,
            long_secs,
            short_secs,
        } => {
            let _ = write!(s, ",\"scope\":");
            match scope {
                Some(f) => {
                    let _ = write!(s, "\"{}\"", f.label());
                }
                None => s.push_str("null"),
            }
            let _ = write!(
                s,
                ",\"severity\":\"{}\",\"burn\":{burn},\"long_s\":{long_secs},\"short_s\":{short_secs}",
                severity.label()
            );
        }
        EventKind::SolveStarted { cause, until } => {
            let _ = write!(
                s,
                ",\"cause\":\"{}\",\"until\":{}",
                cause.label(),
                until.as_nanos()
            );
        }
        EventKind::SolveComplete { cause } => {
            let _ = write!(s, ",\"cause\":\"{}\"", cause.label());
        }
        EventKind::PlanDiscarded { cause, reason } => {
            let _ = write!(
                s,
                ",\"cause\":\"{}\",\"reason\":\"{}\"",
                cause.label(),
                reason.label()
            );
        }
    }
    s.push('}');
}

/// A failure parsing a trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEventError {
    /// 1-based line number (0 when parsing a single line out of context).
    pub line: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for ParseEventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseEventError {}

/// A parsed JSON value of the subset the trace format uses. Strings
/// without escapes borrow from the input line.
#[derive(Debug, Clone, PartialEq)]
enum Val<'a> {
    Int(u64),
    Float(f64),
    Str(Cow<'a, str>),
    Arr(Vec<u64>),
    Null,
}

/// One line's `(key, value)` pairs, in input order.
type Fields<'a> = Vec<(Cow<'a, str>, Val<'a>)>;

/// Parses one JSONL line back into a [`TraceEvent`].
///
/// # Errors
///
/// Returns a [`ParseEventError`] (with `line` 0) on malformed input.
pub fn parse_line(text: &str) -> Result<TraceEvent, ParseEventError> {
    decode(text, &mut Vec::new())
}

fn err(reason: String) -> ParseEventError {
    ParseEventError { line: 0, reason }
}

/// Typed lookups into one line's fields. On a duplicate key the first
/// occurrence wins.
struct Line<'f, 'a>(&'f mut Fields<'a>);

impl<'a> Line<'_, 'a> {
    fn find(&self, key: &str) -> Option<&Val<'a>> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get(&self, key: &str) -> Result<&Val<'a>, ParseEventError> {
        self.find(key)
            .ok_or_else(|| err(format!("missing field `{key}`")))
    }

    fn int(&self, key: &str) -> Result<u64, ParseEventError> {
        match self.get(key)? {
            Val::Int(n) => Ok(*n),
            other => Err(err(format!("field `{key}` is not an integer: {other:?}"))),
        }
    }

    /// Optional integer: absent keys yield `None` so traces written before
    /// a field existed still parse (needed by `trace-query diff` across
    /// builds).
    fn opt_int(&self, key: &str) -> Result<Option<u64>, ParseEventError> {
        match self.find(key) {
            None | Some(Val::Null) => Ok(None),
            Some(Val::Int(n)) => Ok(Some(*n)),
            Some(other) => Err(err(format!("field `{key}` is not an integer: {other:?}"))),
        }
    }

    fn float(&self, key: &str) -> Result<f64, ParseEventError> {
        match self.get(key)? {
            Val::Float(x) => Ok(*x),
            Val::Int(n) => Ok(*n as f64),
            other => Err(err(format!("field `{key}` is not a number: {other:?}"))),
        }
    }

    fn str_(&self, key: &str) -> Result<&str, ParseEventError> {
        match self.get(key)? {
            Val::Str(s) => Ok(s.as_ref()),
            other => Err(err(format!("field `{key}` is not a string: {other:?}"))),
        }
    }

    /// A string field converted by `from_label`; `what` names the value
    /// in the error.
    fn labelled<T>(
        &self,
        key: &str,
        what: &str,
        from_label: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, ParseEventError> {
        let s = self.str_(key)?;
        from_label(s).ok_or_else(|| err(format!("unknown {what} `{s}`")))
    }

    fn time(&self, key: &str) -> Result<SimTime, ParseEventError> {
        Ok(SimTime::from_nanos(self.int(key)?))
    }

    fn device(&self) -> Result<DeviceId, ParseEventError> {
        Ok(DeviceId(self.int("d")? as u32))
    }

    fn model_family(&self, key: &str) -> Result<ModelFamily, ParseEventError> {
        self.str_(key)?.parse().map_err(|e| err(format!("{e}")))
    }

    fn variant(&self, key: &str) -> Result<VariantId, ParseEventError> {
        let s = self.str_(key)?;
        parse_variant(s).ok_or_else(|| err(format!("bad variant `{s}`")))
    }

    /// A string field read by `read`, or `None` for `null`.
    fn or_null<T>(
        &self,
        key: &str,
        read: impl FnOnce(&Self, &str) -> Result<T, ParseEventError>,
    ) -> Result<Option<T>, ParseEventError> {
        match self.get(key)? {
            Val::Null => Ok(None),
            Val::Str(_) => read(self, key).map(Some),
            other => Err(err(format!("`{key}` is not a string or null: {other:?}"))),
        }
    }

    /// Moves an integer array out of the fields.
    fn take_array(&mut self, key: &str) -> Result<Vec<u64>, ParseEventError> {
        match self.0.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v) {
            Some(Val::Arr(v)) => Ok(std::mem::take(v)),
            Some(other) => Err(err(format!("`{key}` is not an array: {other:?}"))),
            None => Err(err(format!("missing field `{key}`"))),
        }
    }
}

/// [`parse_line`] with a caller-owned field buffer, so a whole document
/// decodes without allocating one per line.
fn decode<'a>(text: &'a str, fields: &mut Fields<'a>) -> Result<TraceEvent, ParseEventError> {
    parse_object(text, fields).map_err(err)?;
    let mut f = Line(fields);
    let at = f.time("t")?;
    let ev = f.str_("ev")?;
    let kind = match ev {
        "worker_online" => EventKind::WorkerOnline {
            device: f.device()?,
            device_type: f.labelled("type", "device type", parse_device_type)?,
        },
        "arrived" => EventKind::Arrived {
            query: f.int("q")?,
            family: f.model_family("family")?,
        },
        "routed" => EventKind::Routed {
            query: f.int("q")?,
            device: f.device()?,
        },
        "enqueued" => EventKind::Enqueued {
            query: f.int("q")?,
            device: f.device()?,
            depth: f.int("depth")? as u32,
            behind: f.opt_int("behind")?,
        },
        "batch_formed" => EventKind::BatchFormed {
            device: f.device()?,
            batch: f.int("batch")?,
            queries: f.take_array("queries")?,
        },
        "exec_started" => EventKind::ExecStarted {
            device: f.device()?,
            batch: f.int("batch")?,
            variant: f.variant("variant")?,
            size: f.int("size")? as u32,
            until: f.time("until")?,
        },
        "exec_completed" => EventKind::ExecCompleted {
            device: f.device()?,
            batch: f.int("batch")?,
        },
        "served_on_time" => EventKind::ServedOnTime {
            query: f.int("q")?,
            latency: f.time("latency")?,
            epoch: f.opt_int("epoch")?.unwrap_or(0),
        },
        "served_late" => EventKind::ServedLate {
            query: f.int("q")?,
            latency: f.time("latency")?,
            epoch: f.opt_int("epoch")?.unwrap_or(0),
        },
        "dropped" => EventKind::Dropped {
            query: f.int("q")?,
            reason: f.labelled("reason", "drop reason", DropReason::parse)?,
        },
        "model_load_started" => EventKind::ModelLoadStarted {
            device: f.device()?,
            variant: f.or_null("variant", Line::variant)?,
            until: f.time("until")?,
        },
        "model_load_finished" => EventKind::ModelLoadFinished {
            device: f.device()?,
        },
        "replan_triggered" => EventKind::ReplanTriggered {
            cause: f.labelled("cause", "replan cause", ReplanCause::parse)?,
        },
        "plan_applied" => EventKind::PlanApplied {
            changed: f.int("changed")? as u32,
            shrink: f.float("shrink")?,
        },
        "solve_stats" => EventKind::SolveStats {
            nodes: f.int("nodes")?,
            pivots: f.int("pivots")?,
            warm_starts: f.int("warm")?,
            wall_nanos: f.int("wall")?,
        },
        "audit_report" => EventKind::AuditReport {
            violations: f.int("violations")? as u32,
            devices_checked: f.int("devices")? as u32,
            families_checked: f.int("families")? as u32,
        },
        "worker_crashed" => EventKind::WorkerCrashed {
            device: f.device()?,
        },
        "worker_recovered" => EventKind::WorkerRecovered {
            device: f.device()?,
        },
        "query_retried" => EventKind::QueryRetried {
            query: f.int("q")?,
            from: DeviceId(f.int("from")? as u32),
            attempt: f.int("attempt")? as u32,
        },
        "load_failed" => EventKind::LoadFailed {
            device: f.device()?,
            variant: f.or_null("variant", Line::variant)?,
            attempt: f.int("attempt")? as u32,
        },
        "straggler_started" => EventKind::StragglerStarted {
            device: f.device()?,
            slowdown: f.float("slowdown")?,
        },
        "straggler_ended" => EventKind::StragglerEnded {
            device: f.device()?,
        },
        "alert_fired" | "alert_resolved" => {
            let scope = f.or_null("scope", Line::model_family)?;
            let severity = f.labelled("severity", "alert severity", AlertSeverity::parse)?;
            let burn = f.float("burn")?;
            let long_secs = f.float("long_s")?;
            let short_secs = f.float("short_s")?;
            if ev == "alert_fired" {
                EventKind::AlertFired {
                    scope,
                    severity,
                    burn,
                    long_secs,
                    short_secs,
                }
            } else {
                EventKind::AlertResolved {
                    scope,
                    severity,
                    burn,
                    long_secs,
                    short_secs,
                }
            }
        }
        "solve_started" | "solve_complete" | "plan_discarded" => {
            let cause = f.labelled("cause", "replan cause", ReplanCause::parse)?;
            match ev {
                "solve_started" => EventKind::SolveStarted {
                    cause,
                    until: f.time("until")?,
                },
                "solve_complete" => EventKind::SolveComplete { cause },
                _ => EventKind::PlanDiscarded {
                    cause,
                    reason: f.labelled("reason", "discard reason", DiscardReason::parse)?,
                },
            }
        }
        other => return Err(err(format!("unknown event type `{other}`"))),
    };
    Ok(TraceEvent { at, kind })
}

/// Parses a whole JSONL document (blank lines skipped).
///
/// A final line that does not end in a newline and does not parse was cut
/// mid-write by a recorder that died; it is skipped, so the trace of a
/// crashed run can still be read. [`parse_jsonl_torn`] also reports it.
///
/// # Errors
///
/// Returns the first malformed newline-terminated line with its 1-based
/// line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, ParseEventError> {
    parse_jsonl_torn(text).map(|(events, _)| events)
}

/// [`parse_jsonl`], also returning the parse error of the torn final line
/// it skipped, if there was one.
///
/// # Errors
///
/// Returns the first malformed newline-terminated line with its 1-based
/// line number.
pub fn parse_jsonl_torn(
    text: &str,
) -> Result<(Vec<TraceEvent>, Option<ParseEventError>), ParseEventError> {
    let mut events = Vec::new();
    // One field buffer for the whole document: each line clears and
    // refills it.
    let mut fields = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, line)) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        match decode(line, &mut fields) {
            Ok(event) => events.push(event),
            Err(mut e) => {
                e.line = idx + 1;
                // Only the last line, with no newline after it, can have
                // been cut short by the writer.
                if lines.peek().is_none() && !text.ends_with('\n') {
                    return Ok((events, Some(e)));
                }
                return Err(e);
            }
        }
    }
    Ok((events, None))
}

/// Parses `Family#index` (the `Display` form of [`VariantId`]).
fn parse_variant(s: &str) -> Option<VariantId> {
    let (family, index) = s.rsplit_once('#')?;
    Some(VariantId {
        family: family.parse().ok()?,
        index: index.parse().ok()?,
    })
}

/// Parses a device-type label (the `Display` form of `DeviceType`).
fn parse_device_type(s: &str) -> Option<proteus_profiler::DeviceType> {
    proteus_profiler::DeviceType::ALL
        .into_iter()
        .find(|t| t.label() == s)
}

/// Parses a flat JSON object into `(key, value)` pairs, replacing the
/// contents of `fields`.
fn parse_object<'a>(text: &'a str, fields: &mut Fields<'a>) -> Result<(), String> {
    fields.clear();
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect_byte(b'{')?;
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect_byte(b':')?;
            p.skip_ws();
            let value = p.value()?;
            fields.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing characters after object".into());
    }
    Ok(())
}

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected `{}`, got {other:?}", want as char)),
        }
    }

    /// Parses a string literal. Each step finds the next `"` or `\` in one
    /// scan; without escapes the value is a slice of the input. Both bytes
    /// are ASCII, so every position the scan stops at is a character
    /// boundary.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect_byte(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let rest = self.bytes.get(self.pos..).unwrap_or_default();
            let stop = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            let run = &self.text[self.pos..self.pos + stop];
            self.pos += stop + 1;
            if rest[stop] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut s) => {
                        s.push_str(run);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(run);
            s.push(self.escape()?);
        }
    }

    /// Decodes the escape after a backslash, including `\uXXXX` and
    /// UTF-16 surrogate pairs.
    fn escape(&mut self) -> Result<char, String> {
        Ok(match self.next() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let unit = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&unit) {
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(format!("unpaired surrogate \\u{unit:04x}"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(format!("unpaired surrogate \\u{unit:04x}"));
                    }
                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    unit
                };
                char::from_u32(code).ok_or_else(|| format!("unpaired surrogate \\u{code:04x}"))?
            }
            other => return Err(format!("unsupported escape {other:?}")),
        })
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or("`\\u` needs four hex digits")?;
        self.pos += 4;
        Ok(digits.iter().fold(0, |acc, &d| {
            acc * 16 + char::from(d).to_digit(16).unwrap_or(0)
        }))
    }

    /// Parses a number token. An all-digit token is decoded as a `u64` in
    /// the pass that scans it (`None` once it overflows); only a token with
    /// a sign, point or exponent goes to the float parser.
    fn number(&mut self) -> Result<Val<'a>, String> {
        let start = self.pos;
        let mut int = Some(0u64);
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    int = int
                        .and_then(|n| n.checked_mul(10))
                        .and_then(|n| n.checked_add(u64::from(b - b'0')));
                }
                b'-' | b'+' | b'.' | b'e' | b'E' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.is_empty() {
            return Err("expected a number".into());
        }
        if float {
            text.parse::<f64>()
                .map(Val::Float)
                .map_err(|_| format!("bad number `{text}`"))
        } else {
            int.map(Val::Int)
                .ok_or_else(|| format!("bad integer `{text}`"))
        }
    }

    fn value(&mut self) -> Result<Val<'a>, String> {
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b'n') => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(Val::Null)
                } else {
                    Err("expected `null`".into())
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Val::Arr(items));
                }
                loop {
                    self.skip_ws();
                    match self.number()? {
                        Val::Int(n) => items.push(n),
                        other => return Err(format!("array item is not an integer: {other:?}")),
                    }
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Val::Arr(items)),
                        other => return Err(format!("expected `,` or `]`, got {other:?}")),
                    }
                }
            }
            _ => self.number(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_profiler::DeviceType;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn all_kinds() -> Vec<TraceEvent> {
        let v = VariantId {
            family: ModelFamily::ResNet,
            index: 2,
        };
        let kinds = vec![
            EventKind::WorkerOnline {
                device: DeviceId(3),
                device_type: DeviceType::V100,
            },
            EventKind::Arrived {
                query: 17,
                family: ModelFamily::Gpt2,
            },
            EventKind::Routed {
                query: 17,
                device: DeviceId(3),
            },
            EventKind::Enqueued {
                query: 17,
                device: DeviceId(3),
                depth: 4,
                behind: None,
            },
            EventKind::Enqueued {
                query: 18,
                device: DeviceId(3),
                depth: 5,
                behind: Some(8),
            },
            EventKind::BatchFormed {
                device: DeviceId(3),
                batch: 9,
                queries: vec![15, 16, 17],
            },
            EventKind::BatchFormed {
                device: DeviceId(3),
                batch: 10,
                queries: vec![],
            },
            EventKind::ExecStarted {
                device: DeviceId(3),
                batch: 9,
                variant: v,
                size: 3,
                until: t(120),
            },
            EventKind::ExecCompleted {
                device: DeviceId(3),
                batch: 9,
            },
            EventKind::ServedOnTime {
                query: 17,
                latency: t(45),
                epoch: 2,
            },
            EventKind::ServedLate {
                query: 16,
                latency: t(450),
                epoch: 0,
            },
            EventKind::Dropped {
                query: 15,
                reason: DropReason::Expired,
            },
            EventKind::ModelLoadStarted {
                device: DeviceId(3),
                variant: Some(v),
                until: t(2000),
            },
            EventKind::ModelLoadStarted {
                device: DeviceId(3),
                variant: None,
                until: t(2000),
            },
            EventKind::ModelLoadFinished {
                device: DeviceId(3),
            },
            EventKind::ReplanTriggered {
                cause: ReplanCause::Burst,
            },
            EventKind::PlanApplied {
                changed: 5,
                shrink: 1.25,
            },
            EventKind::SolveStats {
                nodes: 12,
                pivots: 340,
                warm_starts: 11,
                wall_nanos: 1_500_000,
            },
            EventKind::AuditReport {
                violations: 0,
                devices_checked: 9,
                families_checked: 9,
            },
            EventKind::WorkerCrashed {
                device: DeviceId(3),
            },
            EventKind::WorkerRecovered {
                device: DeviceId(3),
            },
            EventKind::QueryRetried {
                query: 17,
                from: DeviceId(3),
                attempt: 2,
            },
            EventKind::LoadFailed {
                device: DeviceId(3),
                variant: Some(v),
                attempt: 1,
            },
            EventKind::LoadFailed {
                device: DeviceId(3),
                variant: None,
                attempt: 3,
            },
            EventKind::StragglerStarted {
                device: DeviceId(3),
                slowdown: 2.5,
            },
            EventKind::StragglerEnded {
                device: DeviceId(3),
            },
            EventKind::Dropped {
                query: 14,
                reason: DropReason::DeviceFailed,
            },
            EventKind::AlertFired {
                scope: Some(ModelFamily::ResNet),
                severity: AlertSeverity::Page,
                burn: 14.62,
                long_secs: 300.0,
                short_secs: 60.0,
            },
            EventKind::AlertFired {
                scope: None,
                severity: AlertSeverity::Ticket,
                burn: 6.0078125,
                long_secs: 900.0,
                short_secs: 300.0,
            },
            EventKind::AlertResolved {
                scope: None,
                severity: AlertSeverity::Page,
                burn: 0.25,
                long_secs: 300.0,
                short_secs: 60.0,
            },
            EventKind::SolveStarted {
                cause: ReplanCause::Periodic,
                until: t(34_200),
            },
            EventKind::SolveComplete {
                cause: ReplanCause::Periodic,
            },
            EventKind::PlanDiscarded {
                cause: ReplanCause::Burst,
                reason: DiscardReason::Liveness,
            },
            EventKind::PlanDiscarded {
                cause: ReplanCause::Periodic,
                reason: DiscardReason::Superseded,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                at: t(i as u64),
                kind,
            })
            .collect()
    }

    #[test]
    fn every_kind_round_trips() {
        for event in all_kinds() {
            let line = to_jsonl(&event);
            let back = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, event, "{line}");
        }
    }

    #[test]
    fn document_round_trips_with_blank_lines() {
        let events = all_kinds();
        let mut doc = String::new();
        for e in &events {
            doc.push_str(&to_jsonl(e));
            doc.push('\n');
        }
        doc.push('\n'); // trailing blank line is tolerated
        assert_eq!(parse_jsonl(&doc).unwrap(), events);
    }

    #[test]
    fn shrink_float_round_trips_exactly() {
        let event = TraceEvent {
            at: t(1),
            kind: EventKind::PlanApplied {
                changed: 0,
                shrink: 1.0526315789473684,
            },
        };
        assert_eq!(parse_line(&to_jsonl(&event)).unwrap(), event);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let good = to_jsonl(&all_kinds()[0]);
        let doc = format!("{good}\nnot json\n");
        let err = parse_jsonl(&doc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{}",
            "{\"t\":1}",
            "{\"t\":1,\"ev\":\"nope\"}",
            "{\"t\":1,\"ev\":\"arrived\",\"q\":1}",
            "{\"t\":1,\"ev\":\"arrived\",\"q\":1,\"family\":\"NopeNet\"}",
            "{\"t\":1,\"ev\":\"dropped\",\"q\":1,\"reason\":\"sunspots\"}",
            "{\"t\":1,\"ev\":\"arrived\",\"q\":1,\"family\":\"ResNet\"}x",
        ] {
            assert!(parse_line(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// `s` as a JSON string literal: raw UTF-8 with only the required
    /// escapes, or with every non-ASCII character as `\u` UTF-16 units.
    fn quote(s: &str, ascii_only: bool) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if c.is_control() || (ascii_only && !c.is_ascii()) => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        let _ = write!(out, "\\u{unit:04x}");
                    }
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn object(text: &str) -> Result<Fields<'_>, String> {
        let mut fields = Vec::new();
        parse_object(text, &mut fields).map(|()| fields)
    }

    #[test]
    fn non_ascii_strings_round_trip() {
        for value in [
            "ResNet",
            "Gr\u{fc}\u{df}e, \u{e9}t\u{e9}",
            "\u{65e5}\u{672c}\u{8a9e} \u{1f680}",
            "quote \" slash \\ tab \t bell \u{7} nl \n",
            "",
        ] {
            for ascii_only in [false, true] {
                let text = format!("{{\"k\":{}}}", quote(value, ascii_only));
                let fields = object(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
                assert_eq!(fields, [("k".into(), Val::Str(value.into()))], "{text}");
            }
        }
        // The remaining escapes and a surrogate pair.
        let fields = object("{\"k\":\"\\/\\b\\f\\r\\ud83d\\ude80\"}").unwrap();
        assert_eq!(fields[0].1, Val::Str("/\u{8}\u{c}\r\u{1f680}".into()));
        for bad in [
            "{\"k\":\"\\ud83d\"}",
            "{\"k\":\"\\ude80\"}",
            "{\"k\":\"\\u12\"}",
            "{\"k\":\"\\x\"}",
            "{\"k\":\"open}",
        ] {
            assert!(object(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn error_messages_keep_non_ascii_text() {
        let err = parse_line("{\"t\":1,\"ev\":\"ank\u{f6}mmling \u{2713}\"}").unwrap_err();
        assert_eq!(err.reason, "unknown event type `ank\u{f6}mmling \u{2713}`");
        let err = parse_line("{\"t\":1,\"ev\":\"arrived\",\"q\":1,\"family\":\"R\u{e9}sNet\"}")
            .unwrap_err();
        assert!(err.reason.contains("R\u{e9}sNet"), "{}", err.reason);
    }

    #[test]
    fn torn_final_line_is_skipped_and_reported() {
        let events = all_kinds();
        let mut doc: String = events.iter().map(|e| to_jsonl(e) + "\n").collect();
        let last = to_jsonl(&events[0]);
        doc.push_str(&last[..last.len() / 2]);
        let (parsed, torn) = parse_jsonl_torn(&doc).unwrap();
        assert_eq!(parsed, events);
        assert_eq!(torn.map(|e| e.line), Some(events.len() + 1));
        assert_eq!(parse_jsonl(&doc).unwrap(), events);
        // A complete final line without its newline still counts.
        let whole = format!(
            "{doc_ok}{last}",
            doc_ok = &doc[..doc.rfind('\n').unwrap() + 1]
        );
        let (parsed, torn) = parse_jsonl_torn(&whole).unwrap();
        assert_eq!(parsed.len(), events.len() + 1);
        assert!(torn.is_none());
    }

    #[test]
    fn every_prefix_of_a_line_parses_or_errors() {
        // What a torn write can leave behind: no prefix may panic.
        let mut lines: Vec<String> = all_kinds().iter().map(to_jsonl).collect();
        lines.push("{\"t\":1,\"ev\":\"\u{fc}\\u00e9\\ud83d\\ude80\u{1f680}\"}".to_string());
        for line in &lines {
            for end in (0..=line.len()).filter(|&i| line.is_char_boundary(i)) {
                let prefix = &line[..end];
                if end < line.len() {
                    assert!(parse_line(prefix).is_err(), "{prefix}");
                }
            }
        }
    }

    #[test]
    fn malformed_newline_terminated_final_line_is_an_error() {
        let good = to_jsonl(&all_kinds()[0]);
        let doc = format!("{good}\n{}\n", &good[..good.len() / 2]);
        assert_eq!(parse_jsonl(&doc).unwrap_err().line, 2);
        assert_eq!(parse_jsonl_torn(&doc).unwrap_err().line, 2);
    }

    #[test]
    fn malformed_middle_line_is_an_error_even_with_a_torn_tail() {
        let good = to_jsonl(&all_kinds()[0]);
        let doc = format!("{good}\nnot json\n{good}\n{}", &good[..5]);
        assert_eq!(parse_jsonl(&doc).unwrap_err().line, 2);
        assert_eq!(parse_jsonl_torn(&doc).unwrap_err().line, 2);
    }

    #[test]
    fn pre_causal_link_lines_still_parse() {
        // Traces written before `behind`/`epoch` existed must stay readable
        // so `trace-query diff` can align runs across builds.
        let enq = parse_line("{\"t\":1,\"ev\":\"enqueued\",\"q\":7,\"d\":2,\"depth\":1}").unwrap();
        assert_eq!(
            enq.kind,
            EventKind::Enqueued {
                query: 7,
                device: DeviceId(2),
                depth: 1,
                behind: None,
            }
        );
        let served =
            parse_line("{\"t\":2,\"ev\":\"served_on_time\",\"q\":7,\"latency\":5}").unwrap();
        assert_eq!(
            served.kind,
            EventKind::ServedOnTime {
                query: 7,
                latency: SimTime::from_nanos(5),
                epoch: 0,
            }
        );
    }

    fn arrived(query: u64) -> EventKind {
        EventKind::Arrived {
            query,
            family: ModelFamily::ResNet,
        }
    }

    #[test]
    fn duplicate_keys_keep_the_first_occurrence() {
        let e = parse_line(
            "{\"t\":1,\"ev\":\"arrived\",\"q\":5,\"q\":6,\"family\":\"ResNet\",\"t\":9}",
        )
        .unwrap();
        assert_eq!(
            e,
            TraceEvent {
                at: SimTime::from_nanos(1),
                kind: arrived(5)
            }
        );
        // The first value is used even when a later duplicate would parse.
        let err =
            parse_line("{\"t\":1,\"ev\":\"arrived\",\"q\":\"x\",\"q\":6,\"family\":\"ResNet\"}")
                .unwrap_err();
        assert_eq!(err.reason, "field `q` is not an integer: Str(\"x\")");
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let e = parse_line(
            "{\"zz\":\"x\",\"t\":1,\"extra\":[1,2],\"ev\":\"arrived\",\"n\":null,\
             \"q\":5,\"f\":-1.5e3,\"family\":\"ResNet\",\"esc\":\"a\\nb\"}",
        )
        .unwrap();
        assert_eq!(
            e,
            TraceEvent {
                at: SimTime::from_nanos(1),
                kind: arrived(5)
            }
        );
    }

    #[test]
    fn keys_in_any_order_with_whitespace_parse() {
        let e = parse_line(
            " \t{ \"family\" : \"ResNet\" ,\t\"q\":\r5 , \"ev\" :\"arrived\",\"t\" : 1 } \r",
        )
        .unwrap();
        assert_eq!(
            e,
            TraceEvent {
                at: SimTime::from_nanos(1),
                kind: arrived(5)
            }
        );
        let e = parse_line(
            "{\"queries\" : [ 4 , 5,6 ] ,\"batch\":2, \"d\":1,\"ev\":\"batch_formed\",\"t\":3}",
        )
        .unwrap();
        assert_eq!(
            e.kind,
            EventKind::BatchFormed {
                device: DeviceId(1),
                batch: 2,
                queries: vec![4, 5, 6],
            }
        );
    }

    #[test]
    fn integers_past_u64_fail_with_bad_integer() {
        let max = format!(
            "{{\"t\":{},\"ev\":\"arrived\",\"q\":0,\"family\":\"ResNet\"}}",
            u64::MAX
        );
        assert_eq!(parse_line(&max).unwrap().at.as_nanos(), u64::MAX);
        for text in [
            "{\"t\":18446744073709551616,\"ev\":\"arrived\",\"q\":0,\"family\":\"ResNet\"}",
            "{\"t\":1,\"ev\":\"batch_formed\",\"d\":0,\"batch\":1,\"queries\":[1,18446744073709551616]}",
        ] {
            let err = parse_line(text).unwrap_err();
            assert_eq!(err.reason, "bad integer `18446744073709551616`", "{text}");
        }
        // Signs, fractions and exponents make a float, which no id field takes.
        let err =
            parse_line("{\"t\":1,\"ev\":\"arrived\",\"q\":1e3,\"family\":\"ResNet\"}").unwrap_err();
        assert_eq!(err.reason, "field `q` is not an integer: Float(1000.0)");
        let err =
            parse_line("{\"t\":1,\"ev\":\"arrived\",\"q\":1-,\"family\":\"ResNet\"}").unwrap_err();
        assert_eq!(err.reason, "bad number `1-`");
    }

    #[test]
    fn non_array_queries_is_an_error() {
        for (value, shown) in [
            ("5", "Int(5)"),
            ("null", "Null"),
            ("\"1,2\"", "Str(\"1,2\")"),
        ] {
            let text = format!(
                "{{\"t\":1,\"ev\":\"batch_formed\",\"d\":0,\"batch\":1,\"queries\":{value}}}"
            );
            let err = parse_line(&text).unwrap_err();
            assert_eq!(
                err.reason,
                format!("`queries` is not an array: {shown}"),
                "{text}"
            );
        }
        let err =
            parse_line("{\"t\":1,\"ev\":\"batch_formed\",\"d\":0,\"batch\":1,\"queries\":[1.5]}")
                .unwrap_err();
        assert_eq!(err.reason, "array item is not an integer: Float(1.5)");
    }

    #[test]
    fn escaped_string_then_plain_string_both_decode() {
        let e = parse_line(
            "{\"t\":1,\"ev\":\"alert_fired\",\"scope\":\"Res\\u004eet\",\"severity\":\"page\",\
             \"burn\":1.5,\"long_s\":300,\"short_s\":60}",
        )
        .unwrap();
        assert_eq!(
            e.kind,
            EventKind::AlertFired {
                scope: Some(ModelFamily::ResNet),
                severity: AlertSeverity::Page,
                burn: 1.5,
                long_secs: 300.0,
                short_secs: 60.0,
            }
        );
        // Escaped key, then plain key and value; escaped value, then plain.
        let e =
            parse_line("{\"\\u0074\":1,\"ev\":\"arr\\u0069ved\",\"q\":5,\"family\":\"ResNet\"}")
                .unwrap();
        assert_eq!(
            e,
            TraceEvent {
                at: SimTime::from_nanos(1),
                kind: arrived(5)
            }
        );
        let err = parse_line("{\"t\":1,\"ev\":\"a\\\"b\\\\\",\"q\":\"plain\"}").unwrap_err();
        assert_eq!(err.reason, "unknown event type `a\"b\\`");
    }

    #[test]
    fn error_texts_are_stable() {
        for (text, reason) in [
            ("", "expected `{`, got None"),
            ("{\"t\":1", "expected `,` or `}`, got None"),
            ("{\"t\":1,\"ev\":\"arrived\"}", "missing field `q`"),
            ("{\"t\":\"1\"}", "field `t` is not an integer: Str(\"1\")"),
            ("{\"t\":1,\"ev\":2}", "field `ev` is not a string: Int(2)"),
            (
                "{\"t\":1,\"ev\":\"plan_applied\",\"changed\":1,\"shrink\":\"x\"}",
                "field `shrink` is not a number: Str(\"x\")",
            ),
            (
                "{\"t\":1,\"ev\":\"exec_started\",\"d\":0,\"batch\":1,\"variant\":\"ResNet\",\"size\":1,\"until\":2}",
                "bad variant `ResNet`",
            ),
            (
                "{\"t\":1,\"ev\":\"load_failed\",\"d\":0,\"variant\":3,\"attempt\":1}",
                "`variant` is not a string or null: Int(3)",
            ),
            ("{\"t\":1,\"ev\":\"arrived\",\"q\":x}", "expected a number"),
            ("{\"t\":1,\"ev\":\"arrived\",\"q\":nul}", "expected `null`"),
            ("{\"t\":1,\"ev\":\"arr", "unterminated string"),
            ("{\"t\":1} {", "trailing characters after object"),
            ("{\"t\":1,\"ev\":[1 2]}", "expected `,` or `]`, got Some(50)"),
        ] {
            assert_eq!(parse_line(text).unwrap_err().reason, reason, "{text}");
        }
    }

    #[test]
    fn integer_timestamps_survive_beyond_f64_precision() {
        let nanos = (1u64 << 53) + 1; // not representable as f64
        let event = TraceEvent {
            at: SimTime::from_nanos(nanos),
            kind: EventKind::ModelLoadFinished {
                device: DeviceId(0),
            },
        };
        let back = parse_line(&to_jsonl(&event)).unwrap();
        assert_eq!(back.at.as_nanos(), nanos);
    }
}
