//! Self-contained counterexample artifacts and the replay-side JSON reader.
//!
//! When a scenario reports a violation, `scl-check --artifacts DIR` replays
//! the violating schedule once (through the scenario's own runner, so every
//! per-scenario config override is honoured) and writes the decoded
//! [`ReplayLog`] as one JSON document: the raw schedule, the configuration
//! provenance needed to rebuild the run, and the per-tick transitions with
//! their exact labels, emissions and the reversible racing pairs. The file
//! is self-contained — `scl-check replay trace.json` needs nothing else to
//! re-execute the schedule deterministically, assert the recorded verdict
//! reproduces, and render the interleaving.
//!
//! Everything is hand-rolled: the workspace builds offline without serde, so
//! this module carries its own small recursive-descent JSON parser
//! ([`parse_json`]) — also used by the test-suite to guard the
//! well-formedness of every document the tool emits.

use crate::scenarios::{
    cli_name, crashed_pending_values, parse_crashed_pending, parse_reduction, reduction_cli_name,
    CheckConfig,
};
use scl_sim::{Footprint, ReplayLog, ReplayTick, StepKind, TickEmission};
use scl_spec::ProcessId;

/// A minimal JSON value: just enough to read artifacts back and to let
/// tests assert well-formedness of emitted documents.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (artifacts only use integers within `f64`'s exact range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Artifacts never emit surrogate pairs (only control
                        // characters are \u-escaped); reject rather than
                        // silently mangle.
                        out.push(
                            char::from_u32(code).ok_or(format!("invalid \\u escape {code:04x}"))?,
                        );
                        *pos += 4;
                    }
                    other => return Err(format!("invalid escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so byte
                // boundaries are trustworthy).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// The replayable core of a counterexample artifact: everything `scl-check
/// replay` needs to rebuild the run. The decoded tick log in the file is
/// explanatory output — replay re-derives it from scratch, which is exactly
/// the point.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The scenario the violation came from.
    pub scenario: String,
    /// The recorded verdict message.
    pub message: String,
    /// The violating schedule (raw pseudo-process ids).
    pub schedule: Vec<ProcessId>,
    /// The configuration of the original run, as far as the artifact
    /// records it: reduction, resume mode, checker, crash closure, schedule
    /// budget, tick limit, drop and restart budgets. Replays run
    /// sequentially and without an observer; scenario runners re-apply
    /// their own overrides on top.
    pub config: CheckConfig,
}

impl Artifact {
    /// Parses an artifact document (as written by [`artifact_json`]).
    pub fn from_json(text: &str) -> Result<Artifact, String> {
        let doc = parse_json(text)?;
        let str_field = |key: &str| -> Result<&str, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .ok_or(format!("artifact is missing string field `{key}`"))
        };
        let config = doc
            .get("config")
            .ok_or("artifact is missing `config`".to_string())?;
        let cfg_str = |key: &str| -> Result<&str, String> {
            config
                .get(key)
                .and_then(Json::as_str)
                .ok_or(format!("artifact config is missing string field `{key}`"))
        };
        let cfg_num = |key: &str| -> Result<u64, String> {
            config
                .get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("artifact config is missing integer field `{key}`"))
        };
        let schedule = doc
            .get("schedule")
            .and_then(Json::as_arr)
            .ok_or("artifact is missing `schedule`".to_string())?
            .iter()
            .map(|v| v.as_u64().map(|id| ProcessId(id as usize)))
            .collect::<Option<Vec<ProcessId>>>()
            .ok_or("artifact schedule must be an array of integers".to_string())?;
        // Artifacts written before the checker and resume knobs were removed
        // also carry `checker` and `resume`; a replay ignores both. Older
        // artifacts name source DPOR `source-dpor-lin` too.
        let reduction_text = match cfg_str("reduction")? {
            "source-dpor-lin" => "source-dpor",
            text => text,
        };
        let crashed_text = cfg_str("crashed_pending")?;
        let mut run = CheckConfig {
            crashed_pending: parse_crashed_pending(crashed_text)
                .ok_or(format!("unknown crashed_pending `{crashed_text}`"))?,
            ..CheckConfig::default()
        };
        let explore = &mut run.explore;
        explore.reduction = parse_reduction(reduction_text)
            .ok_or(format!("unknown reduction `{reduction_text}`"))?;
        explore.max_schedules = cfg_num("max_schedules")?;
        explore.max_ticks = cfg_num("max_ticks")?;
        explore.max_drops = cfg_num("max_drops")? as usize;
        explore.max_recoveries = cfg_num("max_recoveries")? as usize;
        Ok(Artifact {
            scenario: str_field("scenario")?.to_string(),
            message: str_field("message")?.to_string(),
            schedule,
            config: run,
        })
    }
}

/// Renders a counterexample as a self-contained artifact document. It
/// records CLI names (not the underscored report names), so the reader's
/// `parse_*` calls round-trip them.
pub fn artifact_json(
    scenario: &str,
    config: &CheckConfig,
    message: &str,
    schedule: &[ProcessId],
    log: &ReplayLog,
) -> String {
    let sched: Vec<String> = schedule.iter().map(|p| p.index().to_string()).collect();
    let ticks: Vec<String> = log
        .ticks
        .iter()
        .map(|t| {
            format!(
                "    {{\"id\": {}, \"kind\": {}, \"proc\": {}, \"footprint\": {}, \"emission\": \
                 {}}}",
                t.id.index(),
                crate::json_string(&t.kind.describe()),
                tick_proc(t),
                crate::json_string(&footprint_str(&t.label.footprint)),
                crate::json_string(&emission_str(&t.emission)),
            )
        })
        .collect();
    let races: Vec<String> = log
        .races
        .iter()
        .map(|(a, b)| format!("[{a}, {b}]"))
        .collect();
    let crashed: Vec<String> = log.crashed.iter().map(|c| c.to_string()).collect();
    let restarted: Vec<String> = log.restarted.iter().map(|c| c.to_string()).collect();
    format!(
        "{{\n  \"tool\": \"scl-check\",\n  \"kind\": \"counterexample\",\n  \"scenario\": {},\n  \
         \"message\": {},\n  \"schedule\": [{}],\n  \"config\": {{\"reduction\": \"{}\", \
         \"crashed_pending\": \"{}\", \"max_schedules\": {}, \"max_ticks\": {}, \"max_drops\": \
         {}, \"max_recoveries\": {}}},\n  \"processes\": {},\n  \"net_cap\": {},\n  \"completed\": {},\n  \"crashed\": \
         [{}],\n  \"restarted\": [{}],\n  \"races\": [{}],\n  \"ticks\": [\n{}\n  ]\n}}\n",
        crate::json_string(scenario),
        crate::json_string(message),
        sched.join(", "),
        reduction_cli_name(config.explore.reduction),
        cli_name(crashed_pending_values(), config.crashed_pending),
        config.explore.max_schedules,
        config.explore.max_ticks,
        config.explore.max_drops,
        config.explore.max_recoveries,
        log.processes,
        log.net_cap,
        log.completed,
        crashed.join(", "),
        restarted.join(", "),
        races.join(", "),
        ticks.join(",\n"),
    )
}

/// The process a transition belongs to: the stepping, crashing or
/// restarting process, and for a delivery or drop the owner of the message
/// (its happens-before thread is the message's slot, not a process).
fn tick_proc(t: &ReplayTick) -> usize {
    match t.emission {
        TickEmission::Delivered { owner, .. } | TickEmission::Dropped { owner, .. } => {
            owner.index()
        }
        _ => t.label.proc.index(),
    }
}

/// One cell of the interleaving diagram: what the transition did, in the
/// column of the process it belongs to.
fn tick_cell(t: &ReplayTick) -> String {
    let action = match t.kind {
        StepKind::Step(_) => footprint_str(&t.label.footprint),
        StepKind::Crash(_) => "CRASH".to_string(),
        StepKind::Deliver(s) => format!("deliver s{s}"),
        StepKind::Drop(s) => format!("DROP s{s}"),
        StepKind::Restart(_) => "RESTART".to_string(),
    };
    let mark = match t.emission {
        TickEmission::Invoked { op_index } => format!(" [invoke op{op_index}]"),
        TickEmission::Committed { op_index } => format!(" [commit op{op_index}]"),
        TickEmission::Aborted { op_index } => format!(" [abort op{op_index}]"),
        TickEmission::Crashed { op_index: Some(i) } => format!(" [op{i} left pending]"),
        TickEmission::Restarted {
            op_index: Some(i), ..
        } => format!(" [op{i} latent]"),
        TickEmission::Recovered {
            op_index: Some(i),
            resolved,
        } => {
            if resolved {
                format!(" [recovery committed op{i}]")
            } else {
                format!(" [recovery abandoned op{i}]")
            }
        }
        TickEmission::Recovered { op_index: None, .. } => " [recovered]".to_string(),
        TickEmission::Crashed { op_index: None }
        | TickEmission::Restarted { op_index: None }
        | TickEmission::Delivered { .. }
        | TickEmission::Dropped { .. }
        | TickEmission::None => String::new(),
    };
    format!("{action}{mark}")
}

/// Renders a [`ReplayLog`] as a per-process interleaving diagram: one row
/// per tick, one column per process, the transition printed in the column of
/// the process it belongs to (crash pseudo-steps under the crashed process,
/// network transitions under the owner of the message). Racing tick pairs
/// and crashed processes are footnoted.
pub fn render_interleaving(log: &ReplayLog) -> String {
    let cells: Vec<(usize, String)> = log
        .ticks
        .iter()
        .map(|t| (tick_proc(t).min(log.processes), tick_cell(t)))
        .collect();
    let mut widths = vec![4; log.processes + 1]; // "p{i}" headers; last = overflow
    for (col, cell) in &cells {
        widths[*col] = widths[*col].max(cell.len());
    }
    let mut out = String::new();
    out.push_str("tick  ");
    for (p, width) in widths.iter().enumerate().take(log.processes) {
        out.push_str(&format!("{:<width$}  ", format!("p{p}")));
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out.push('\n');
    for (i, (col, cell)) in cells.iter().enumerate() {
        out.push_str(&format!("{i:>4}  "));
        for (p, width) in widths.iter().enumerate().take(log.processes) {
            if p == *col {
                out.push_str(&format!("{cell:<width$}  "));
            } else {
                out.push_str(&format!("{:<width$}  ", ""));
            }
        }
        if *col >= log.processes {
            out.push_str(cell);
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
    if !log.races.is_empty() {
        let pairs: Vec<String> = log
            .races
            .iter()
            .map(|(a, b)| format!("({a},{b})"))
            .collect();
        out.push_str(&format!("racing tick pairs: {}\n", pairs.join(" ")));
    }
    let crashed: Vec<String> = log
        .crashed
        .iter()
        .enumerate()
        .filter(|(_, c)| **c)
        .map(|(p, _)| format!("p{p}"))
        .collect();
    if !crashed.is_empty() {
        out.push_str(&format!("crashed: {}\n", crashed.join(", ")));
    }
    let restarted: Vec<String> = log
        .restarted
        .iter()
        .enumerate()
        .filter(|(_, r)| **r)
        .map(|(p, _)| format!("p{p}"))
        .collect();
    if !restarted.is_empty() {
        out.push_str(&format!("restarted: {}\n", restarted.join(", ")));
    }
    out
}

fn footprint_str(f: &Footprint) -> String {
    match f {
        Footprint::Pure => "pure".to_string(),
        Footprint::Read(r) => format!("read(r{})", r.0),
        Footprint::Write(r) => format!("write(r{})", r.0),
        Footprint::Net(w) => {
            let regs: Vec<String> = w.regs().iter().map(|r| format!("r{}", r.0)).collect();
            format!("net[{}]", regs.join(","))
        }
        Footprint::Unknown => "unknown".to_string(),
    }
}

fn emission_str(e: &TickEmission) -> String {
    match e {
        TickEmission::None => "none".to_string(),
        TickEmission::Invoked { op_index } => format!("invoked(op {op_index})"),
        TickEmission::Committed { op_index } => format!("committed(op {op_index})"),
        TickEmission::Aborted { op_index } => format!("aborted(op {op_index})"),
        TickEmission::Crashed {
            op_index: Some(op_index),
        } => format!("crashed(op {op_index})"),
        TickEmission::Crashed { op_index: None } => "crashed".to_string(),
        TickEmission::Restarted {
            op_index: Some(op_index),
        } => format!("restarted(op {op_index} latent)"),
        TickEmission::Restarted { op_index: None } => "restarted".to_string(),
        TickEmission::Recovered {
            op_index: Some(op_index),
            resolved,
        } => {
            if *resolved {
                format!("recovered(op {op_index} resolved)")
            } else {
                format!("recovered(op {op_index} abandoned)")
            }
        }
        TickEmission::Recovered { op_index: None, .. } => "recovered".to_string(),
        TickEmission::Delivered { slot, owner } => {
            format!("delivered(slot {slot}, owner p{})", owner.index())
        }
        TickEmission::Dropped { slot, owner } => {
            format!("dropped(slot {slot}, owner p{})", owner.index())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_artifact_documents() {
        let doc = r#"{
  "tool": "scl-check",
  "kind": "counterexample",
  "scenario": "a1_dropped_raw_fence_n2",
  "message": "2 winners (expected exactly 1) \"quoted\"",
  "schedule": [0, 1, 1, 0],
  "config": {"reduction": "source-dpor-lin", "resume": "prefix-resume",
             "checker": "incremental", "crashed_pending": "open",
             "max_schedules": 200000, "max_ticks": 10000, "max_drops": 0,
             "max_recoveries": 0},
  "processes": 2,
  "net_cap": 0,
  "completed": true,
  "crashed": [false, false],
  "restarted": [false, false],
  "races": [[0, 1]],
  "ticks": []
}"#;
        let artifact = Artifact::from_json(doc).expect("well-formed artifact");
        assert_eq!(artifact.scenario, "a1_dropped_raw_fence_n2");
        assert_eq!(
            artifact.message,
            "2 winners (expected exactly 1) \"quoted\""
        );
        assert_eq!(
            artifact.schedule,
            vec![ProcessId(0), ProcessId(1), ProcessId(1), ProcessId(0)]
        );
        assert_eq!(
            artifact.config.explore.reduction,
            scl_sim::Reduction::SourceDpor
        );
        assert_eq!(artifact.config.explore.max_schedules, 200_000);
        let config = &artifact.config;
        assert_eq!(config.explore.threads, 1);
        assert!(config.observer.is_none());
    }

    #[test]
    fn parser_reads_artifacts_without_checker_and_resume_keys() {
        let doc = r#"{"scenario": "crash_write_behind_strict_n2", "message": "m",
  "schedule": [0, 2],
  "config": {"reduction": "source-dpor", "crashed_pending": "strict",
             "max_schedules": 7, "max_ticks": 9, "max_drops": 1, "max_recoveries": 2}}"#;
        let config = Artifact::from_json(doc)
            .expect("well-formed artifact")
            .config;
        assert_eq!(config.explore.reduction, scl_sim::Reduction::SourceDpor);
        assert_eq!(config.explore.resume, scl_sim::ResumeMode::PrefixResume);
        assert_eq!(config.crashed_pending, crate::CrashedPending::Strict);
        assert_eq!(
            (config.explore.max_drops, config.explore.max_recoveries),
            (1, 2)
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_json("{\"a\": 1,}").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(Artifact::from_json("{}").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v = parse_json(r#"{"s": "a\n\"b\"\u0007", "n": -3.5, "t": true, "z": null}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\n\"b\"\u{7}"));
        assert_eq!(v.get("n"), Some(&Json::Num(-3.5)));
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("z"), Some(&Json::Null));
        assert_eq!(v.get("n").and_then(Json::as_u64), None);
    }
}
