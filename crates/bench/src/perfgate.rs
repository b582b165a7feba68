//! The CI perf-regression gate.
//!
//! `bench_smoke` (see `src/bin/bench_smoke.rs`) replays a small seeded
//! serving scenario sweep, renders it in baseline form
//! ([`crate::serving_smoke::render_baseline_json`]) and compares that
//! document with the checked-in baseline `ci/bench_serving_baseline.json`;
//! this module parses both with a dependency-free JSON reader and holds
//! the one comparison rule. The `bench-smoke` CI job enforces it on the
//! release build, and the test
//! `serving_smoke::tests::checked_in_baseline_matches_the_sweep` enforces
//! it on every `cargo test`:
//!
//! - [`diff`] pairs the top-level members (`schema`, `seed`), the
//!   scenarios by `name` and each row's members by key, and reports every
//!   value that is not identical on both sides as a [`Diff`]. Values
//!   compare as whole [`Json`] values, so an object such as a per-tenant
//!   drop map differs when any entry does. A scenario or member present
//!   on one side only is a diff too: an ungated scenario or value is a
//!   silent hole in the perf trajectory.
//! - Every diff fails the gate except one on [`SIM_SPEED_MEMBER`], the
//!   simulator's own events per host wall-clock second, which fails only
//!   below `baseline × (1 − SIM_SPEED_TOLERANCE)` ([`Diff::fails`]).
//!   Every other member is a deterministic simulated number that
//!   reproduces bit for bit on any host, so a value that moved at all is
//!   either a regression or an intended change whose PR must refresh the
//!   baseline (`bench_smoke --write-baseline`).
//!
//! The gate names no other metric: which members are gated is decided by
//! what `render_baseline_json` writes, in one place. The three documents
//! involved — the per-run report (`agnn-serve-report/v7`), the sweep
//! artifact (`agnn-bench-serving/v7`) and the checked-in baseline
//! (`agnn-bench-serving-baseline/v6`) — are specified field-by-field,
//! with the versioning and refresh rules, in `docs/SCHEMAS.md`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use agnn_serve::metrics::{json_f64, json_str};

/// The one baseline member measured in host wall clock rather than
/// simulated, and so the one member [`Diff::fails`] compares against a
/// floor instead of exactly.
pub const SIM_SPEED_MEMBER: &str = "sim_events_per_sec";

/// How far below its baseline [`SIM_SPEED_MEMBER`] may fall before the
/// gate fails. Two legitimate noise sources stack on this host-wall-clock
/// number:
///
/// - shared CI runners jitter by tens of percent run to run;
/// - the sweep fans scenarios across every core
///   ([`crate::serving_smoke::run_all_jobs`]), so concurrent runs
///   contend for cores, cache and SMT siblings. Each run's wall clock is
///   still measured on its own worker around only that run — parallelism
///   never *bills* one scenario for another — but a run that shares its
///   core with a neighbor is genuinely slower than the same run alone,
///   by an amount that varies with the batch's scheduling.
///
/// 40 % absorbs both while still catching the failures the floor exists
/// for (a simulator that got severalfold slower, or tracing overhead
/// leaking into the default `NullSink` path). Refresh the baseline with
/// the same `--jobs` CI runs (the default on both sides) so contention
/// is on both sides of the comparison.
pub const SIM_SPEED_TOLERANCE: f64 = 0.40;

/// A parsed JSON value. Objects keep insertion order irrelevant — lookups
/// go through a sorted map, which is all the gate needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`, ample for gate metrics).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
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

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", char::from(byte), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected '{word}' at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("malformed number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
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
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the whole unescaped run in one go. Byte-wise
                // scanning is UTF-8-safe ('"' and '\\' never appear in
                // continuation bytes), and pushing the run as a chunk
                // keeps parsing O(n) — per-char `from_utf8` on the tail
                // made string-heavy documents (the Perfetto trace is
                // megabytes of short strings) quadratic.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
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
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

impl fmt::Display for Json {
    /// Compact JSON, numbers and strings in the workspace encoders' forms
    /// (`json_f64`, `json_str`), so a value prints as its document holds it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let join = |items: Vec<String>| items.join(",");
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => f.write_str(&json_f64(*x)),
            Json::Str(s) => f.write_str(&json_str(s)),
            Json::Arr(items) => {
                write!(f, "[{}]", join(items.iter().map(Json::to_string).collect()))
            }
            Json::Obj(map) => {
                let members = map
                    .iter()
                    .map(|(key, value)| format!("{}:{value}", json_str(key)));
                write!(f, "{{{}}}", join(members.collect()))
            }
        }
    }
}

/// One value on which a baseline and a run disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Diff {
    /// The scenario row, or `None` for a top-level member (`schema`,
    /// `seed`).
    pub scenario: Option<String>,
    /// The member key. A scenario on one side only is reported once, as a
    /// diff on its `name`.
    pub member: String,
    /// The baseline's value, `None` when the baseline lacks it.
    pub baseline: Option<Json>,
    /// The run's value, `None` when the run lacks it.
    pub run: Option<Json>,
}

impl Diff {
    /// Whether this diff fails the gate: every diff does, except a
    /// [`SIM_SPEED_MEMBER`] row whose run is at or above
    /// `baseline × (1 − SIM_SPEED_TOLERANCE)`.
    pub fn fails(&self) -> bool {
        match self.numbers() {
            Some((base, run)) if self.member == SIM_SPEED_MEMBER => {
                run < base * (1.0 - SIM_SPEED_TOLERANCE)
            }
            _ => true,
        }
    }

    /// Both sides, when both are numbers.
    fn numbers(&self) -> Option<(f64, f64)> {
        let side = |v: &Option<Json>| v.as_ref().and_then(Json::as_f64);
        side(&self.baseline).zip(side(&self.run))
    }
}

impl fmt::Display for Diff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = |v: &Option<Json>| v.as_ref().map_or("absent".to_string(), Json::to_string);
        let scenario = self.scenario.as_deref().unwrap_or("(document)");
        let (base, run) = (side(&self.baseline), side(&self.run));
        write!(f, "{scenario} {}: baseline {base} → run {run}", self.member)
    }
}

type Members = BTreeMap<String, Json>;
/// A scenario row and its `name`.
type Row<'a> = (&'a str, &'a Members);

/// A document's top-level members and its scenario rows, in order.
fn split(doc: &Json) -> Result<(&Members, Vec<Row<'_>>), String> {
    let top = doc.as_obj().ok_or("document is not a JSON object")?;
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("document has no 'scenarios' array")?;
    let mut seen = BTreeSet::new();
    let rows = scenarios.iter().map(|row| {
        let (Some(members), Some(name)) = (row.as_obj(), row.get("name").and_then(Json::as_str))
        else {
            return Err("scenario row without a string 'name'".to_string());
        };
        if !seen.insert(name) {
            return Err(format!("scenario '{name}' appears twice"));
        }
        Ok((name, members))
    });
    Ok((top, rows.collect::<Result<_, _>>()?))
}

/// [`diff`]'s result plus the count of values identical on both sides.
fn compare(baseline: &Json, run: &Json) -> Result<(Vec<Diff>, usize), String> {
    let (base_top, base_rows) = split(baseline)?;
    let (run_top, run_rows) = split(run)?;
    let base_by_name: BTreeMap<&str, &Members> = base_rows.iter().copied().collect();
    let run_by_name: BTreeMap<&str, &Members> = run_rows.iter().copied().collect();
    let run_only = run_rows
        .iter()
        .filter(|(name, _)| !base_by_name.contains_key(name));
    // Rows compare every member but their join key, the document every
    // member but its rows; a one-sided scenario is reported on its name.
    let scenarios = base_rows.iter().chain(run_only).map(|&(name, _)| {
        let (base, run) = (base_by_name.get(name), run_by_name.get(name));
        (Some(name), base.copied(), run.copied(), "name")
    });
    let document = (None, Some(base_top), Some(run_top), "scenarios");
    let (mut diffs, mut identical) = (Vec::new(), 0);
    for (scenario, base, run, skip) in std::iter::once(document).chain(scenarios) {
        let keys: BTreeSet<&str> = match (base, run) {
            (Some(b), Some(r)) => b
                .keys()
                .chain(r.keys())
                .map(String::as_str)
                .filter(|k| *k != skip)
                .collect(),
            _ => BTreeSet::from(["name"]),
        };
        for member in keys {
            let b = base.and_then(|m| m.get(member));
            let r = run.and_then(|m| m.get(member));
            if b.is_some() && b == r {
                identical += 1;
            } else {
                diffs.push(Diff {
                    scenario: scenario.map(str::to_string),
                    member: member.to_string(),
                    baseline: b.cloned(),
                    run: r.cloned(),
                });
            }
        }
    }
    Ok((diffs, identical))
}

/// Compares two baseline-form documents value by value: top-level
/// members, the scenario sets (joined on `name`), each row's member keys
/// and each value as a whole [`Json`] value. Returns every value that is
/// not identical on both sides — top-level members first, then scenarios
/// in baseline order, then run-only scenarios, members in key order.
/// Which diffs fail the gate is [`Diff::fails`].
///
/// # Errors
///
/// Returns an error when either document is not an object with a
/// `scenarios` array of objects carrying unique string `name`s.
pub fn diff(baseline: &Json, run: &Json) -> Result<Vec<Diff>, String> {
    Ok(compare(baseline, run)?.0)
}

/// Renders the gate's verdict in GitHub-flavored markdown — the
/// `bench-smoke` job appends it to `$GITHUB_STEP_SUMMARY`, so a changed
/// value is readable on the job page without downloading the artifact: a
/// count of identical values, then one row per [`diff`] (scenario |
/// member | baseline | run | Δ %, where Δ % needs a nonzero numeric
/// baseline).
///
/// # Errors
///
/// Returns the errors of [`diff`].
pub fn render_summary_table(baseline: &Json, run: &Json) -> Result<String, String> {
    let (diffs, identical) = compare(baseline, run)?;
    let failing = diffs.iter().filter(|d| d.fails()).count();
    let mut out = format!(
        "### Serving perf gate: baseline vs run\n\n\
         {identical} value(s) identical, {} differ, {failing} fail the gate.\n",
        diffs.len()
    );
    if diffs.is_empty() {
        return Ok(out);
    }
    out.push_str("\n| scenario | member | baseline | run | Δ % |\n|---|---|---|---|---|\n");
    let cell = |v: &Option<Json>| {
        v.as_ref()
            .map_or("absent".to_string(), |v| format!("`{v}`"))
    };
    for d in &diffs {
        let delta = match d.numbers() {
            Some((base, run)) if base != 0.0 => format!("{:+.2}%", (run / base - 1.0) * 100.0),
            _ => "—".to_string(),
        };
        let scenario = d.scenario.as_deref().unwrap_or("(document)");
        let (base, run) = (cell(&d.baseline), cell(&d.run));
        out.push_str(&format!(
            "| `{scenario}` | `{}` | {base} | {run} | {delta} |\n",
            d.member
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\nyA", "d": null}, "e": true}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2],
            Json::Num(-300.0)
        );
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\nyA")
        );
        assert_eq!(doc.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(doc.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn parse_round_trips_a_serve_report() {
        use agnn_graph::datasets::Dataset;
        use agnn_serve::sim::{simulate, ServeConfig};
        use agnn_serve::tenant::TenantSpec;
        let report = simulate(
            vec![TenantSpec::new("feed", Dataset::Movie, 5.0)],
            ServeConfig::builder()
                .seed(1)
                .total_requests(100)
                .boards(2)
                .build()
                .expect("test config is valid"),
        );
        let doc = parse(&report.to_json()).expect("report JSON parses");
        assert_eq!(
            doc.get("completed").and_then(Json::as_f64),
            Some(report.completed() as f64)
        );
        assert_eq!(
            doc.get("boards").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("").is_err());
    }

    /// The checked-in baseline: the gate's real input, so the table-driven
    /// test below covers every member the sweep gates today.
    const CHECKED_IN: &str = include_str!("../../../ci/bench_serving_baseline.json");

    /// A baseline-form document with the given scenario rows.
    fn doc(rows: &str) -> Json {
        parse(&format!(
            r#"{{"schema": "s", "seed": 1, "scenarios": [{rows}]}}"#
        ))
        .unwrap()
    }

    fn row_mut(doc: &mut Json, index: usize) -> &mut Members {
        let Json::Obj(top) = doc else {
            panic!("document is an object")
        };
        let Some(Json::Arr(rows)) = top.get_mut("scenarios") else {
            panic!("document has scenarios")
        };
        let Json::Obj(row) = &mut rows[index] else {
            panic!("row is an object")
        };
        row
    }

    /// The smallest changes to `value`: one ulp up for a number, +1 on
    /// each entry of an object of counts.
    fn nudges(value: &Json) -> Vec<Json> {
        match value {
            Json::Num(x) => vec![Json::Num(x.next_up())],
            Json::Obj(entries) => entries
                .keys()
                .map(|key| {
                    let mut bumped = entries.clone();
                    let Some(Json::Num(count)) = bumped.get_mut(key) else {
                        panic!("'{key}' is a count")
                    };
                    *count += 1.0;
                    Json::Obj(bumped)
                })
                .collect(),
            other => panic!("no nudge for {other}"),
        }
    }

    /// For every member of every row of the checked-in baseline, three
    /// edits each give exactly one diff naming that scenario and member:
    /// the smallest nudge, removing the member and adding an unknown one.
    /// All fail, except a one-ulp nudge of the wall-clock member.
    #[test]
    fn every_baseline_value_is_compared_exactly() {
        let baseline = parse(CHECKED_IN).unwrap();
        assert_eq!(diff(&baseline, &baseline).unwrap(), []);
        let rows = baseline.get("scenarios").and_then(Json::as_arr).unwrap();
        assert!(!rows.is_empty());
        for (index, row) in rows.iter().enumerate() {
            let scenario = row.get("name").and_then(Json::as_str).unwrap();
            let members = row.as_obj().unwrap();
            for (member, value) in members.iter().filter(|(key, _)| *key != "name") {
                let only_diff = |edit: &dyn Fn(&mut Members), named: &str| {
                    let mut run = baseline.clone();
                    edit(row_mut(&mut run, index));
                    let diffs = diff(&baseline, &run).unwrap();
                    assert_eq!(diffs.len(), 1, "{scenario} {member}: {diffs:?}");
                    assert_eq!(diffs[0].scenario.as_deref(), Some(scenario));
                    assert_eq!(diffs[0].member, named);
                    diffs[0].fails()
                };
                for nudged in nudges(value) {
                    let fails = only_diff(
                        &|row| {
                            row.insert(member.clone(), nudged.clone());
                        },
                        member,
                    );
                    assert_eq!(fails, member != SIM_SPEED_MEMBER, "{scenario} {member}");
                }
                assert!(only_diff(
                    &|row| {
                        row.remove(member);
                    },
                    member
                ));
                let unknown = format!("{member}_unknown");
                assert!(only_diff(
                    &|row| {
                        row.insert(unknown.clone(), value.clone());
                    },
                    &unknown
                ));
            }
        }
    }

    #[test]
    fn schema_or_seed_mismatch_fails() {
        let baseline = parse(CHECKED_IN).unwrap();
        for (member, value) in [
            (
                "schema",
                Json::Str("agnn-bench-serving-baseline/v0".to_string()),
            ),
            ("seed", Json::Num(1.0)),
        ] {
            let mut run = baseline.clone();
            let Json::Obj(top) = &mut run else {
                panic!("document is an object")
            };
            top.insert(member.to_string(), value);
            let diffs = diff(&baseline, &run).unwrap();
            assert_eq!(diffs.len(), 1, "{diffs:?}");
            assert_eq!(
                (diffs[0].scenario.as_deref(), diffs[0].member.as_str()),
                (None, member)
            );
            assert!(diffs[0].fails());
        }
    }

    #[test]
    fn sim_speed_gate_is_inverted_and_generous() {
        let row = |ev: f64| doc(&format!(r#"{{"name": "s", "sim_events_per_sec": {ev}}}"#));
        let baseline = row(100_000.0);
        let fails = |ev: f64| {
            let diffs = diff(&baseline, &row(ev)).unwrap();
            assert_eq!(diffs.len(), 1, "{diffs:?}");
            diffs[0].fails()
        };
        // 35 % slower sits inside the 40 % CI-noise floor.
        assert!(!fails(65_000.0));
        // Severalfold slower fails: that is a real simulator regression.
        assert!(fails(30_000.0));
        // Faster never fails (the inversion).
        assert!(!fails(1_000_000.0));
        // On one side only, it fails like any other member.
        let without = doc(r#"{"name": "s"}"#);
        assert!(diff(&baseline, &without).unwrap()[0].fails());
        assert!(diff(&without, &baseline).unwrap()[0].fails());
    }

    #[test]
    fn gate_fails_on_scenarios_missing_from_the_run() {
        let baseline = doc(r#"{"name": "a", "p99_secs": 1.0}, {"name": "b", "p99_secs": 1.0}"#);
        let diffs = diff(&baseline, &doc(r#"{"name": "a", "p99_secs": 1.0}"#)).unwrap();
        assert_eq!(
            diffs,
            [Diff {
                scenario: Some("b".to_string()),
                member: "name".to_string(),
                baseline: Some(Json::Str("b".to_string())),
                run: None,
            }]
        );
        assert!(diffs[0].fails());
    }

    #[test]
    fn gate_fails_on_scenarios_absent_from_the_baseline() {
        let baseline = doc(r#"{"name": "a", "p99_secs": 1.0}"#);
        let run = doc(r#"{"name": "a", "p99_secs": 1.0}, {"name": "new", "p99_secs": 0.1}"#);
        let diffs = diff(&baseline, &run).unwrap();
        assert_eq!(
            diffs,
            [Diff {
                scenario: Some("new".to_string()),
                member: "name".to_string(),
                baseline: None,
                run: Some(Json::Str("new".to_string())),
            }]
        );
        assert!(diffs[0].fails());
    }

    #[test]
    fn summary_table_shows_deltas_and_holes() {
        let baseline = doc(
            r#"{"name": "a", "p99_secs": 1.0, "reconfigs": 10, "sim_events_per_sec": 450000},
               {"name": "b", "p99_secs": 10.0, "tenant_drops": {"victim": 0, "aggressor": 4000}},
               {"name": "gone", "p99_secs": 0.5}"#,
        );
        let run = doc(
            r#"{"name": "a", "p99_secs": 1.1, "reconfigs": 10, "sim_events_per_sec": 420000},
               {"name": "b", "p99_secs": 10.0, "tenant_drops": {"victim": 5, "aggressor": 4000}},
               {"name": "new", "p99_secs": 0.2}"#,
        );
        let table = render_summary_table(&baseline, &run).unwrap();
        assert!(table.starts_with("### Serving perf gate"), "{table}");
        // schema, seed, a.reconfigs and b.p99_secs match; the 7 % slower
        // sim speed differs but passes its floor.
        assert!(
            table.contains("4 value(s) identical, 5 differ, 4 fail the gate."),
            "{table}"
        );
        for row in [
            "| `a` | `p99_secs` | `1` | `1.1` | +10.00% |",
            "| `a` | `sim_events_per_sec` | `450000` | `420000` | -6.67% |",
            r#"| `b` | `tenant_drops` | `{"aggressor":4000,"victim":0}` | `{"aggressor":4000,"victim":5}` | — |"#,
            r#"| `gone` | `name` | `"gone"` | absent | — |"#,
            r#"| `new` | `name` | absent | `"new"` | — |"#,
        ] {
            assert!(table.contains(row), "{row}\n{table}");
        }
        let same = render_summary_table(&baseline, &baseline).unwrap();
        assert!(
            same.contains("8 value(s) identical, 0 differ, 0 fail the gate.")
                && !same.contains('|'),
            "{same}"
        );
        assert!(render_summary_table(&Json::Null, &run).is_err());
    }

    #[test]
    fn gate_rejects_documents_without_the_schema() {
        let ok = doc(r#"{"name": "a"}"#);
        for bad in [
            Json::Null,
            parse(r#"{"seed": 1}"#).unwrap(),
            doc("1"),
            doc(r#"{"p99_secs": 1.0}"#),
            doc(r#"{"name": "a"}, {"name": "a"}"#),
        ] {
            assert!(diff(&ok, &bad).is_err(), "{bad}");
            assert!(diff(&bad, &ok).is_err(), "{bad}");
        }
    }
}
