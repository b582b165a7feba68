//! CI `bench-smoke`: replay the seeded serving sweep plus the
//! `grid_sweep` family as one parallel batch, write the
//! `BENCH_serving.json` artifact, and gate the sweep's baseline form
//! ([`serving_smoke::render_baseline_json`]) against the checked-in
//! baseline with [`perfgate::diff`].
//!
//! ```text
//! # what CI runs (exit code 1 when any baseline value differs from the
//! # run's, or sim_events_per_sec falls below its wall-clock floor):
//! cargo run --release -p agnn-bench --bin bench_smoke -- \
//!     --baseline ci/bench_serving_baseline.json --out BENCH_serving.json \
//!     --trace-out BENCH_trace.json --timing-out BENCH_timing.md \
//!     --summary "$GITHUB_STEP_SUMMARY"
//!
//! # refresh the baseline after an intentional change (in-PR):
//! cargo run --release -p agnn-bench --bin bench_smoke -- \
//!     --write-baseline ci/bench_serving_baseline.json
//! ```
//!
//! `--jobs N` caps the scenario fan-out (default: every core,
//! [`agnn_serve::default_jobs`]). The job count is invisible in the
//! artifacts: scenarios merge in case order
//! ([`serving_smoke::run_all_jobs`]), so `--jobs 1` and `--jobs 8`
//! render byte-identical documents apart from the host-wall sim
//! self-metrics, and a `wall clock` line prints the measured speedup
//! (serial estimate = the sum of every scenario's in-worker
//! `sim_wall_secs`, over the batch's actual wall clock).
//!
//! `--timing-out <file>` writes the per-scenario timing table
//! ([`serving_smoke::render_timing_table`]) — CI uploads it next to the
//! metrics artifact so "which scenario got slow" needs no local rebuild.
//!
//! `--summary` appends the wall-clock line and the gate's markdown table
//! ([`perfgate::render_summary_table`], one row per differing value) to
//! the given file (GitHub renders `$GITHUB_STEP_SUMMARY` on the job page,
//! so a changed value is readable without downloading the artifact). The
//! table is written *before* the gate verdict is returned — a failing run
//! still publishes its diffs.
//!
//! `--trace-out <file>` additionally replays the `migration_drift`
//! scenario with a Perfetto trace sink attached
//! ([`serving_smoke::perfetto_trace`]) and writes the
//! `chrome://tracing` / [ui.perfetto.dev] JSON document — the CI job
//! uploads it next to `BENCH_serving.json` so a regressed run's
//! board-resource timeline can be inspected without a local rebuild.
//! The document is sanity-parsed (valid JSON, nonzero `traceEvents`)
//! before it is written: a malformed trace fails the run, never lands
//! as a green artifact.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use std::process::ExitCode;

use agnn_bench::{perfgate, serving_smoke};

/// The sweep case `--trace-out` replays: the scenario exercising the
/// most machinery at once (pipelined boards, LRU eviction, peer
/// migration), so its trace shows every track the writer knows.
const TRACE_SCENARIO: &str = "migration_drift";

struct Args {
    out: Option<String>,
    baseline: Option<String>,
    write_baseline: Option<String>,
    summary: Option<String>,
    trace_out: Option<String>,
    timing_out: Option<String>,
    jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: None,
        baseline: None,
        write_baseline: None,
        summary: None,
        trace_out: None,
        timing_out: None,
        jobs: agnn_serve::default_jobs(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--out" => args.out = Some(value("--out")?),
            "--baseline" => args.baseline = Some(value("--baseline")?),
            "--write-baseline" => args.write_baseline = Some(value("--write-baseline")?),
            "--summary" => args.summary = Some(value("--summary")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--timing-out" => args.timing_out = Some(value("--timing-out")?),
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse::<usize>()
                    .map_err(|e| format!("--jobs: {e}"))?
                    .max(1);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let started = std::time::Instant::now();
    let sweep = serving_smoke::run_all_jobs(args.jobs);
    let wall = started.elapsed().as_secs_f64();
    for s in &sweep {
        let overall = s.report.overall_latency();
        let victim = s
            .victim_p99_secs()
            .map_or(String::new(), |p| format!(" victim_p99={p:>9.4} s"));
        let goodput = s
            .victim_goodput_p99_secs()
            .map_or(String::new(), |p| format!(" goodput_p99={p:>7.4} s"));
        println!(
            "{:<28} boards={} placement={:<17} sched={:<4} p99={:>9.4} s reconfigs={:>6} \
             completed={} migrations={:>4} host_gb={:>8.2}{victim}{goodput}",
            s.name,
            s.config.boards,
            s.config.placement.name(),
            s.config.scheduler.name(),
            overall.quantile(0.99),
            s.report.reconfigs,
            s.report.completed(),
            s.report.migrations(),
            s.report.host_upload_bytes() as f64 / 1e9,
        );
    }

    // The speedup line: the serial estimate is the sum of every run's
    // in-worker wall clock, so it and the measured batch wall share the
    // same host and the ratio is an honest fan-out figure.
    let serial_estimate: f64 = sweep.iter().map(|s| s.report.sim.wall_secs).sum();
    let speedup_line = format!(
        "wall clock {wall:.2} s vs {serial_estimate:.2} s serial estimate \
         ({:.2}x at --jobs {})",
        serial_estimate / wall.max(1e-9),
        args.jobs,
    );
    println!("{speedup_line}");
    if let Some(path) = &args.summary {
        append_to(path, &format!("\n{speedup_line}\n"))
            .map_err(|e| format!("writing summary {path}: {e}"))?;
    }

    if let Some(path) = &args.timing_out {
        let table = serving_smoke::render_timing_table(&sweep);
        std::fs::write(path, &table).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote timing table {path}");
    }

    if let Some(path) = &args.out {
        let artifact = serving_smoke::render_json(&sweep);
        std::fs::write(path, artifact).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote artifact {path}");
    }
    let run_baseline = serving_smoke::render_baseline_json(&sweep);
    if let Some(path) = &args.write_baseline {
        std::fs::write(path, &run_baseline).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote baseline {path}");
    }
    if let Some(path) = &args.trace_out {
        let trace = serving_smoke::perfetto_trace(TRACE_SCENARIO)
            .ok_or_else(|| format!("unknown trace scenario '{TRACE_SCENARIO}'"))?;
        // Sanity-parse before writing: an artifact Perfetto cannot load
        // must fail the run, not land green.
        let doc = perfgate::parse(&trace).map_err(|e| format!("trace does not parse: {e}"))?;
        let events = doc
            .get("traceEvents")
            .and_then(perfgate::Json::as_arr)
            .map_or(0, <[perfgate::Json]>::len);
        if events == 0 {
            return Err("trace parsed but carries no traceEvents".to_string());
        }
        std::fs::write(path, &trace).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote Perfetto trace {path} ({TRACE_SCENARIO}, {events} events)");
    }

    if let Some(path) = &args.baseline {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let baseline = perfgate::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        let current = perfgate::parse(&run_baseline)
            .map_err(|e| format!("parsing the run's baseline form: {e}"))?;
        let diffs = perfgate::diff(&baseline, &current)?;
        let failing: Vec<&perfgate::Diff> = diffs.iter().filter(|d| d.fails()).collect();
        // The wall-clock member is the one gated against a floor rather
        // than exactly, so its verdict gets a line of its own.
        let slow = failing
            .iter()
            .filter(|d| d.member == perfgate::SIM_SPEED_MEMBER)
            .count();
        let floor_line = format!(
            "{} floor (host wall clock): {:.0} % of baseline, {slow} row(s) below it",
            perfgate::SIM_SPEED_MEMBER,
            (1.0 - perfgate::SIM_SPEED_TOLERANCE) * 100.0
        );
        println!("{floor_line}");
        // The table lands in the summary before the verdict is decided,
        // so a failing gate still publishes its diffs.
        if let Some(summary_path) = &args.summary {
            let table = perfgate::render_summary_table(&baseline, &current)?;
            append_to(summary_path, &format!("\n{floor_line}\n\n{table}"))
                .map_err(|e| format!("writing summary {summary_path}: {e}"))?;
            println!("appended gate table to {summary_path}");
        }
        if !failing.is_empty() {
            for d in &failing {
                eprintln!("PERF GATE FAILURE: {d}");
            }
            let scenarios: std::collections::BTreeSet<&str> = failing
                .iter()
                .filter_map(|d| d.scenario.as_deref())
                .collect();
            return Err(format!(
                "{} value(s) differ in {} scenario(s) — if intentional, refresh the \
                 baseline with --write-baseline {path}",
                failing.len(),
                scenarios.len()
            ));
        }
        println!(
            "perf gate passed: every simulated value of {} scenario(s) matches {path} exactly",
            baseline
                .get("scenarios")
                .and_then(perfgate::Json::as_arr)
                .map_or(0, <[perfgate::Json]>::len),
        );
    }
    Ok(())
}

/// Appends `content` to the file at `path` (creating it if missing) —
/// `$GITHUB_STEP_SUMMARY` is append-only by contract, and other steps may
/// already have written to it.
fn append_to(path: &str, content: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(content.as_bytes())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench_smoke: {message}");
            ExitCode::FAILURE
        }
    }
}
