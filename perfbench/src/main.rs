//! The repository benchmark: end-to-end and per-layer metrics of the
//! AutoGNN serving simulator and its functional preprocessing path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints every end-to-end metric, `--trace 1` every
//! per-layer metric (see `perfbench/README.md` for which end-to-end
//! metric each layer metric moves). The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` (output checks) and
//! `metrics`. Each workload runs on one thread in its own process.

mod functional;
mod report;
mod serve;

use std::path::Path;
use std::process::{Command, ExitCode};

use agnn_algo::pipeline::SampleParams;
use agnn_gnn::models::GnnSpec;
use agnn_graph::datasets::Dataset;

use functional::LoopWorkload;
use report::Report;
use serve::ServeWorkload;

/// End-to-end metrics: name and unit. Printed with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("requests_per_s", "1/s"),
    ("ns_per_event", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_p50_s", "s"),
    ("sim_p99_s", "s"),
    ("sim_served_frac", "fraction"),
];

/// Per-layer metrics: name and unit. Printed with `--trace 1`; a layer
/// that a workload never calls reports 0.
const PER_LAYER: [(&str, &str); 54] = [
    ("sim.run_s", "s"),
    ("sim.new_s", "s"),
    ("engine.events", "count"),
    ("engine.events_per_request", "count"),
    ("arrivals.draw_ns", "ns"),
    ("sched.queue_depth_mean", "count"),
    ("sched.queue_depth_max", "count"),
    ("sched.expired", "count"),
    ("sched.dropped", "count"),
    ("sched.queue_wait_mean_s", "s"),
    ("pool.reconfigs", "count"),
    ("pool.reconfig_s", "s"),
    ("pool.migrations", "count"),
    ("pool.evictions", "count"),
    ("pool.host_bytes", "bytes"),
    ("pool.switch_bytes", "bytes"),
    ("pool.busy_frac", "fraction"),
    ("pool.dma_s", "s"),
    ("pool.fabric_s", "s"),
    ("pool.handoff_s", "s"),
    ("cost.price_ns", "ns"),
    ("cost.preview_s", "s"),
    ("cost.reconfigs", "count"),
    ("trace.spans.queue", "count"),
    ("trace.spans.reconfig", "count"),
    ("trace.spans.ingest", "count"),
    ("trace.spans.preprocess", "count"),
    ("trace.spans.handoff", "count"),
    ("trace.spans.migrate_out", "count"),
    ("trace.spans.cancelled", "count"),
    ("trace.counters", "count"),
    ("trace.overhead_s", "s"),
    ("metrics.to_json_s", "s"),
    ("graph.advance_s", "s"),
    ("core.ingest_s", "s"),
    ("core.preprocess_s", "s"),
    ("core.compute_s", "s"),
    ("hw.sort_s", "s"),
    ("hw.reshape_s", "s"),
    ("algo.sample_s", "s"),
    ("hw.reindex_s", "s"),
    ("hw.engine_self_s", "s"),
    ("hw.ordering_sim_s", "s"),
    ("hw.reshaping_sim_s", "s"),
    ("hw.selecting_sim_s", "s"),
    ("hw.reindexing_sim_s", "s"),
    ("hw.edges_ordered", "count"),
    ("algo.selections", "count"),
    ("algo.pool_elements", "count"),
    ("hw.reindex_inputs", "count"),
    ("hw.subgraph_nodes", "count"),
    ("hw.subgraph_edges", "count"),
    ("gnn.forward_s", "s"),
    ("gnn.flops", "count"),
];

/// The workloads, by name.
enum Workload {
    Serve(ServeWorkload),
    Loop(LoopWorkload),
}

const WORKLOADS: [&str; 2] = ["replay_migration", "convert_stream"];

fn workload(name: &str) -> Option<Workload> {
    let params = SampleParams::new(10, 2);
    let spec = GnnSpec::table_iii_default();
    Some(match name {
        "replay_migration" => Workload::Serve(ServeWorkload {
            build: serve::replay_migration,
            requests: 200_000,
        }),
        "convert_stream" => Workload::Loop(LoopWorkload {
            dataset: Dataset::Taobao,
            scale: 400,
            batch: 32,
            params,
            spec,
            requests: 10,
        }),
        _ => return None,
    })
}

/// Runs `workload`. A traced report gets 0 for each layer the workload
/// never calls; an untraced one missing an end-to-end metric fails.
fn run(workload: &Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = match workload {
        Workload::Serve(w) => serve::run(w, seed, seconds, traced),
        Workload::Loop(w) => functional::run(w, seed, seconds, traced),
    };
    if traced {
        let missing: Vec<_> = PER_LAYER
            .iter()
            .filter(|(name, _)| report.get(name).is_none())
            .collect();
        for (name, unit) in missing {
            report.metric(*name, 0.0, unit);
        }
    } else {
        for (name, _) in END_TO_END {
            let present = report.get(name).is_some();
            report
                .checks
                .check(present, || format!("end-to-end metric {name} is missing"));
        }
    }
    report
}

/// `nproc`, the compiler version and the source revision.
fn fingerprint() -> String {
    let run = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let git_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let revision = run(
        "git",
        &["--git-dir", &git_dir.to_string_lossy(), "rev-parse", "HEAD"],
    );
    let rustc = run("rustc", &["-V"]);
    format!("host: nproc={nproc} rustc=\"{rustc}\" revision={revision}")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is not in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(55.0),
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    println!("{}", fingerprint());
    let mut report = run(&workload, args.seed, args.seconds, args.traced);
    print!("{}", report.render_text());
    println!("{}", report.render_result());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_gnn::models::GnnModel;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
    const README: &str = include_str!("../README.md");

    /// The text of the `key` array in BENCHMARK.json.
    fn section(key: &str) -> &'static str {
        let start = BENCHMARK_JSON
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let open = start + BENCHMARK_JSON[start..].find('[').expect("an array");
        let close = open + BENCHMARK_JSON[open..].find(']').expect("a closed array");
        &BENCHMARK_JSON[open..close]
    }

    /// Every string value of `key` in `text`, in order.
    fn strings(text: &str, key: &str) -> Vec<String> {
        let pattern = format!("\"{key}\"");
        text.match_indices(&pattern)
            .map(|(i, _)| {
                let rest = text[i + pattern.len()..].trim_start();
                let rest = rest.strip_prefix(':').expect("a key").trim_start();
                let rest = rest.strip_prefix('"').expect("a string value");
                rest[..rest.find('"').expect("a closed string")].to_string()
            })
            .collect()
    }

    fn declared(key: &str) -> Vec<(String, String)> {
        let text = section(key);
        strings(text, "name")
            .into_iter()
            .zip(strings(text, "unit"))
            .collect()
    }

    fn listed(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_and_workloads_run() {
        assert_eq!(declared("end_to_end"), listed(&END_TO_END));
        assert_eq!(declared("per_layer"), listed(&PER_LAYER));
        assert_eq!(strings(section("workloads"), "name"), WORKLOADS);
        for name in WORKLOADS {
            assert!(workload(name).is_some(), "{name}");
        }
        assert!(workload("no_such_workload").is_none());
    }

    #[test]
    fn the_layer_map_covers_every_per_layer_metric() {
        for (name, _) in PER_LAYER {
            let documented = match name.strip_prefix("trace.spans.") {
                Some(_) => README.contains("`trace.spans.<kind>`"),
                None => README.contains(&format!("`{name}`")),
            };
            assert!(documented, "{name} is missing from the README's layer map");
        }
    }

    /// Each workload family, shrunk to run in milliseconds.
    fn tiny_workloads() -> Vec<Workload> {
        let params = SampleParams::new(4, 2);
        let spec = GnnSpec::new(GnnModel::GraphSage, 2, 8, 8);
        vec![
            Workload::Serve(ServeWorkload {
                build: serve::replay_migration,
                requests: 300,
            }),
            Workload::Loop(LoopWorkload {
                dataset: Dataset::Physics,
                scale: 64,
                batch: 16,
                params,
                spec,
                requests: 3,
            }),
        ]
    }

    #[test]
    fn every_named_metric_is_printed_with_its_unit() {
        for workload in tiny_workloads() {
            for (traced, expected) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let mut report = run(&workload, 5, 0.001, traced);
                let mut got: Vec<(String, String)> = report
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                got.sort();
                let mut want = listed(expected);
                want.sort();
                assert_eq!(got, want, "traced={traced}");

                let text = report.render_text();
                let line = report.render_result();
                assert!(line.starts_with("{\"correct\": true,"), "{text}\n{line}");
                for (name, unit) in expected {
                    assert!(
                        text.lines()
                            .any(|l| l.starts_with(name) && l.ends_with(&format!(" {unit}"))),
                        "{name} missing from the text"
                    );
                    let entry = format!("\"{name}\": {{\"value\": ");
                    let start = line.find(&entry).unwrap_or_else(|| panic!("{name}"));
                    let rest = &line[start..];
                    let close = rest.find('}').expect("a closed entry");
                    let unit_field = format!("\"unit\": \"{unit}\"}}");
                    assert!(rest[..=close].ends_with(&unit_field), "{name} unit");
                }
            }
        }
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        let args = parse(&[
            "--workload",
            "convert_stream",
            "--seed",
            "4",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(args.workload, "convert_stream");
        assert_eq!(args.seed, 4);
        assert_eq!(args.seconds, 2.0);
        assert!(args.traced);
        assert!(parse(&["--seed", "4"]).is_err(), "workload is required");
        assert!(parse(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "x", "--seed", "-1"]).is_err());
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
    }
}
