//! The functional preprocessing workloads: a closed loop of
//! `AutoGnn::serve` then GraphSAGE inference over a graph that grows one
//! update batch per request. One episode serves a fixed number of
//! requests from a fresh board and the day-0 graph, so every simulated
//! figure depends on the seed alone; episodes repeat until the time
//! budget is spent, and each request's host time is that of its fastest
//! repeat.

use std::hint::black_box;
use std::time::Instant;

use agnn_algo::pipeline::{self, PreprocessOutput, SampleParams};
use agnn_core::runtime::{AutoGnn, ServiceRecord};
use agnn_gnn::features::FeatureTable;
use agnn_gnn::models::{forward, Forward, GnnSpec};
use agnn_graph::datasets::Dataset;
use agnn_graph::dynamic::{GrowthModel, UpdateStream};
use agnn_graph::{Coo, Csc, Vid};
use agnn_hw::kernel::{Reindexer, Reshaper, UpeKernel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{fastest, median, nearest_rank, peak_rss_mb, secs, spread, Checks, Report};

/// Set-ups timed before the first episode (one more precedes each
/// later episode); `setup_s` is the median over all of them.
const FIRST_SETUPS: usize = 3;
/// Table II growth of the e-commerce graphs: 0.95 % of edges per step.
const GROWTH_PER_STEP: f64 = 0.0095;
/// Share of new edges attached preferentially to existing hubs.
const PREFERENTIAL: f64 = 0.8;
/// Seed of the GNN weights (the model is fixed; the inputs vary).
const WEIGHT_SEED: u64 = 7;

/// A closed-loop preprocessing workload.
#[derive(Debug, Clone, Copy)]
pub struct LoopWorkload {
    pub dataset: Dataset,
    /// Down-scaling factor of the Table II graph (1 = full size).
    pub scale: u64,
    pub batch: usize,
    pub params: SampleParams,
    pub spec: GnnSpec,
    /// Requests per episode.
    pub requests: usize,
}

/// The day-0 inputs of one episode and the board that serves it.
pub struct Setup {
    base: Coo,
    board: AutoGnn,
    features: FeatureTable,
    batches: Vec<Vec<Vid>>,
}

impl LoopWorkload {
    /// Generates the inputs from `seed` and builds the board.
    pub fn setup(&self, seed: u64) -> Setup {
        let base = self.dataset.generate_scaled(self.scale, seed);
        let n = base.num_vertices();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
        let batches = (0..self.requests)
            .map(|_| distinct_vertices(n, self.batch, &mut rng))
            .collect();
        Setup {
            board: AutoGnn::new(self.params),
            features: FeatureTable::random(n, self.spec.in_dim, seed ^ 0xFEA7),
            base,
            batches,
        }
    }

    fn stream(&self, setup: &Setup, seed: u64) -> UpdateStream {
        let growth = GrowthModel::new(setup.base.num_edges() as u64, GROWTH_PER_STEP);
        UpdateStream::new(setup.base.clone(), growth, PREFERENTIAL, seed ^ 0x5EED)
    }
}

/// `count` distinct vertex ids below `n`, in draw order.
fn distinct_vertices(n: usize, count: usize, rng: &mut StdRng) -> Vec<Vid> {
    assert!(count <= n, "batch of {count} from {n} vertices");
    let mut ids: Vec<usize> = (0..n).collect();
    for i in 0..count {
        let j = rng.gen_range(i..n);
        ids.swap(i, j);
    }
    ids[..count].iter().map(|&i| Vid::from_index(i)).collect()
}

/// The seed of request `i`'s sampling.
fn request_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(i as u64)
}

/// Host elements a request streamed through the UPE and SCR kernels:
/// edges ordered, selection-pool elements, reindexer inputs and the
/// sampled subgraph's edges ordered again.
pub fn kernel_elements(output: &PreprocessOutput) -> u64 {
    let s = &output.stats;
    (s.edges_ordered + s.pool_elements + s.reindex_inputs + s.subgraph_edges) as u64
}

/// Checks a served output against the software pipeline's.
pub fn check_output(
    checks: &mut Checks,
    request: usize,
    got: &PreprocessOutput,
    golden: &PreprocessOutput,
) {
    checks.check(got == golden, || {
        format!("request {request}: output differs from agnn_algo::pipeline::preprocess")
    });
}

/// Checks the embeddings: one finite row per batch node.
pub fn check_embeddings(checks: &mut Checks, request: usize, out: &Forward, batch: usize) {
    let m = &out.embeddings;
    checks.check(m.rows() == batch, || {
        format!(
            "request {request}: {} embedding rows for {batch} batch nodes",
            m.rows()
        )
    });
    let finite = (0..m.rows()).all(|r| m.row(r).iter().all(|x| x.is_finite()));
    checks.check(finite, || {
        format!("request {request}: non-finite embedding")
    });
}

/// Checks that the stage-by-stage path produced the serial record.
pub fn check_staged(
    checks: &mut Checks,
    request: usize,
    staged: &ServiceRecord,
    served: &ServiceRecord,
) {
    checks.check(staged == served, || {
        format!("request {request}: stage-by-stage record differs from AutoGnn::serve")
    });
}

/// What the first episode served, for checking the later ones.
struct Served {
    outputs: Vec<PreprocessOutput>,
    total_secs: Vec<f64>,
}

/// Runs one closed-loop workload for about `seconds` of host time.
pub fn run(workload: &LoopWorkload, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    if traced {
        layer_metrics(&mut report, workload, &workload.setup(seed), seed);
        return report;
    }

    // Every episode serves the same requests, so each request's host time
    // is its fastest repeat over the episodes. Each episode starts from a
    // fresh set-up, so `setup_s` spans the run.
    let mut setup_secs = Vec::new();
    let mut first: Option<Served> = None;
    let mut episode_secs = Vec::new();
    let mut request_secs = vec![Vec::new(); workload.requests];
    let mut elements = 0u64;
    let started = Instant::now();
    while episode_secs.is_empty() || secs(started.elapsed()) < seconds {
        let reps = if episode_secs.is_empty() {
            FIRST_SETUPS
        } else {
            1
        };
        let mut setup = None;
        for _ in 0..reps {
            let started = Instant::now();
            setup = Some(workload.setup(seed));
            setup_secs.push(secs(started.elapsed()));
        }
        let setup = setup.expect("at least one set-up");
        let mut board = setup.board.fork();
        let mut stream = workload.stream(&setup, seed);
        let mut timed = 0.0;
        let mut episode = Served {
            outputs: Vec::with_capacity(workload.requests),
            total_secs: Vec::with_capacity(workload.requests),
        };
        elements = 0;
        for (i, batch) in setup.batches.iter().enumerate() {
            let s = request_seed(seed, i);
            let t0 = Instant::now();
            stream.advance();
            let record = board.serve(stream.graph(), batch, s);
            let out = forward(
                &workload.spec,
                &record.output.subgraph,
                &setup.features,
                WEIGHT_SEED,
            );
            let request_s = secs(t0.elapsed());
            timed += request_s;
            request_secs[i].push(request_s);
            black_box(&out);

            match &first {
                None => {
                    let golden = pipeline::preprocess(stream.graph(), batch, &workload.params, s);
                    check_output(&mut report.checks, i, &record.output, &golden);
                }
                Some(f) => {
                    check_output(&mut report.checks, i, &record.output, &f.outputs[i]);
                    report
                        .checks
                        .check(record.total_secs() == f.total_secs[i], || {
                            format!("request {i}: simulated time differs between episodes")
                        });
                }
            }
            check_embeddings(&mut report.checks, i, &out, batch.len());
            elements += kernel_elements(&record.output);
            if first.is_none() {
                episode.total_secs.push(record.total_secs());
                episode.outputs.push(record.output);
            }
        }
        first.get_or_insert(episode);
        episode_secs.push(timed);
    }
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    let first = first.expect("at least one episode");
    let n = first.total_secs.len();
    report.note(format!(
        "episode host seconds over {} episodes of {n} requests: {}",
        episode_secs.len(),
        spread(&episode_secs)
    ));
    report.note(format!(
        "sim latency samples n={n} (p50, p99 = nearest rank)"
    ));
    // The episode at the host's best speed: every request at its fastest.
    let episode_s: f64 = request_secs.iter().map(|s| fastest(s)).sum();
    report.metric("requests_per_s", n as f64 / episode_s, "1/s");
    report.metric(
        "ns_per_event",
        episode_s * 1e9 / elements.max(1) as f64,
        "ns",
    );
    report.metric("setup_s", median(&setup_secs), "s");
    report.metric("sim_p50_s", nearest_rank(&first.total_secs, 0.50), "s");
    report.metric("sim_p99_s", nearest_rank(&first.total_secs, 0.99), "s");
    // A closed loop without deadlines serves every request on time.
    report.metric("sim_served_frac", 1.0, "fraction");
    report
}

/// Sums over one traced episode, reported as per-request means (the
/// reconfiguration and span counts as episode totals).
#[derive(Default)]
struct Layers {
    advance: f64,
    serve: f64,
    staged: f64,
    preview: f64,
    reconfigs: u64,
    ingest: f64,
    preprocess: f64,
    compute: f64,
    sort: f64,
    reshape: f64,
    sample: f64,
    reindex: f64,
    forward: f64,
    flops: u64,
    sim: [f64; 4],
    counts: [u64; 6],
    price_ns: f64,
}

/// Calls per request when timing one analytic pricing call.
const PRICE_CALLS: usize = 2_000;

/// One traced episode: the serial `serve` and the same request driven
/// stage by stage on a second board, then each kernel timed on the
/// inputs the engine saw.
fn layer_metrics(report: &mut Report, workload: &LoopWorkload, setup: &Setup, seed: u64) {
    let mut served = setup.board.fork();
    let mut staged = setup.board.fork();
    let mut stream = workload.stream(setup, seed);
    let mut l = Layers::default();
    let mut spans = [0u64; 4]; // reconfig, ingest, preprocess, handoff
    for (i, batch) in setup.batches.iter().enumerate() {
        let s = request_seed(seed, i);
        let t0 = Instant::now();
        stream.advance();
        l.advance += secs(t0.elapsed());
        let graph = stream.graph();

        let t0 = Instant::now();
        let record = served.serve(graph, batch, s);
        l.serve += secs(t0.elapsed());

        // The stages in the order `serve` calls them.
        let t_staged = Instant::now();
        let workload_now = staged.workload_of(graph, batch);
        let t0 = Instant::now();
        let preview = staged.preview(&workload_now);
        l.preview += secs(t0.elapsed());
        let reconfig = preview
            .would_reconfigure
            .then(|| staged.force_reconfigure(preview.best));
        let t0 = Instant::now();
        let ingest = staged.ingest(graph);
        l.ingest += secs(t0.elapsed());
        let t0 = Instant::now();
        let run = staged.preprocess(graph, batch, s);
        l.preprocess += secs(t0.elapsed());
        let t0 = Instant::now();
        let compute = staged.compute(&run.output.subgraph);
        l.compute += secs(t0.elapsed());
        l.staged += secs(t_staged.elapsed());
        let staged_record = ServiceRecord {
            output: run.output,
            stage_secs: run.stage_secs,
            upload_secs: ingest.secs,
            download_secs: compute.secs,
            reconfig,
            config: staged.config(),
        };
        check_staged(&mut report.checks, i, &staged_record, &record);
        l.reconfigs += u64::from(reconfig.is_some());
        spans[0] += u64::from(reconfig.is_some());
        spans[1] += 1;
        spans[2] += 1;
        spans[3] += 1;

        // The kernels on the inputs the engine saw, under its bitstream.
        let cfg = staged.config();
        let t0 = Instant::now();
        let sorted = UpeKernel::new(cfg.upe).sort_edges(graph.edges());
        l.sort += secs(t0.elapsed());
        let dsts: Vec<Vid> = sorted.sorted.iter().map(|e| e.dst).collect();
        let srcs: Vec<Vid> = sorted.sorted.iter().map(|e| e.src).collect();
        let t0 = Instant::now();
        let reshaped = Reshaper::new(cfg.scr).build_pointers(graph.num_vertices(), &dsts);
        l.reshape += secs(t0.elapsed());
        let csc = Csc::new(reshaped.pointers, srcs).expect("reshaper output is a CSC");
        let mut rng = StdRng::seed_from_u64(s);
        let t0 = Instant::now();
        let trace = pipeline::sample(&csc, batch, &workload.params, &mut rng);
        l.sample += secs(t0.elapsed());
        let t0 = Instant::now();
        let reindexed = Reindexer::new(cfg.scr).reindex(&trace.node_stream);
        l.reindex += secs(t0.elapsed());
        black_box(reindexed);

        let t0 = Instant::now();
        let out = forward(
            &workload.spec,
            &record.output.subgraph,
            &setup.features,
            WEIGHT_SEED,
        );
        l.forward += secs(t0.elapsed());
        check_embeddings(&mut report.checks, i, &out, batch.len());
        l.flops += out.flops;

        let st = record.stage_secs;
        for (acc, v) in
            l.sim
                .iter_mut()
                .zip([st.ordering, st.reshaping, st.selecting, st.reindexing])
        {
            *acc += v;
        }
        let stats = &record.output.stats;
        let counts = [
            stats.edges_ordered,
            stats.selections,
            stats.pool_elements,
            stats.reindex_inputs,
            stats.subgraph_nodes,
            stats.subgraph_edges,
        ];
        for (acc, v) in l.counts.iter_mut().zip(counts) {
            *acc += v as u64;
        }

        let t0 = Instant::now();
        for _ in 0..PRICE_CALLS {
            black_box(staged.analytic_service_secs(black_box(&workload_now), 0));
        }
        l.price_ns += secs(t0.elapsed()) * 1e9 / PRICE_CALLS as f64;
    }

    let n = setup.batches.len().max(1) as f64;
    report.note(format!(
        "per-layer figures are per-request means over {n} requests"
    ));
    let kernels = l.sort + l.reshape + l.sample + l.reindex;
    let per = |x: f64| x / n;
    report.metric("graph.advance_s", per(l.advance), "s");
    report.metric("core.ingest_s", per(l.ingest), "s");
    report.metric("core.preprocess_s", per(l.preprocess), "s");
    report.metric("core.compute_s", per(l.compute), "s");
    report.metric("hw.sort_s", per(l.sort), "s");
    report.metric("hw.reshape_s", per(l.reshape), "s");
    report.metric("algo.sample_s", per(l.sample), "s");
    report.metric("hw.reindex_s", per(l.reindex), "s");
    report.metric("hw.engine_self_s", per(l.preprocess - kernels), "s");
    for (name, v) in ["ordering", "reshaping", "selecting", "reindexing"]
        .iter()
        .zip(l.sim)
    {
        report.metric(format!("hw.{name}_sim_s"), per(v), "s");
    }
    let count_names = [
        "hw.edges_ordered",
        "algo.selections",
        "algo.pool_elements",
        "hw.reindex_inputs",
        "hw.subgraph_nodes",
        "hw.subgraph_edges",
    ];
    for (name, v) in count_names.iter().zip(l.counts) {
        report.metric(*name, per(v as f64), "count");
    }
    report.metric("gnn.forward_s", per(l.forward), "s");
    report.metric("gnn.flops", per(l.flops as f64), "count");
    report.metric("cost.price_ns", per(l.price_ns), "ns");
    report.metric("cost.preview_s", per(l.preview), "s");
    report.metric("cost.reconfigs", l.reconfigs as f64, "count");
    for (kind, count) in ["reconfig", "ingest", "preprocess", "handoff"]
        .iter()
        .zip(spans)
    {
        report.metric(format!("trace.spans.{kind}"), count as f64, "count");
    }
    report.metric("trace.overhead_s", per(l.staged - l.serve), "s");
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_gnn::tensor::Matrix;

    fn tiny() -> LoopWorkload {
        LoopWorkload {
            dataset: Dataset::Physics,
            scale: 64,
            batch: 16,
            params: SampleParams::new(4, 2),
            spec: GnnSpec::new(agnn_gnn::models::GnnModel::GraphSage, 2, 8, 8),
            requests: 2,
        }
    }

    fn served(seed: u64) -> (PreprocessOutput, PreprocessOutput, Forward, usize) {
        let w = tiny();
        let setup = w.setup(seed);
        let mut board = setup.board.fork();
        let mut stream = w.stream(&setup, seed);
        stream.advance();
        let batch = &setup.batches[0];
        let record = board.serve(stream.graph(), batch, 1);
        let golden = pipeline::preprocess(stream.graph(), batch, &w.params, 1);
        let out = forward(
            &w.spec,
            &record.output.subgraph,
            &setup.features,
            WEIGHT_SEED,
        );
        (record.output, golden, out, batch.len())
    }

    #[test]
    fn a_clean_request_passes_every_check() {
        let (got, golden, out, batch) = served(3);
        let mut checks = Checks::default();
        check_output(&mut checks, 0, &got, &golden);
        check_embeddings(&mut checks, 0, &out, batch);
        assert_eq!(checks.failed(), 0, "{:?}", checks.failures());
        assert_eq!(checks.attempted(), 3);
    }

    #[test]
    fn a_corrupted_subgraph_trips_the_output_check() {
        let (mut got, golden, _, _) = served(3);
        got.subgraph.new_to_old.swap(0, 1);
        let mut checks = Checks::default();
        check_output(&mut checks, 0, &got, &golden);
        assert_eq!(checks.failed(), 1);
    }

    #[test]
    fn corrupted_embeddings_trip_the_embedding_checks() {
        let (_, _, out, batch) = served(3);
        let mut checks = Checks::default();
        check_embeddings(&mut checks, 0, &out, batch + 1);
        assert_eq!(checks.failed(), 1, "wrong row count");

        let mut nan = out.clone();
        let mut m = Matrix::zeros(nan.embeddings.rows(), nan.embeddings.cols());
        m.set(0, 0, f32::NAN);
        nan.embeddings = m;
        let mut checks = Checks::default();
        check_embeddings(&mut checks, 0, &nan, batch);
        assert_eq!(checks.failed(), 1, "non-finite value");
    }

    #[test]
    fn a_diverging_stage_path_trips_the_staged_check() {
        let w = tiny();
        let setup = w.setup(5);
        let mut board = setup.board.fork();
        let graph = &setup.base;
        let batch = &setup.batches[0];
        let record = board.serve(graph, batch, 1);
        let mut checks = Checks::default();
        check_staged(&mut checks, 0, &record.clone(), &record);
        let mut other = record.clone();
        other.upload_secs += 1e-9;
        check_staged(&mut checks, 0, &other, &record);
        assert_eq!(checks.failed(), 1);
    }

    #[test]
    fn batches_are_distinct_and_seeded() {
        let w = tiny();
        let a = w.setup(9);
        let b = w.setup(9);
        assert_eq!(a.batches, b.batches);
        for batch in &a.batches {
            let mut ids: Vec<_> = batch.iter().map(|v| v.index()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), w.batch);
        }
    }
}
