//! `qset`: the paper's protocol on the library path. RL-QVO (GQL filter,
//! learned order, CandidateSpace enumeration) trained at set-up, then
//! evaluated cold, serially, one query at a time, in whole passes over
//! the evaluation set; `--seed` shuffles the order of every pass.

use std::collections::BTreeMap;
use std::time::Instant;

use rlqvo_core::RlQvo;
use rlqvo_datasets::Dataset;
use rlqvo_graph::{Graph, VertexId};
use rlqvo_matching::{run_pipeline, scheduler_stats, GqlFilter, Pipeline};

use crate::common::*;
use crate::{Args, Outcome};

/// Evaluation set: 400 yeast-analog Q16 queries (the paper's Q16 count),
/// drawn from a fixed seed and disjoint from the training split.
const EVAL_SEED: u64 = 0xE7A1_0016;
const EVAL_QUERIES: usize = 400;

struct Inputs {
    g: Graph,
    eval: Vec<Graph>,
    model: RlQvo,
}

fn setup() -> (Inputs, SetupTimes) {
    let t0 = Instant::now();
    let g = Dataset::Yeast.load();
    let train = train_queries(&g);
    let eval = query_pool(&g, EVAL_QUERIES, EVAL_SEED, &train);
    let t1 = Instant::now();
    let model = train_model(&train, &g);
    let t2 = Instant::now();
    (Inputs { g, eval, model }, SetupTimes { datasets: t1 - t0, train: t2 - t1, ..SetupTimes::default() })
}

/// One completed operation of the timed phase.
struct Op {
    query: usize,
    matches: u64,
    enums: u64,
}

pub fn run(args: &Args) -> Outcome {
    let mut metrics = BTreeMap::new();
    let Inputs { g, eval, model } = repeated_setup(&mut metrics, setup);
    let filter = GqlFilter::default();
    let ordering = model.ordering();
    let config = enum_config(1);
    let pipeline = Pipeline { filter: &filter, ordering: &ordering, config };
    let sched0 = scheduler_stats();

    // Timed phase. With --trace 1, odd passes run the traced layer
    // decomposition and even passes the plain pipeline, so the overhead
    // is an interleaved A/B on the same inputs.
    let mut idx: Vec<usize> = (0..eval.len()).collect();
    let mut ops: Vec<Op> = Vec::new();
    let mut first_orders: Vec<Vec<VertexId>> = vec![Vec::new(); eval.len()];
    let mut lat_ms: Vec<f64> = Vec::new();
    let mut done: Vec<(f64, f64)> = Vec::new();
    let mut traced: Vec<Layers> = Vec::new();
    let mut failed = 0u64;
    let mut pass = 0u64;
    let min_passes = if args.trace { 2 } else { 1 };
    let start = Instant::now();
    while pass < min_passes || start.elapsed() < args.seconds {
        shuffle(&mut idx, &mut stream_rng(args.seed, 0, pass));
        let trace_pass = args.trace && pass % 2 == 1;
        for &i in &idx {
            if trace_pass {
                let l = traced_op(&eval[i], &g, &filter, &ordering, config, Some(&model));
                ops.push(Op { query: i, matches: l.matches, enums: l.calls });
                traced.push(l);
                continue;
            }
            let t = Instant::now();
            let r = run_pipeline(&eval[i], &g, &pipeline);
            let dt = t.elapsed();
            if r.enum_result.timed_out || r.enum_result.cancelled {
                failed += 1;
                continue;
            }
            lat_ms.push(ms(dt));
            done.push((start.elapsed().as_secs_f64(), ms(dt)));
            if pass == 0 {
                first_orders[i] = r.order;
            }
            ops.push(Op { query: i, matches: r.enum_result.match_count, enums: r.enum_result.enumerations });
        }
        pass += 1;
    }
    let rss = peak_rss_mb();
    let sched1 = scheduler_stats();

    // Checks, outside the timed phase.
    let mut problems = Vec::new();
    let first: Vec<&Op> = {
        let mut by_query: Vec<Option<&Op>> = vec![None; eval.len()];
        for op in &ops {
            by_query[op.query].get_or_insert(op);
        }
        by_query.into_iter().map(|o| o.expect("every query ran in the first pass")).collect()
    };
    for op in &ops {
        let f = first[op.query];
        if (op.matches, op.enums) != (f.matches, f.enums) {
            problems.push(format!(
                "query {}: run gave {}/{} matches/#enum, first pass {}/{}",
                op.query, op.matches, op.enums, f.matches, f.enums
            ));
        }
    }
    let reference = par_map(eval.len(), |i| reference_matches(&eval[i], &g));
    for (i, (&want, f)) in reference.iter().zip(&first).enumerate() {
        if f.matches != want {
            problems.push(format!("query {i}: {} matches, reference {want}", f.matches));
        }
    }
    for (i, order) in first_orders.iter().enumerate() {
        if let Err(e) = check_order(&eval[i], order) {
            problems.push(format!("query {i}: {e}"));
        }
    }
    for i in embedding_sample(eval.len(), args.seed) {
        if let Err(e) = check_embeddings(&eval[i], &g, &filter, &ordering, reference[i]) {
            problems.push(format!("query {i}: {e}"));
        }
    }
    problems.truncate(20);

    window_metrics(&mut metrics, done);
    metrics.insert("enum_calls", first.iter().map(|o| o.enums as f64).sum());
    metrics.insert("peak_rss_mb", rss);
    metrics.insert("sched.steals", (sched1.steals - sched0.steals) as f64);
    metrics.insert("sched.steal_failures", (sched1.steal_failures - sched0.steal_failures) as f64);
    if args.trace {
        layer_metrics(&mut metrics, &traced, &lat_ms);
    }
    Outcome { attempted: ops.len() as u64 + failed, failed, metrics, problems }
}
