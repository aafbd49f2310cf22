//! `serve-hot` and `serve-churn`: an in-process `rlqvo_serve::Server`
//! driven closed-loop over TCP through `roundtrip`, one request per
//! client in flight.
//!
//! * `serve-hot` — dblp analog, `method=hybrid`, unbounded caches holding
//!   a pool warmed at set-up; one client sends a Zipf-shaped round over
//!   the pool; with a token budget above 1 each request borrows helper
//!   tokens for work-stealing enumeration.
//! * `serve-churn` — yeast analog, `method=rlqvo` with the trained recipe,
//!   micro-batch 2, serial enumeration, both cache tiers byte-bounded
//!   below the working set; two clients split a mildly skewed round over
//!   thousands of distinct queries, so most requests miss.
//!
//! A round is a fixed multiset of pool indices; `--seed` shuffles it, so
//! every seed sends the same work in a different order.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rlqvo_core::RlQvo;
use rlqvo_datasets::Dataset;
use rlqvo_graph::Graph;
use rlqvo_matching::order::RiOrdering;
use rlqvo_matching::{run_pipeline, GqlFilter, OrderingMethod, Pipeline};
use rlqvo_serve::{roundtrip, Request, Response, ServeConfig, Server, ServerHandle};

use crate::common::*;
use crate::{Args, Outcome};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Churn,
}

/// `serve-hot` pool: 256 dblp-analog Q16 queries from a fixed seed; the
/// round sends pool rank `r` `max(1, round(HOT_ZIPF_SCALE / (r + 1)))`
/// times (Zipf, s = 1), about a thousand requests.
const HOT_POOL_SEED: u64 = 0xD0B1_0016;
const HOT_POOL: usize = 256;
const HOT_ZIPF_SCALE: f64 = 160.0;

/// `serve-churn` pool: 2048 distinct yeast-analog Q16 queries from a
/// fixed seed, disjoint from the training split. The round sends every
/// query once and the first eighth twice (mild skew).
const CHURN_POOL_SEED: u64 = 0xC4A1_0016;
const CHURN_POOL: usize = 2048;
const CHURN_CLIENTS: usize = 2;
const CHURN_BATCH: usize = 2;
/// Cache bounds, well below the pool's working set (README.md gives the
/// measured resident bytes and hit shares).
const CHURN_SPACE_BYTES: usize = 4 << 20;
const CHURN_ORDER_BYTES: usize = 32 << 10;

struct Inputs {
    g: Arc<Graph>,
    pool: Vec<Graph>,
    texts: Vec<String>,
    handle: ServerHandle,
    /// The model exactly as the server loaded it (`serve-churn`).
    model: Option<RlQvo>,
    /// Replies to the set-up warm-up (`serve-hot`), by pool index.
    warm: Vec<Response>,
}

fn method(kind: Kind) -> &'static str {
    match kind {
        Kind::Hot => "hybrid",
        Kind::Churn => "rlqvo",
    }
}

fn match_request(kind: Kind, text: &str) -> Request {
    Request::Match {
        deadline_ms: None,
        max_matches: None,
        method: Some(method(kind).to_string()),
        engine: None,
        inject: None,
        query_text: text.to_string(),
    }
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let s = handle.connect().expect("connect to the in-process server");
    s.set_nodelay(true).expect("set TCP_NODELAY");
    s
}

fn model_path() -> PathBuf {
    // Next to the benchmark binary, inside the build directory.
    let exe = std::env::current_exe().expect("benchmark binary path");
    exe.with_file_name(format!("e2ebench-model-{}.txt", std::process::id()))
}

fn setup(kind: Kind, tokens: usize) -> (Inputs, SetupTimes) {
    let t0 = Instant::now();
    let (g, pool, train) = match kind {
        Kind::Hot => {
            let g = Dataset::Dblp.load();
            let pool = query_pool(&g, HOT_POOL, HOT_POOL_SEED, &[]);
            (g, pool, Vec::new())
        }
        Kind::Churn => {
            let g = Dataset::Yeast.load();
            let train = train_queries(&g);
            let pool = query_pool(&g, CHURN_POOL, CHURN_POOL_SEED, &train);
            (g, pool, train)
        }
    };
    let texts: Vec<String> = pool.iter().map(graph_text).collect();
    let g = Arc::new(g);
    let t1 = Instant::now();
    let path = (kind == Kind::Churn).then(|| {
        let model = train_model(&train, &g);
        let path = model_path();
        model.save(&path).expect("write the trained model");
        path
    });
    let t2 = Instant::now();
    let defaults = ServeConfig::default();
    let config = match kind {
        Kind::Hot => ServeConfig { threads: tokens, enum_config: enum_config(tokens), ..defaults },
        Kind::Churn => ServeConfig {
            threads: tokens,
            enum_config: enum_config(1),
            batch: CHURN_BATCH,
            model_path: path.as_ref().map(|p| p.to_string_lossy().into_owned()),
            space_cache_bytes: Some(CHURN_SPACE_BYTES),
            order_cache_bytes: Some(CHURN_ORDER_BYTES),
            ..defaults
        },
    };
    let handle = Server::start(config, Arc::clone(&g)).expect("start the server");
    let mut warm = Vec::new();
    if kind == Kind::Hot {
        let mut s = connect(&handle);
        for t in &texts {
            warm.push(roundtrip(&mut s, &match_request(kind, t)).expect("warm-up reply"));
        }
    }
    let t3 = Instant::now();
    // The reference copy of the model is loaded outside the timed steps.
    let model = path.map(|p| {
        let m = RlQvo::load(&p, rlqvo_core::RlQvoConfig::harness()).expect("reload the trained model");
        std::fs::remove_file(&p).expect("remove the model file");
        m
    });
    let times = SetupTimes { datasets: t1 - t0, train: t2 - t1, warm: t3 - t2 };
    (Inputs { g, pool, texts, handle, model, warm }, times)
}

/// The round's multiset of pool indices.
fn round_multiset(kind: Kind, pool: usize) -> Vec<u32> {
    let mut m = Vec::new();
    for r in 0..pool {
        let copies = match kind {
            Kind::Hot => ((HOT_ZIPF_SCALE / (r + 1) as f64).round() as usize).max(1),
            Kind::Churn => 1 + usize::from(r < pool / 8),
        };
        m.extend(std::iter::repeat_n(r as u32, copies));
    }
    m
}

struct Op {
    query: u32,
    round: u64,
    /// Completion time since the timed phase began, in seconds.
    end_s: f64,
    lat_ms: f64,
    reply: std::io::Result<Response>,
}

/// What every client of a run shares.
struct Load<'a> {
    kind: Kind,
    texts: &'a [String],
    multiset: Vec<u32>,
    clients: usize,
    start: Instant,
}

/// One closed-loop client: whole rounds until `seconds` have passed.
/// Client `c` sends every `clients`-th request of each shuffled round.
fn client(handle: &ServerHandle, load: &Load<'_>, args: &Args, c: usize) -> Vec<Op> {
    let mut stream = connect(handle);
    let mut ops = Vec::new();
    let mut round = 0u64;
    while round == 0 || load.start.elapsed() < args.seconds {
        let round_start = Instant::now();
        let mut seq = load.multiset.clone();
        shuffle(&mut seq, &mut stream_rng(args.seed, 1, round));
        for &query in seq.iter().skip(c).step_by(load.clients) {
            let req = match_request(load.kind, &load.texts[query as usize]);
            let t = Instant::now();
            let reply = roundtrip(&mut stream, &req);
            let lat_ms = ms(t.elapsed());
            let end_s = load.start.elapsed().as_secs_f64();
            if reply.is_err() {
                // The connection is gone; later requests need a new one.
                stream = connect(handle);
            }
            ops.push(Op { query, round, end_s, lat_ms, reply });
        }
        eprintln!("e2ebench: client {c} round {round}: {:.3} s", round_start.elapsed().as_secs_f64());
        round += 1;
    }
    ops
}

fn server_metrics(handle: &ServerHandle) -> BTreeMap<String, u64> {
    match roundtrip(&mut connect(handle), &Request::Metrics) {
        Ok(Response::Metrics(m)) => m,
        other => panic!("metrics verb answered {other:?}"),
    }
}

pub fn run(args: &Args, kind: Kind) -> Outcome {
    let mut metrics = BTreeMap::new();
    let Inputs { g, pool, texts, handle, model, warm } = repeated_setup(&mut metrics, || setup(kind, args.tokens));
    let clients = if kind == Kind::Hot { 1 } else { CHURN_CLIENTS };
    let before = server_metrics(&handle);

    let load = Load { kind, texts: &texts, multiset: round_multiset(kind, pool.len()), clients, start: Instant::now() };
    let ops: Vec<Op> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let (handle, load) = (&handle, &load);
                s.spawn(move || client(handle, load, args, c))
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("client thread")).collect()
    });
    let rss = peak_rss_mb();
    let after = server_metrics(&handle);
    handle.shutdown();

    // Typed replies, split into completed and failed operations.
    let mut done = Vec::new();
    let mut exec = Vec::new();
    let mut wait = Vec::new();
    let mut failed = 0u64;
    let mut round0_enums = 0u64;
    let (mut enums_sum, mut matches_sum) = (0u64, 0u64);
    for op in &ops {
        match &op.reply {
            Ok(Response::Ok { matches, enums, micros, .. }) => {
                let exec_ms = *micros as f64 / 1e3;
                done.push((op.end_s, op.lat_ms));
                exec.push(exec_ms);
                wait.push(op.lat_ms - exec_ms);
                enums_sum += enums;
                matches_sum += matches;
                if op.round == 0 {
                    round0_enums += enums;
                }
            }
            // A failed operation is counted, not a check failure.
            Ok(other) => {
                failed += 1;
                eprintln!("e2ebench: query {} failed: {other:?}", op.query);
            }
            Err(e) => {
                failed += 1;
                eprintln!("e2ebench: query {} failed: transport error {e}", op.query);
            }
        }
    }
    let completed = ops.len() as u64 - failed;

    // Checks, outside the timed phase.
    let mut problems = Vec::new();
    let served = after["served"] - before["served"];
    if served != completed {
        problems.push(format!("server served {served} requests, clients got {completed} ok replies"));
    }
    let reference = par_map(pool.len(), |i| reference_matches(&pool[i], &g));
    for (i, r) in warm.iter().enumerate() {
        match r {
            Response::Ok { matches, .. } if *matches == reference[i] => {}
            other => problems.push(format!("warm-up query {i}: {other:?}, reference {} matches", reference[i])),
        }
    }
    for op in &ops {
        if let Ok(Response::Ok { matches, .. }) = &op.reply {
            if *matches != reference[op.query as usize] {
                problems
                    .push(format!("query {}: {matches} matches, reference {}", op.query, reference[op.query as usize]));
            }
        }
    }
    let filter = GqlFilter::default();
    let learned = model.as_ref().map(|m| m.ordering());
    let ordering: &dyn OrderingMethod = match &learned {
        Some(o) => o,
        None => &RiOrdering,
    };
    if kind == Kind::Churn {
        // `#enum` of every reply must equal a library run of the same
        // model; every learned order must be a connected permutation.
        let pipeline = Pipeline { filter: &filter, ordering, config: enum_config(1) };
        let library = par_map(pool.len(), |i| {
            let r = run_pipeline(&pool[i], &g, &pipeline);
            (r.enum_result.enumerations, check_order(&pool[i], &r.order))
        });
        for (i, (_, order_ok)) in library.iter().enumerate() {
            if let Err(e) = order_ok {
                problems.push(format!("query {i}: {e}"));
            }
        }
        for op in &ops {
            if let Ok(Response::Ok { enums, .. }) = &op.reply {
                if *enums != library[op.query as usize].0 {
                    problems.push(format!(
                        "query {}: {enums} #enum, library run {}",
                        op.query, library[op.query as usize].0
                    ));
                }
            }
        }
    }
    for i in embedding_sample(pool.len(), args.seed) {
        if let Err(e) = check_embeddings(&pool[i], &g, &filter, ordering, reference[i]) {
            problems.push(format!("query {i}: {e}"));
        }
    }
    problems.truncate(20);

    window_metrics(&mut metrics, done);
    metrics.insert("enum_calls", round0_enums as f64);
    metrics.insert("peak_rss_mb", rss);
    if args.trace {
        decompose(&mut metrics, &pool, &g, &filter, ordering, model.as_ref());
        let delta = |k: &str| (after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0)) as f64;
        let ratio = |hits: f64, misses: f64| if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 };
        let exec = sorted(exec);
        let wait = sorted(wait);
        let n = completed.max(1) as f64;
        metrics.insert("serve.exec_ms_p50", percentile(&exec, 0.5));
        metrics.insert("serve.exec_ms_p99", percentile(&exec, 0.99));
        metrics.insert("serve.wait_ms_p50", percentile(&wait, 0.5));
        metrics.insert("serve.wait_ms_p99", percentile(&wait, 0.99));
        metrics.insert("cache.space_hit_ratio", ratio(delta("space_hits"), delta("space_misses")));
        metrics.insert("cache.order_hit_ratio", ratio(delta("order_hits"), delta("order_misses")));
        metrics.insert("cache.space_evictions", delta("space_evictions"));
        metrics.insert("cache.order_evictions", delta("order_evictions"));
        metrics.insert("cache.space_bytes", after["space_bytes"] as f64);
        metrics.insert("cache.order_bytes", after["order_bytes"] as f64);
        let (mut jobs, mut batches) = (0.0, 0.0);
        for size in 1..=CHURN_BATCH {
            let c = delta(&format!("batch_size_{size}"));
            jobs += size as f64 * c;
            batches += c;
        }
        metrics.insert("batch.mean_occupancy", if batches > 0.0 { jobs / batches } else { 0.0 });
        metrics.insert("sched.steals", delta("steals"));
        metrics.insert("sched.steal_failures", delta("steal_failures"));
        // Per served request, from the replies (the library view above
        // is per pool query).
        metrics.insert("enum.calls", enums_sum as f64 / n);
        metrics.insert("enum.matches", matches_sum as f64 / n);
    }
    Outcome { attempted: ops.len() as u64, failed, metrics, problems }
}
