//! The traced run's in-process replay: the request lines the workload
//! sent over the wire are replayed, in order, through each layer's
//! public functions, and every call is recorded as a span.
//!
//! Three in-process engines follow the daemon's state:
//! - **A**, a `Dispatcher` with durability attached (default options,
//!   like the daemon): `serve.dispatch.*` spans time `dispatch_line`;
//! - **B**, a non-durable `Engine`: the layer calls (`Engine::execute`,
//!   `LabelStore::append_rows/register/refresh`);
//! - **C**, a durable store that only sees registrations and appends, so
//!   that `store.append.durable − store.append` is the WAL's share.
//!
//! Span tree per request (parents in the daemon's call order):
//! `serve.dispatch.query` → `json.parse.query`, `query.execute`
//! (→ `label.estimate`), `json.write.query`;
//! `serve.dispatch.append` → `json.parse.append`,
//! `store.append.durable` (→ `store.append` → `data.append_rows`),
//! `json.write.append`;
//! `serve.dispatch.register` → `json.parse.register`, `data.csv_parse`,
//! `store.register` (→ `search.top_down`), `json.write.register`;
//! `serve.dispatch.refresh` → `store.refresh` (→ `search.top_down`).

use std::sync::Arc;
use std::time::Instant;

use pclabel_core::attrset::AttrSet;
use pclabel_core::counting::{label_size_bounded, GroupCounts};
use pclabel_core::label::Label;
use pclabel_core::pattern::Pattern;
use pclabel_core::search::{top_down_search, SearchOptions, SearchStats};
use pclabel_data::csv::{read_dataset_from_str, CsvOptions};
use pclabel_data::dataset::Dataset;
use pclabel_engine::durability::{Durability, DurabilityOptions};
use pclabel_engine::json::Json;
use pclabel_engine::parallel::auto_threads;
use pclabel_engine::query::{Engine, EngineConfig, PatternSpec, QueryRequest};
use pclabel_engine::serve::Dispatcher;
use pclabel_engine::store::LabelPolicy;
use pclabel_telemetry::{LogLevel, Logger, Telemetry};

use crate::session::Kind;
use crate::util::{median, Rng};
use crate::workloads::Outcome;

type Metric = (&'static str, f64, &'static str);

fn durable_engine(
    dir: &std::path::Path,
    options: DurabilityOptions,
    telemetry: &Telemetry,
) -> (Engine, Arc<Durability>) {
    let _ = std::fs::remove_dir_all(dir);
    let engine = Engine::new(EngineConfig::default());
    let durability = Durability::open(dir, options, engine.store_arc(), telemetry.registry())
        .expect("open replay data dir");
    engine.attach_durability(Arc::clone(&durability));
    (engine, durability)
}

fn policy_of(req: &Json, ds: &Dataset) -> LabelPolicy {
    if let Some(names) = req.get("label_attrs").and_then(Json::as_array) {
        let mut set = AttrSet::EMPTY;
        for n in names.iter().filter_map(Json::as_str) {
            set = set.insert(ds.schema().index_of(n).expect("label attribute in schema"));
        }
        LabelPolicy::Attrs(set)
    } else {
        let bound = req.get("bound").and_then(Json::as_u64).unwrap_or(50);
        LabelPolicy::Search {
            bound,
            refine: true,
        }
    }
}

/// The search the daemon runs for a bound (see the engine's
/// `compute_search_label`): refinement on, auto-sized threads.
fn search(ds: &Dataset, bound: u64) -> SearchStats {
    let workers = auto_threads(ds.n_rows());
    let opts = SearchOptions::with_bound(bound)
        .refine(true)
        .threads(workers)
        .count_threads(workers);
    top_down_search(ds, &opts).expect("search runs").stats
}

fn query_request(req: &Json) -> QueryRequest {
    let patterns = req
        .get("patterns")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|p| PatternSpec {
            terms: p
                .as_object()
                .unwrap_or(&[])
                .iter()
                .map(|(a, v)| (a.clone(), v.as_str().unwrap_or_default().to_string()))
                .collect(),
        })
        .collect();
    QueryRequest {
        id: None,
        dataset: req
            .get("dataset")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        patterns,
    }
}

fn rows_of(req: &Json) -> Vec<Vec<Option<String>>> {
    req.get("rows")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|r| {
            r.as_array()
                .unwrap_or(&[])
                .iter()
                .map(|c| c.as_str().map(str::to_string))
                .collect()
        })
        .collect()
}

#[derive(Default)]
struct Counts {
    cache_hits: u64,
    cache_misses: u64,
    estimated_patterns: u64,
    appends: u64,
    incremental: u64,
    wal_bytes: u64,
    appended_rows: u64,
    searches: Vec<SearchStats>,
}

pub fn layers(o: &mut Outcome) -> Vec<Metric> {
    let run = o.session.run_dir();
    let telemetry = Telemetry::with_options(
        Logger::new(LogLevel::Warn, None),
        pclabel_telemetry::DEFAULT_RETAINED_TRACES,
    );
    let (engine_a, durability_a) = durable_engine(
        &run.join("replay-a"),
        DurabilityOptions::default(),
        &telemetry,
    );
    let a = Dispatcher::with_engine(engine_a, Arc::clone(&telemetry));
    let b = Engine::new(EngineConfig::default());
    let c_options = DurabilityOptions {
        snapshot_wal_bytes: u64::MAX,
        ..DurabilityOptions::default()
    };
    let c_telemetry = Telemetry::new();
    let (c, durability_c) = durable_engine(&run.join("replay-c"), c_options, &c_telemetry);

    // search_register replays its last round (each round starts from
    // scratch); the other workloads replay everything they sent.
    let from = if o.session.cfg.workload == "search_register" {
        o.main_lines.start
    } else {
        0
    };
    let lines = std::mem::take(&mut o.session.lines);
    let main = o.main_lines.clone();
    let tracer = &mut o.session.tracer;
    let mut n = Counts::default();
    let mut wire_query = Vec::new();
    let mut wire_append = Vec::new();
    let mut wire_register = Vec::new();
    let mut wire_refresh = Vec::new();
    let mut out = String::new();
    for (i, (kind, line, secs)) in lines.iter().enumerate().skip(from) {
        let id = i as u64;
        match kind {
            Kind::Query => {
                let measured = main.contains(&i);
                let (resp, d) =
                    tracer.time("serve.dispatch.query", id, None, || a.dispatch_line(line));
                out.clear();
                tracer.time("json.write.query", id, Some(d), || resp.write(&mut out));
                let (parsed, _) = tracer.time("json.parse.query", id, Some(d), || {
                    Json::parse(line).expect("own line")
                });
                let req = query_request(&parsed);
                let (resp_b, e) = tracer.time("query.execute", id, Some(d), || {
                    b.execute(&req).expect("execute")
                });
                // Re-time the Def. 2.11 arithmetic for the patterns the
                // engine had to estimate (not cached, not exact).
                let entry = b.store().get(&req.dataset).expect("dataset");
                let (ds, label, _) = entry.snapshot();
                let pats: Vec<Pattern> = req
                    .patterns
                    .iter()
                    .zip(&resp_b.results)
                    .filter(|(_, r)| !r.cached && !r.exact && r.error.is_none())
                    .filter_map(|(spec, _)| {
                        let terms: Vec<(&str, &str)> = spec
                            .terms
                            .iter()
                            .map(|(a, v)| (a.as_str(), v.as_str()))
                            .collect();
                        Pattern::parse(&ds, &terms).ok()
                    })
                    .collect();
                if !pats.is_empty() {
                    tracer.time("label.estimate", id, Some(e), || {
                        pats.iter().map(|p| label.estimate(p)).sum::<f64>()
                    });
                }
                n.estimated_patterns += pats.len() as u64;
                if measured {
                    n.cache_hits += resp_b.stats.cache_hits;
                    n.cache_misses += resp_b.stats.cache_misses;
                    wire_query.push(*secs);
                }
            }
            Kind::Append => {
                let (resp, d) =
                    tracer.time("serve.dispatch.append", id, None, || a.dispatch_line(line));
                out.clear();
                tracer.time("json.write.append", id, Some(d), || resp.write(&mut out));
                let (parsed, _) = tracer.time("json.parse.append", id, Some(d), || {
                    Json::parse(line).expect("own line")
                });
                let name = parsed
                    .get("dataset")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                let rows = rows_of(&parsed);
                let before = durability_c.stats().wal_bytes;
                let (_, cd) = tracer.time("store.append.durable", id, Some(d), || {
                    c.store().append_rows(&name, &rows).expect("append C")
                });
                n.wal_bytes += durability_c.stats().wal_bytes.saturating_sub(before);
                // The dataset clone + extend the store does first, re-timed
                // on the same snapshot.
                let snapshot = b.store().get(&name).expect("dataset").dataset();
                let t0 = Instant::now();
                let mut grown = (*snapshot).clone();
                grown.append_labeled_rows(&rows).expect("schema");
                let t1 = Instant::now();
                drop(std::hint::black_box(grown));
                let (report, sa) = tracer.time("store.append", id, Some(cd), || {
                    b.store().append_rows(&name, &rows).expect("append B")
                });
                tracer.record("data.append_rows", id, Some(sa), t0, t1);
                n.appends += 1;
                n.incremental += report.incremental as u64;
                n.appended_rows += rows.len() as u64;
                wire_append.push(*secs);
            }
            Kind::Register => {
                let (resp, d) = tracer.time("serve.dispatch.register", id, None, || {
                    a.dispatch_line(line)
                });
                out.clear();
                tracer.time("json.write.register", id, Some(d), || resp.write(&mut out));
                let (parsed, _) = tracer.time("json.parse.register", id, Some(d), || {
                    Json::parse(line).expect("own line")
                });
                let name = parsed
                    .get("dataset")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                let csv = parsed.get("csv").and_then(Json::as_str).unwrap_or_default();
                let (ds, _) = tracer.time("data.csv_parse", id, Some(d), || {
                    read_dataset_from_str(csv, &CsvOptions::default())
                        .expect("csv")
                        .with_name(name.as_str())
                });
                let policy = policy_of(&parsed, &ds);
                let (entry, s) = tracer.time("store.register", id, Some(d), || {
                    b.store()
                        .register(name.clone(), ds.clone(), policy)
                        .expect("register B")
                });
                if let LabelPolicy::Search { bound, .. } = policy {
                    let (stats, _) =
                        tracer.time("search.top_down", id, Some(s), || search(&ds, bound));
                    n.searches.push(stats);
                }
                let attrs = entry.label().attrs();
                c.store()
                    .register(name, ds, LabelPolicy::Attrs(attrs))
                    .expect("register C");
                wire_register.push(*secs);
            }
            Kind::Refresh => {
                let (_, d) =
                    tracer.time("serve.dispatch.refresh", id, None, || a.dispatch_line(line));
                let parsed = Json::parse(line).expect("own line");
                let name = parsed
                    .get("dataset")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                let ds = b.store().get(&name).expect("dataset").dataset();
                let policy = policy_of(&parsed, &ds);
                let (_, s) = tracer.time("store.refresh", id, Some(d), || {
                    b.store().refresh(&name, policy).expect("refresh B")
                });
                if let LabelPolicy::Search { bound, .. } = policy {
                    let (stats, _) =
                        tracer.time("search.top_down", id, Some(s), || search(&ds, bound));
                    n.searches.push(stats);
                }
                let attrs = b.store().get(&name).expect("dataset").label().attrs();
                c.store()
                    .refresh(&name, LabelPolicy::Attrs(attrs))
                    .expect("refresh C");
                wire_refresh.push(*secs);
            }
        }
    }

    // Layers the replayed lines did not reach on this workload's data.
    let mut rng = Rng::fork(o.session.cfg.seed, "replay.lattice");
    let mut size_bounded = Vec::new();
    let mut label_build = 0.0;
    let mut group_build = 0.0;
    for (src, bound) in &o.search_inputs {
        let ds = &src.base;
        if n.searches.is_empty() {
            let (stats, _) = tracer.time("search.top_down", 0, None, || search(ds, *bound));
            n.searches.push(stats);
        }
        for _ in 0..64 {
            let k = 2 + rng.below(3);
            let (picks, len) = rng.choose4(ds.n_attrs(), k);
            let set = picks[..len]
                .iter()
                .fold(AttrSet::EMPTY, |s, &a| s.insert(a));
            let t = Instant::now();
            std::hint::black_box(label_size_bounded(ds, set, *bound));
            size_bounded.push(t.elapsed().as_secs_f64());
        }
    }
    for live in o.session.live.values() {
        let time3 = |f: &dyn Fn()| {
            median(
                &(0..3)
                    .map(|_| {
                        let t = Instant::now();
                        f();
                        t.elapsed().as_secs_f64()
                    })
                    .collect::<Vec<_>>(),
            )
        };
        label_build +=
            time3(&|| drop(std::hint::black_box(Label::build(&live.mirror, live.attrs))));
        group_build += time3(&|| {
            drop(std::hint::black_box(GroupCounts::build(
                &live.mirror,
                None,
                live.attrs,
            )))
        });
    }
    let snapshot_s = median(
        &(0..3)
            .map(|_| {
                let t = Instant::now();
                durability_a.snapshot_now().expect("snapshot");
                t.elapsed().as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    let (open_s, replayed) = match &o.recovery.killed_copy {
        Some(dir) => {
            let engine = Engine::new(EngineConfig::default());
            let registry = pclabel_telemetry::Registry::new();
            let t = Instant::now();
            let d = Durability::open(
                dir,
                DurabilityOptions::default(),
                engine.store_arc(),
                &registry,
            )
            .expect("open killed copy");
            let secs = t.elapsed().as_secs_f64();
            let replayed = d.recovery().replayed_records as f64;
            drop(d);
            let _ = std::fs::remove_dir_all(dir);
            (secs, replayed)
        }
        None => (f64::NAN, f64::NAN),
    };
    drop(a);
    drop(durability_a);
    drop(durability_c);
    for dir in ["replay-a", "replay-c"] {
        let _ = std::fs::remove_dir_all(run.join(dir));
    }

    // Per-request medians for the many small ops (µs), per-round totals
    // for register/refresh (s).
    let t = &*tracer;
    let med_us = |name: &str| t.median_self(name) * 1e6;
    let wire_med = |v: &[f64]| median(v) * 1e6;
    let total = |name: &str| t.self_times(name).iter().sum::<f64>();
    let wire_total = |v: &[f64]| v.iter().sum::<f64>();
    let dispatch_q = t.median_dur("serve.dispatch.query") * 1e6;
    let dispatch_a = t.median_dur("serve.dispatch.append") * 1e6;
    let q_wire = wire_med(&wire_query);
    let a_wire = wire_med(&wire_append);

    let q_parts = [
        med_us("serve.dispatch.query"),
        med_us("json.parse.query"),
        med_us("query.execute"),
        med_us("label.estimate"),
        med_us("json.write.query"),
    ];
    let a_parts = [
        med_us("serve.dispatch.append"),
        med_us("json.parse.append"),
        med_us("store.append.durable"),
        med_us("store.append"),
        med_us("data.append_rows"),
        med_us("json.write.append"),
    ];
    let reg_layers = [
        "serve.dispatch.register",
        "json.parse.register",
        "json.write.register",
        "data.csv_parse",
        "store.register",
    ];
    let ref_layers = ["serve.dispatch.refresh", "store.refresh"];
    let search_total = t.durations("search.top_down").iter().sum::<f64>();
    let reg_wire = wire_total(&wire_register);
    let ref_wire = wire_total(&wire_refresh);
    // Registrations and refreshes have no net span of their own: what the
    // in-process spans leave of the wire total (the CSV's transfer,
    // framing, the daemon's queueing) is their unaccounted share.
    let reg_sum: f64 = reg_layers.iter().map(|l| total(l)).sum::<f64>();
    let ref_sum: f64 = ref_layers.iter().map(|l| total(l)).sum::<f64>();
    // search.top_down spans hang under both store.register and
    // store.refresh; their totals complete both sums.
    let reg_search: f64 = t
        .spans
        .iter()
        .filter(|s| {
            s.name == "search.top_down"
                && s.parent
                    .is_some_and(|p| t.spans[p].name == "store.register")
        })
        .map(|s| s.secs())
        .sum();
    let ref_search = search_total
        - reg_search
        - t.spans
            .iter()
            .filter(|s| s.name == "search.top_down" && s.parent.is_none())
            .map(|s| s.secs())
            .sum::<f64>();

    let sum_stats = |f: &dyn Fn(&SearchStats) -> f64| n.searches.iter().map(f).sum::<f64>();
    let split = &o.session.query_split;
    let overhead = (median(&split[1]) - median(&split[0])) * 1e6;
    vec![
        (
            "net.health_rtt_p50_us",
            median(&o.session.health_rtt) * 1e6,
            "us",
        ),
        ("net.query_overhead_us", q_wire - dispatch_q, "us"),
        ("net.append_overhead_us", a_wire - dispatch_a, "us"),
        ("serve.dispatch_query_p50_us", dispatch_q, "us"),
        ("serve.dispatch_append_p50_us", dispatch_a, "us"),
        ("serve.query_self_us", q_parts[0], "us"),
        ("serve.append_self_us", a_parts[0], "us"),
        ("json.parse_us", q_parts[1], "us"),
        ("json.write_us", q_parts[4], "us"),
        ("json.parse_append_us", a_parts[1], "us"),
        ("json.write_append_us", a_parts[5], "us"),
        (
            "query.execute_p50_us",
            t.median_dur("query.execute") * 1e6,
            "us",
        ),
        ("query.execute_self_us", q_parts[2], "us"),
        ("label.estimate_self_us", q_parts[3], "us"),
        (
            "cache.hit_ratio",
            n.cache_hits as f64 / (n.cache_hits + n.cache_misses).max(1) as f64,
            "ratio",
        ),
        (
            "label.estimate_ns",
            t.durations("label.estimate").iter().sum::<f64>() * 1e9
                / n.estimated_patterns.max(1) as f64,
            "ns",
        ),
        ("label.build_ms", label_build * 1e3, "ms"),
        ("counting.group_build_ms", group_build * 1e3, "ms"),
        (
            "counting.size_bounded_us",
            median(&size_bounded) * 1e6,
            "us",
        ),
        ("search.top_down_s", search_total, "s"),
        (
            "search.sizing_s",
            sum_stats(&|s| s.search_time.as_secs_f64()),
            "s",
        ),
        (
            "search.eval_s",
            sum_stats(&|s| s.eval_time.as_secs_f64()),
            "s",
        ),
        (
            "search.nodes_examined",
            sum_stats(&|s| s.nodes_examined as f64),
            "count",
        ),
        (
            "search.candidates_evaluated",
            sum_stats(&|s| s.candidates_evaluated as f64),
            "count",
        ),
        (
            "data.csv_parse_ms",
            t.durations("data.csv_parse").iter().sum::<f64>() * 1e3,
            "ms",
        ),
        (
            "data.append_rows_us",
            t.median_dur("data.append_rows") * 1e6,
            "us",
        ),
        (
            "store.register_s",
            t.durations("store.register").iter().sum::<f64>(),
            "s",
        ),
        (
            "store.refresh_s",
            t.durations("store.refresh").iter().sum::<f64>(),
            "s",
        ),
        (
            "store.append_p50_us",
            t.median_dur("store.append") * 1e6,
            "us",
        ),
        ("store.append_self_us", a_parts[3], "us"),
        (
            "store.append_incremental_ratio",
            n.incremental as f64 / n.appends.max(1) as f64,
            "ratio",
        ),
        ("wal.append_p50_us", a_parts[2], "us"),
        ("wal.fsyncs", o.recovery.fsyncs, "count"),
        (
            "wal.bytes_per_row",
            n.wal_bytes as f64 / n.appended_rows.max(1) as f64,
            "B/row",
        ),
        ("durability.snapshot_s", snapshot_s, "s"),
        ("durability.open_s", open_s, "s"),
        ("durability.replayed_records", replayed, "count"),
        (
            "unaccounted.query_us",
            q_wire - (q_wire - dispatch_q) - q_parts.iter().sum::<f64>(),
            "us",
        ),
        (
            "unaccounted.append_us",
            a_wire - (a_wire - dispatch_a) - a_parts.iter().sum::<f64>(),
            "us",
        ),
        (
            "unaccounted.register_s",
            reg_wire - reg_sum - reg_search,
            "s",
        ),
        (
            "unaccounted.refresh_s",
            ref_wire - ref_sum - ref_search.max(0.0),
            "s",
        ),
        ("trace.overhead_query_us", overhead, "us"),
    ]
}
