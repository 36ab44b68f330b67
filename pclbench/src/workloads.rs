//! The two workloads. Each one boots a daemon, registers its data,
//! runs its main phase on one closed-loop connection, and ends with the
//! same durability epilogue, so every run reports every end-to-end
//! metric.

use std::time::Instant;

use crate::data::{self, Policy, Rows, Shape, Source, Terms, APPEND_ROWS};
use crate::oracle::{self, Expected};
use crate::session::{Config, Kind, Recovery, Session};
use crate::util::{best, median, Rng};
use crate::wire;

/// What a workload hands back to `main`.
pub struct Outcome {
    pub session: Session,
    pub setup_s: f64,
    pub register_s: f64,
    pub refresh_s: f64,
    pub recovery: Recovery,
    /// Index range of `session.lines` holding the main phase.
    pub main_lines: std::ops::Range<usize>,
    /// Datasets the traced replay runs the search layers over, with the
    /// bound and the attribute names of their label.
    pub search_inputs: Vec<(Source, u64)>,
}

/// Appends to each registered copy (see [`time_register`]).
const COPY_APPENDS: usize = 6;
/// Requests between two placements of the daemon on the faster CPU (see
/// [`Session::place_daemon`]).
const PLACE_EVERY: usize = 1_000;
/// Timed restarts in the durability epilogue.
const RESTARTS: usize = 16;
/// Patterns per `search_register` query request.
const PER_QUERY: usize = 8;
/// `--snapshot-wal-bytes` for the workloads whose main phase is not about
/// durability: large enough that no background snapshot lands inside
/// their timed requests (their timing relative to the client is random,
/// and a snapshot of the whole store stalls the daemon's one CPU for
/// milliseconds). `ingest_cold` keeps the default so that it measures
/// snapshots under ingest.
const QUIET_SNAPSHOTS: &str = "1073741824";
/// Registrations (fixed attributes, so each is a single request) timed by
/// `ingest_cold`, spread over the run.
const REGISTERS: usize = 16;
/// The daemon's default `--snapshot-wal-bytes`.
const DEFAULT_SNAPSHOT_BYTES: u64 = 4 * 1024 * 1024;
/// Appends after the compacting restart: the WAL tail every timed
/// restart replays.
const TAIL_APPENDS: usize = 20;

fn tail_batches(src: &Source, start: usize) -> Vec<Vec<Vec<Option<String>>>> {
    (0..TAIL_APPENDS)
        .map(|i| {
            let from = (start + i * APPEND_ROWS) % (src.fresh.len() - APPEND_ROWS);
            src.fresh[from..from + APPEND_ROWS].to_vec()
        })
        .collect()
}

fn names(src: &Source, attrs: &[&str]) -> (Policy, Vec<usize>) {
    (
        Policy::Attrs(attrs.iter().map(|s| s.to_string()).collect()),
        attrs.iter().map(|a| src.attr_index(a)).collect(),
    )
}

/// Gives the copy registered last time (if any) [`COPY_APPENDS`] appends
/// of the first fresh rows and drops it, then times the registration of
/// `src` under a new copy name.
///
/// Every copy's appends do the same work (the workload's own append
/// target grows, so its appends get slower through the run); spread over
/// the run, they give `append_min_us` repetitions of one cost. A
/// registration writes the whole dataset to the WAL, which starts a
/// background snapshot that then runs beside the workload's requests;
/// the client first waits until none is running or due (`snapshot_bytes`
/// is the daemon's `--snapshot-wal-bytes`), so that no timed registration
/// or copy append starts while one runs.
fn time_register(s: &mut Session, name: &str, src: &Source, policy: &Policy, snapshot_bytes: u64) {
    let made = retire_copy(s, name, src, snapshot_bytes);
    s.register(&format!("{name}_copy{made}"), &src.csv, &src.base, policy);
}

/// The first half of [`time_register`]: appends to the last copy and
/// drops it. Returns the number of copies registered so far.
fn retire_copy(s: &mut Session, name: &str, src: &Source, snapshot_bytes: u64) -> usize {
    let made = s.lat.get(&Kind::Register).map_or(0, Vec::len);
    s.settle_snapshots(snapshot_bytes);
    if made > 0 {
        let copy = format!("{name}_copy{}", made - 1);
        for batch in src.fresh.chunks(APPEND_ROWS).take(COPY_APPENDS) {
            s.append(&copy, batch);
        }
        s.drop_dataset(&copy);
    }
    made
}

/// The fastest of the session's timed requests of one kind (see
/// [`best`]).
fn best_of(s: &Session, kind: Kind) -> f64 {
    s.lat.get(&kind).map_or(f64::NAN, |v| best(v))
}

/// Runs a workload's set-up (data generation, daemon spawn, set-up
/// registrations, warm-up) `times` times, each from scratch, and keeps
/// the last. Returns it with the median set-up time. Dropping an earlier
/// set-up kills its daemon.
fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<(T, Session), String>,
) -> Result<(T, Session, f64), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t0 = Instant::now();
        let (inputs, s) = setup()?;
        secs.push(t0.elapsed().as_secs_f64());
        if s.failed > 0 {
            return Err(format!("{} failures during set-up", s.failed));
        }
        last = Some((inputs, s));
    }
    let (inputs, s) = last.expect("at least one set-up");
    Ok((inputs, s, median(&secs)))
}

/// `ingest_cold`'s generated inputs.
struct ColdInputs {
    src: Source,
    policy: Policy,
    label_idx: Vec<usize>,
    universe: Vec<Terms>,
    /// Per request: the frame, and the universe indices of a query
    /// (`None` for an append).
    script: Vec<(Vec<u8>, Option<Vec<usize>>)>,
    warm: Vec<Vec<u8>>,
}

const COLD_PER_REQUEST: usize = 32;
const COLD_REQUESTS: usize = 30_000;
const COLD_EVERY: usize = 20;

fn cold_inputs(seed: u64) -> ColdInputs {
    const UNIVERSE: usize = 1_000_000;
    let appends = COLD_REQUESTS / COLD_EVERY;
    let src = Source::new(
        Shape::CreditCard,
        (appends + TAIL_APPENDS) * APPEND_ROWS,
        seed,
    );
    let (policy, label_idx) = names(&src, &["PAY_1", "PAY_2", "default"]);
    let mut rng = Rng::fork(seed, "ingest_cold.patterns");
    let universe = data::pattern_pool(
        &src.base,
        Rows::Uniform,
        UNIVERSE,
        2..=4,
        &label_idx,
        1.0 / 16.0,
        &mut rng,
    );
    let mut script = Vec::with_capacity(COLD_REQUESTS);
    let mut appended = 0usize;
    for i in 0..COLD_REQUESTS {
        if i % COLD_EVERY == COLD_EVERY - 1 {
            let rows = &src.fresh[appended * APPEND_ROWS..(appended + 1) * APPEND_ROWS];
            script.push((wire::frame(&data::append_line("cold", rows)), None));
            appended += 1;
        } else {
            let picks: Vec<usize> = (0..COLD_PER_REQUEST).map(|_| rng.below(UNIVERSE)).collect();
            let pats = picks
                .iter()
                .map(|&p| data::pattern_json(&src.base, &universe[p]))
                .collect();
            script.push((wire::frame(&data::query_line("cold", pats)), Some(picks)));
        }
    }
    // Warm-up queries come from the same universe but are not in the script.
    let warm = (0..500)
        .map(|_| {
            let pats = (0..COLD_PER_REQUEST)
                .map(|_| data::pattern_json(&src.base, &universe[rng.below(UNIVERSE)]))
                .collect();
            wire::frame(&data::query_line("cold", pats))
        })
        .collect();
    ColdInputs {
        src,
        policy,
        label_idx,
        universe,
        script,
        warm,
    }
}

/// CreditCard-like data with a fixed label; 32-pattern queries drawn
/// uniformly from ≥1,000,000 distinct patterns, every 20th request a
/// 100-row append. A fixed script, so the data grows the same way on
/// every commit. Spread through it: a refresh of `cold_r`, a copy that
/// is never appended to, every 500th request, and the registration of a
/// further copy every 1,875th (see [`time_register`]).
pub fn ingest_cold(cfg: Config) -> Result<Outcome, String> {
    const REFRESH_EVERY: usize = 500;
    const REGISTER_EVERY: usize = COLD_REQUESTS / REGISTERS;
    const CHECK_EVERY_GENERATION: usize = 15;
    let appends = COLD_REQUESTS / COLD_EVERY;
    let seed = cfg.seed;
    let (inp, mut s, setup_s) = repeated_setup(3, || {
        let inp = cold_inputs(seed);
        let mut s = Session::start(cfg.clone(), &[])?;
        s.timed = false;
        s.register("cold", &inp.src.csv, &inp.src.base, &inp.policy);
        s.register("cold_r", &inp.src.csv, &inp.src.base, &inp.policy);
        for f in &inp.warm {
            s.send(Kind::Query, f);
        }
        s.timed = true;
        Ok((inp, s))
    })?;
    let ColdInputs {
        src,
        policy,
        label_idx,
        universe,
        script,
        ..
    } = &inp;
    s.phase("main phase");

    let main_start = s.lines.len();
    let mut responses: Vec<Vec<u8>> = Vec::with_capacity(COLD_REQUESTS);
    let mut appended = 0usize;
    for (i, (frame, query)) in script.iter().enumerate() {
        if i.is_multiple_of(PLACE_EVERY) {
            s.place_daemon();
        }
        // Refreshes (same attributes: a full label rebuild) and
        // registrations of the fixed-size copies do not change any
        // answer of `cold`.
        if i > 0 && i % REFRESH_EVERY == 0 {
            s.refresh("cold_r", policy);
        }
        if i % REGISTER_EVERY == REGISTER_EVERY / 2 {
            time_register(&mut s, "cold", src, policy, DEFAULT_SNAPSHOT_BYTES);
        }
        if query.is_some() {
            responses.push(s.send(Kind::Query, frame));
        } else {
            let rows = &src.fresh[appended * APPEND_ROWS..(appended + 1) * APPEND_ROWS];
            s.append_line("cold", frame, rows);
            responses.push(Vec::new());
            appended += 1;
        }
    }
    retire_copy(&mut s, "cold", src, DEFAULT_SNAPSHOT_BYTES);
    let main_lines = main_start..s.lines.len();

    s.phase("checking answers");
    // Every answer of every 15th generation, against a label rebuilt
    // from scratch over the rows acked up to that point.
    let mut mirror = src.base.clone();
    let attrs = s.live["cold"].attrs;
    let mut generation = 0usize;
    let mut pending: Vec<(usize, &Vec<usize>)> = Vec::new();
    let flush = |mirror: &pclabel_data::dataset::Dataset,
                 pending: &mut Vec<(usize, &Vec<usize>)>,
                 s: &mut Session| {
        if pending.is_empty() {
            return;
        }
        let pats: Vec<Terms> = pending
            .iter()
            .flat_map(|(_, picks)| picks.iter().map(|&p| universe[p]))
            .collect();
        let want = oracle::expected(mirror, attrs, &pats, false);
        for ((i, _), chunk) in pending.iter().zip(want.chunks(COLD_PER_REQUEST)) {
            let refs: Vec<&Expected> = chunk.iter().collect();
            let r = wire::parse(&responses[*i])
                .and_then(|j| oracle::check_query(&j, &refs, Some(mirror.n_rows() as u64)));
            s.check(r.map_err(|e| format!("ingest request {i}: {e}")));
        }
        pending.clear();
    };
    for (i, (_, query)) in script.iter().enumerate() {
        match query {
            Some(picks) if generation.is_multiple_of(CHECK_EVERY_GENERATION) => {
                pending.push((i, picks))
            }
            Some(_) => {}
            None => {
                flush(&mirror, &mut pending, &mut s);
                let rows = &src.fresh[generation * APPEND_ROWS..(generation + 1) * APPEND_ROWS];
                mirror.append_labeled_rows(rows).expect("schema");
                generation += 1;
            }
        }
    }
    flush(&mirror, &mut pending, &mut s);
    drop(responses);
    let register_s = best_of(&s, Kind::Register);
    let refresh_s = best_of(&s, Kind::Refresh);
    let mut check_rng = Rng::fork(seed, "ingest_cold.check");
    let check = data::pattern_pool(
        &s.live["cold"].mirror,
        Rows::Same,
        4_000,
        2..=4,
        label_idx,
        1.0 / 16.0,
        &mut check_rng,
    );
    let tail = tail_batches(src, appends * APPEND_ROWS);
    let recovery = s.durability_epilogue("cold", &tail, &[("cold".to_string(), check)], RESTARTS);
    Ok(Outcome {
        session: s,
        setup_s,
        register_s,
        refresh_s,
        recovery,
        main_lines,
        search_inputs: vec![(inp.src, 50)],
    })
}

/// One data instance of `search_register`: the three shapes with 10%
/// fresh rows each, and 400 pre-encoded 8-pattern queries per dataset.
struct Instance {
    sources: Vec<Source>,
    queries: Vec<Vec<(Vec<u8>, Vec<Terms>)>>,
}

/// (dataset name, source index, bound): the paper's bound 50 on every
/// shape, plus a 100× larger bound on the shape where that search stays
/// sub-second.
const SEARCHES: [(&str, usize, u64); 4] = [
    ("bluenile_b50", 0, 50),
    ("bluenile_b5000", 0, 5000),
    ("compas_b50", 1, 50),
    ("creditcard_b50", 2, 50),
];

fn instance(seed: u64) -> Instance {
    const QUERIES: usize = 400;
    let shapes = [Shape::BlueNile, Shape::Compas, Shape::CreditCard];
    let sources: Vec<Source> = shapes
        .iter()
        .enumerate()
        .map(|(i, &sh)| {
            Source::new(
                sh,
                sh.rows() / 10,
                seed.wrapping_mul(31).wrapping_add(i as u64),
            )
        })
        .collect();
    let mut rng = Rng::fork(seed, "search_register.patterns");
    let pools: Vec<Vec<Terms>> = sources
        .iter()
        .map(|src| data::pattern_pool(&src.base, Rows::Same, 2_000, 2..=3, &[], 0.0, &mut rng))
        .collect();
    let queries = SEARCHES
        .iter()
        .map(|&(name, si, _)| {
            (0..QUERIES)
                .map(|_| {
                    let pats: Vec<Terms> = (0..PER_QUERY)
                        .map(|_| pools[si][rng.below(pools[si].len())])
                        .collect();
                    let json = pats
                        .iter()
                        .map(|p| data::pattern_json(&sources[si].base, p))
                        .collect();
                    (wire::frame(&data::query_line(name, json)), pats)
                })
                .collect()
        })
        .collect();
    Instance { sources, queries }
}

/// One round: register the four searches, query, append the 10% fresh
/// rows in 100-row batches, refresh at the same bound and query again.
/// Returns the wall time of each registration and of each refresh, in
/// [`SEARCHES`] order.
fn search_round(s: &mut Session, inst: &Instance) -> (Vec<f64>, Vec<f64>) {
    let last = |s: &Session, k: Kind| s.lat.get(&k).and_then(|v| v.last().copied());
    let mut registers = Vec::with_capacity(SEARCHES.len());
    for &(name, si, bound) in &SEARCHES {
        s.register(
            name,
            &inst.sources[si].csv,
            &inst.sources[si].base,
            &Policy::Bound(bound),
        );
        registers.push(last(s, Kind::Register).unwrap_or(f64::NAN));
    }
    let queries = |s: &mut Session| {
        for (qi, &(name, _, _)) in SEARCHES.iter().enumerate() {
            let Some(live) = s.live.get(name) else {
                continue;
            };
            let pats: Vec<Terms> = inst.queries[qi]
                .iter()
                .flat_map(|(_, p)| p.iter().copied())
                .collect();
            let want = oracle::expected(&live.mirror, live.attrs, &pats, false);
            let rows = Some(live.rows());
            // An untimed first pass: the first estimates over a new label
            // fill its lazily built marginals, a one-off cost.
            for (f, _) in &inst.queries[qi] {
                s.control_frame(f);
            }
            let got: Vec<Vec<u8>> = inst.queries[qi]
                .iter()
                .map(|(f, _)| s.send(Kind::Query, f))
                .collect();
            for (bytes, chunk) in got.iter().zip(want.chunks(PER_QUERY)) {
                let refs: Vec<&Expected> = chunk.iter().collect();
                s.check(wire::parse(bytes).and_then(|j| oracle::check_query(&j, &refs, rows)));
            }
        }
    };
    queries(s);
    for &(name, si, _) in &SEARCHES {
        for batch in inst.sources[si].fresh.chunks(APPEND_ROWS) {
            s.append(name, batch);
        }
    }
    let mut refreshes = Vec::with_capacity(SEARCHES.len());
    for &(name, _, bound) in &SEARCHES {
        s.refresh(name, &Policy::Bound(bound));
        refreshes.push(last(s, Kind::Refresh).unwrap_or(f64::NAN));
    }
    queries(s);
    (registers, refreshes)
}

/// The paper's three shapes registered with a search bound (Algorithm 1),
/// 10% fresh rows appended, then refreshed at the same bound. The same
/// round runs at least ten times (more if they take less than
/// `--seconds`) on one data instance, each on a fresh daemon
/// with an empty data dir, so every round starts from the same process
/// state; `register_s` (`refresh_s`) sums, over the four searches, the
/// fastest of that search's registrations (refreshes) across the rounds.
pub fn search_register(cfg: Config) -> Result<Outcome, String> {
    const ROUNDS: usize = 10;
    let seed = cfg.seed;
    let (inst, mut s, setup_s) = repeated_setup(3, || {
        let inst = instance(seed);
        let s = Session::start(cfg.clone(), &["--snapshot-wal-bytes", QUIET_SNAPSHOTS])?;
        Ok((inst, s))
    })?;
    s.phase("main phase");

    let mut registers = vec![Vec::new(); SEARCHES.len()];
    let mut refreshes = vec![Vec::new(); SEARCHES.len()];
    let mut main_lines = 0..0;
    let main_start = Instant::now();
    // At least ROUNDS rounds, and more if they took less than --seconds.
    let mut round = 0;
    while round < ROUNDS || main_start.elapsed().as_secs_f64() < s.cfg.seconds {
        round += 1;
        // Every round starts from the same state: a new daemon process
        // on an empty data dir.
        if round > 1 {
            s.place_daemon();
            s.fresh_daemon()?;
        }
        let start = s.lines.len();
        let (reg, refresh) = search_round(&mut s, &inst);
        for (i, (r, f)) in reg.into_iter().zip(refresh).enumerate() {
            registers[i].push(r);
            refreshes[i].push(f);
        }
        main_lines = start..s.lines.len();
    }
    for (i, &(name, _, _)) in SEARCHES.iter().enumerate() {
        let ms = |v: &[f64]| {
            v.iter()
                .map(|t| format!("{:.0}", t * 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        };
        eprintln!(
            "  {name}: register ms {}; refresh ms {}",
            ms(&registers[i]),
            ms(&refreshes[i])
        );
    }
    let total = |per_search: &[Vec<f64>]| per_search.iter().map(|v| best(v)).sum::<f64>();
    let register_s = total(&registers);
    let refresh_s = total(&refreshes);

    s.phase("epilogue");
    let mut check_rng = Rng::fork(seed, "search_register.check");
    let checks: Vec<(String, Vec<Terms>)> = SEARCHES
        .iter()
        .map(|&(name, _, _)| {
            let ds = &s.live[name].mirror;
            (
                name.to_string(),
                data::pattern_pool(ds, Rows::Same, 1_000, 2..=3, &[], 0.0, &mut check_rng),
            )
        })
        .collect();
    let tail = tail_batches(&inst.sources[0], 0);
    let recovery = s.durability_epilogue(SEARCHES[0].0, &tail, &checks, RESTARTS);
    let search_inputs = SEARCHES
        .iter()
        .map(|&(_, si, bound)| (inst.sources[si].clone(), bound))
        .collect();
    Ok(Outcome {
        session: s,
        setup_s,
        register_s,
        refresh_s,
        recovery,
        main_lines,
        search_inputs,
    })
}

/// Every end-to-end metric, in `BENCHMARK.json` order.
///
/// Every timing is the best of many repetitions spread over the run (see
/// [`best`] and `README.md`); the request latencies' median and tail are
/// printed on stderr.
pub fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let best_us = |k: Kind| best_of(&o.session, k) * 1e6;
    let r = &o.recovery;
    vec![
        ("setup_s", o.setup_s, "s"),
        ("register_s", o.register_s, "s"),
        ("refresh_s", o.refresh_s, "s"),
        ("query_min_us", best_us(Kind::Query), "us"),
        ("append_min_us", best_us(Kind::Append), "us"),
        ("recovery_s", r.recovery_s, "s"),
        ("est_max_abs_error", r.est_max_abs_error, "count"),
        ("est_mean_abs_error", r.est_mean_abs_error, "count"),
        (
            "disk_bytes_per_input_byte",
            r.disk_bytes_per_input_byte,
            "ratio",
        ),
        ("server_peak_rss_mb", r.peak_rss_mb, "MiB"),
    ]
}
