//! One benchmark run against one daemon: timed requests, the client's
//! view of every registered dataset, failure accounting, and the
//! durability epilogue every workload ends with.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pclabel_core::attrset::AttrSet;
use pclabel_data::dataset::Dataset;
use pclabel_engine::json::Json;

use crate::affinity;
use crate::data::{self, Terms};
use crate::oracle::{self, Expected};
use crate::trace::Tracer;
use crate::util::best;
use crate::wire::{self, Conn, Netd};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Register,
    Refresh,
    Query,
    Append,
}

impl Kind {
    pub fn wire_span(self) -> &'static str {
        match self {
            Kind::Register => "wire.register",
            Kind::Refresh => "wire.refresh",
            Kind::Query => "wire.query",
            Kind::Append => "wire.append",
        }
    }
}

#[derive(Clone)]
pub struct Config {
    pub netd: PathBuf,
    pub run_dir: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The CPUs the harness and the daemon start on; the session moves
    /// the daemon between them (see [`Session::place_daemon`]).
    pub cpus: Option<[usize; 2]>,
}

/// A registered dataset as the client knows it: the rows the daemon
/// acknowledged (parsed and appended exactly as the daemon does), the
/// label's attribute set from the last register/refresh reply, and the
/// bytes of CSV and row arrays sent for it.
pub struct Live {
    pub mirror: Dataset,
    pub attrs: AttrSet,
    pub input_bytes: u64,
}

impl Live {
    pub fn rows(&self) -> u64 {
        self.mirror.n_rows() as u64
    }
}

/// Results of the durability epilogue.
pub struct Recovery {
    pub recovery_s: f64,
    pub disk_bytes_per_input_byte: f64,
    pub est_max_abs_error: f64,
    pub est_mean_abs_error: f64,
    pub fsyncs: f64,
    pub peak_rss_mb: f64,
    /// A copy of the killed data dir, for the traced `Durability::open`.
    pub killed_copy: Option<PathBuf>,
}

pub struct Session {
    pub cfg: Config,
    pub data_dir: PathBuf,
    netd: Option<Netd>,
    conn: Option<Conn>,
    restarts: u32,
    /// Wire latencies (seconds) per op kind.
    pub lat: BTreeMap<Kind, Vec<f64>>,
    /// Traced-run query latencies split by whether a span was recorded
    /// for the request (index 1) or not (index 0).
    pub query_split: [Vec<f64>; 2],
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    pub live: BTreeMap<String, Live>,
    /// Request lines sent, in order, with their wire latency (seconds),
    /// for the traced in-process replay.
    pub lines: Vec<(Kind, String, f64)>,
    /// Framed `health` round trips (seconds), traced runs only.
    pub health_rtt: Vec<f64>,
    pub record_lines: bool,
    /// When false, `send` records no latency (warm-up requests).
    pub timed: bool,
    pub tracer: Tracer,
    seq: u64,
    started: Instant,
    flags: Vec<&'static str>,
    /// `[harness CPU, daemon CPU]` now.
    cpus: Option<[usize; 2]>,
    /// Largest peak RSS (MiB) of the daemon processes killed so far.
    killed_peak_rss_mb: f64,
}

impl Session {
    /// Creates the run dir and boots the daemon; `flags` are added to
    /// every boot of this session.
    pub fn start(cfg: Config, flags: &[&'static str]) -> Result<Session, String> {
        let run = cfg
            .run_dir
            .join(format!("{}-seed{}", cfg.workload, cfg.seed));
        let _ = std::fs::remove_dir_all(&run);
        std::fs::create_dir_all(&run).map_err(|e| format!("create {}: {e}", run.display()))?;
        let data_dir = run.join("data");
        let cfg_cpus = cfg.cpus;
        let mut s = Session {
            record_lines: cfg.trace,
            timed: true,
            cfg,
            data_dir,
            netd: None,
            conn: None,
            restarts: 0,
            lat: BTreeMap::new(),
            query_split: [Vec::new(), Vec::new()],
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            live: BTreeMap::new(),
            lines: Vec::new(),
            health_rtt: Vec::new(),
            tracer: Tracer::new(),
            seq: 0,
            started: Instant::now(),
            flags: flags.to_vec(),
            cpus: cfg_cpus,
            killed_peak_rss_mb: 0.0,
        };
        s.boot(&[])?;
        s.phase(&format!(
            "netd pid {} on CPU {:?}, data dir {} on {}",
            s.netd().pid(),
            s.cpus.map(|c| c[1]),
            s.data_dir.display(),
            filesystem_of(&s.data_dir)
        ));
        Ok(s)
    }

    /// Progress note on stderr (seconds since the session started).
    pub fn phase(&self, what: &str) {
        eprintln!(
            "pclbench: [{:7.2}s] {what}",
            self.started.elapsed().as_secs_f64()
        );
    }

    pub fn run_dir(&self) -> PathBuf {
        self.data_dir.parent().expect("run dir").to_path_buf()
    }

    /// Spawns the daemon on the session's data dir and connects.
    fn boot(&mut self, extra: &[&str]) -> Result<f64, String> {
        self.restarts += 1;
        let log = self.run_dir().join(format!("netd-{}.log", self.restarts));
        let t0 = Instant::now();
        // Later flags win, so `extra` can override the session's flags.
        let flags: Vec<&str> = self.flags.iter().chain(extra).copied().collect();
        let netd = Netd::spawn(
            &self.cfg.netd,
            self.cpus.map(|c| c[1]),
            &self.data_dir,
            &flags,
            &log,
        )
        .map_err(|e| format!("spawn netd: {e}"))?;
        let conn = Conn::connect(netd.addr).map_err(|e| format!("connect: {e}"))?;
        self.netd = Some(netd);
        self.conn = Some(conn);
        Ok(t0.elapsed().as_secs_f64())
    }

    /// Puts the daemon (every thread of a running one; otherwise the
    /// next boot) on whichever of the two CPUs a probe finds faster now,
    /// and the harness on the other (see [`affinity`]).
    pub fn place_daemon(&mut self) {
        let Some(cpus) = self.cpus else {
            return;
        };
        let Some(placed) = affinity::choose(cpus) else {
            self.fail("could not pin the harness to a CPU".to_string());
            return;
        };
        self.cpus = Some(placed);
        if let Some(pid) = self.netd.as_ref().map(Netd::pid) {
            if !affinity::pin_process(pid, placed[1]) {
                self.fail(format!("could not pin netd pid {pid} to CPU {}", placed[1]));
            }
        }
    }

    /// SIGKILL the daemon, wipe its data dir and boot a new one on the
    /// empty dir, so that what follows runs in a process in the same
    /// state every time.
    pub fn fresh_daemon(&mut self) -> Result<(), String> {
        self.kill();
        self.live.clear();
        let _ = std::fs::remove_dir_all(&self.data_dir);
        self.boot(&[]).map(|_| ())
    }

    /// Waits until the daemon has no background snapshot running or due:
    /// one starts only once `pclabel_wal_unsnapshotted_bytes` reaches the
    /// `--snapshot-wal-bytes` threshold, and ends by resetting it to 0.
    pub fn settle_snapshots(&mut self, threshold: u64) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            let pending = self
                .control(&data::simple_line("server_stats", None))
                .and_then(|j| {
                    j.get("gauges")?
                        .get("pclabel_wal_unsnapshotted_bytes")?
                        .as_u64()
                });
            if pending.is_some_and(|p| p < threshold) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        self.fail("background snapshot did not settle within 20 s".to_string());
    }

    pub fn kill(&mut self) {
        self.conn = None;
        if let Some(n) = self.netd.take() {
            self.killed_peak_rss_mb = self.killed_peak_rss_mb.max(n.peak_rss_mb());
            n.kill();
        }
    }

    pub fn netd(&self) -> &Netd {
        self.netd.as_ref().expect("netd running")
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            eprintln!("pclbench: FAILED: {what}");
            self.failures.push(what);
        }
    }

    /// A check that is not an op of its own (counts as attempted too).
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// One timed request. Returns the raw response payload.
    pub fn send(&mut self, kind: Kind, frame: &[u8]) -> Vec<u8> {
        self.attempted += 1;
        self.seq += 1;
        let conn = self.conn.as_mut().expect("connected");
        let start = Instant::now();
        let result = conn.call(frame).map(|_| ());
        let end = Instant::now();
        // Copied out of the connection's buffer after the clock stops.
        let result = result.map(|()| conn.last_reply().to_vec());
        let secs = (end - start).as_secs_f64();
        if self.timed {
            self.lat.entry(kind).or_default().push(secs);
        }
        if self.cfg.trace && self.timed {
            // Every other request records a wire span, so the traced run
            // measures its own recording overhead on interleaved requests.
            let traced = self.seq.is_multiple_of(2);
            if traced {
                self.tracer
                    .record(kind.wire_span(), self.seq, None, start, end);
            }
            if kind == Kind::Query {
                self.query_split[traced as usize].push(secs);
            }
        }
        if self.record_lines {
            let line = String::from_utf8_lossy(&frame[4..]).into_owned();
            self.lines.push((kind, line, secs));
        }
        match result {
            Ok(bytes) => bytes,
            Err(e) => {
                self.fail(format!("{kind:?} request: {e}"));
                Vec::new()
            }
        }
    }

    /// A timed request whose reply must be `ok`.
    pub fn send_ok(&mut self, kind: Kind, line: &str) -> Option<Json> {
        let bytes = self.send(kind, &wire::frame(line));
        match wire::parse(&bytes) {
            Ok(j) if wire::ok(&j) => Some(j),
            Ok(j) => {
                self.fail(format!("{kind:?} answered {j}"));
                None
            }
            Err(e) => {
                self.fail(format!("{kind:?}: {e}"));
                None
            }
        }
    }

    /// An untimed control request (stats, server_stats, drop).
    pub fn control(&mut self, line: &str) -> Option<Json> {
        self.control_frame(&wire::frame(line))
    }

    /// [`Session::control`] with a pre-encoded frame.
    pub fn control_frame(&mut self, frame: &[u8]) -> Option<Json> {
        self.attempted += 1;
        let conn = self.conn.as_mut().expect("connected");
        let line = String::from_utf8_lossy(&frame[4..frame.len().min(200)]).into_owned();
        match conn
            .call(frame)
            .and_then(|b| wire::parse(b).map_err(std::io::Error::other))
        {
            Ok(j) if wire::ok(&j) => Some(j),
            Ok(j) => {
                self.fail(format!("control {line}: {j}"));
                None
            }
            Err(e) => {
                self.fail(format!("control {line}: {e}"));
                None
            }
        }
    }

    /// Registers `csv` under `name`; `base` is the client's parse of it.
    pub fn register(&mut self, name: &str, csv: &str, base: &Dataset, policy: &data::Policy) {
        let line = data::register_line(name, csv, policy);
        if self.timed {
            self.place_daemon();
        }
        let Some(resp) = self.send_ok(Kind::Register, &line) else {
            return;
        };
        match self.label_attrs(base, &resp, policy) {
            Ok(attrs) => {
                let rows = resp.get("rows").and_then(Json::as_u64);
                if rows != Some(base.n_rows() as u64) {
                    self.fail(format!(
                        "register {name}: rows {rows:?} != {}",
                        base.n_rows()
                    ));
                }
                self.live.insert(
                    name.to_string(),
                    Live {
                        mirror: base.clone(),
                        attrs,
                        input_bytes: csv.len() as u64,
                    },
                );
            }
            Err(e) => self.fail(format!("register {name}: {e}")),
        }
    }

    /// The label attributes a register/refresh reply reports, checked
    /// against the policy (fixed attributes, or a label within the bound).
    fn label_attrs(
        &self,
        ds: &Dataset,
        resp: &Json,
        policy: &data::Policy,
    ) -> Result<AttrSet, String> {
        let names = oracle::string_list(resp.get("label_attrs"));
        let attrs = oracle::attrs_of(ds, &names)?;
        match policy {
            data::Policy::Attrs(want) if want != &names => {
                Err(format!("label_attrs {names:?}, asked for {want:?}"))
            }
            data::Policy::Bound(b) => {
                let size = resp
                    .get("label_size")
                    .and_then(Json::as_u64)
                    .unwrap_or(u64::MAX);
                if size > *b {
                    Err(format!("label size {size} exceeds bound {b}"))
                } else {
                    Ok(attrs)
                }
            }
            _ => Ok(attrs),
        }
    }

    pub fn refresh(&mut self, name: &str, policy: &data::Policy) {
        let line = data::refresh_line(name, policy);
        if self.timed {
            self.place_daemon();
        }
        let Some(resp) = self.send_ok(Kind::Refresh, &line) else {
            return;
        };
        let ds = self.live[name].mirror.clone();
        match self.label_attrs(&ds, &resp, policy) {
            Ok(attrs) => self.live.get_mut(name).expect("live").attrs = attrs,
            Err(e) => self.fail(format!("refresh {name}: {e}")),
        }
    }

    /// Appends one batch; on ack the client's copy grows by the same rows.
    pub fn append(&mut self, name: &str, rows: &[Vec<Option<String>>]) {
        let line = data::append_line(name, rows);
        self.append_line(name, &wire::frame(&line), rows);
    }

    pub fn append_line(&mut self, name: &str, frame: &[u8], rows: &[Vec<Option<String>>]) {
        let bytes = self.send(Kind::Append, frame);
        let resp = match wire::parse(&bytes) {
            Ok(j) if wire::ok(&j) => j,
            other => {
                self.fail(format!("append {name}: {other:?}"));
                return;
            }
        };
        let live = self.live.get_mut(name).expect("live dataset");
        live.mirror
            .append_labeled_rows(rows)
            .expect("rows match the schema");
        // The row-array text as it appears in the request.
        live.input_bytes += (frame.len() - 4) as u64;
        let want = live.rows();
        if resp.get("rows").and_then(Json::as_u64) != Some(want) {
            self.fail(format!("append {name}: reply {resp} != acked rows {want}"));
        }
    }

    /// An append outside the timed phases (epilogue seals and tail).
    fn append_untimed(&mut self, name: &str, rows: &[Vec<Option<String>>]) {
        let line = data::append_line(name, rows);
        let acked = self
            .control(&line)
            .and_then(|j| j.get("rows").and_then(Json::as_u64));
        let live = self.live.get_mut(name).expect("live dataset");
        live.mirror
            .append_labeled_rows(rows)
            .expect("rows match the schema");
        live.input_bytes += line.len() as u64;
        let want = live.rows();
        if acked != Some(want) {
            self.fail(format!("append {name}: acked rows {acked:?} != {want}"));
        }
    }

    pub fn drop_dataset(&mut self, name: &str) {
        self.control(&data::simple_line("drop", Some(name)));
        self.live.remove(name);
    }

    /// `stats.rows` of every live dataset must equal the acked rows.
    pub fn check_rows(&mut self, when: &str) {
        let names: Vec<String> = self.live.keys().cloned().collect();
        for name in names {
            let want = self.live[&name].rows();
            let got = self
                .control(&data::simple_line("stats", Some(&name)))
                .and_then(|j| j.get("rows").and_then(Json::as_u64));
            if got != Some(want) {
                self.fail(format!(
                    "{when}: stats.rows of {name} is {got:?}, acked {want}"
                ));
            }
        }
    }

    /// Queries `patterns` of `name` in untimed 32-pattern requests and
    /// returns the parsed `results` arrays.
    fn query_batch(&mut self, name: &str, patterns: &[Terms]) -> Vec<Json> {
        let ds = self.live[name].mirror.clone();
        let mut out = Vec::new();
        for chunk in patterns.chunks(32) {
            let line = data::query_line(
                name,
                chunk.iter().map(|t| data::pattern_json(&ds, t)).collect(),
            );
            out.push(self.control(&line).unwrap_or(Json::Null));
        }
        out
    }

    fn durability_gauges(&mut self) -> Option<(u64, u64)> {
        let s = self.control(&data::simple_line("server_stats", None))?;
        let d = s.get("durability")?;
        Some((
            d.get("snapshot_lsn").and_then(Json::as_u64)?,
            d.get("last_lsn").and_then(Json::as_u64)?,
        ))
    }

    fn fsync_count(&mut self) -> f64 {
        self.control(&data::simple_line("server_stats", None))
            .and_then(|s| {
                s.get("histograms")?
                    .get("pclabel_fsync_seconds")?
                    .get("count")?
                    .as_f64()
            })
            .unwrap_or(f64::NAN)
    }

    /// Ends every workload: kills the daemon mid-flight, makes the on-disk
    /// state deterministic, measures disk use, then times SIGKILL'd
    /// restarts and checks that they lost nothing.
    ///
    /// 1. Peak RSS and the fsync count of the main phase; `stats.rows`
    ///    must equal the acked rows.
    /// 2. SIGKILL. Restart with `--snapshot-wal-bytes 1` and append one
    ///    existing row to every dataset, twice, each time waiting until
    ///    the background snapshot covers the last WAL record. The two
    ///    retained snapshots then hold the final state whatever the
    ///    snapshot timing of the main phase was, so data-dir bytes and
    ///    the replayed-record count repeat from run to run.
    /// 3. SIGKILL. Restart with the default flags, append `tail` (a
    ///    fixed number of batches) to `tail_dataset`, and answer the
    ///    check batch.
    /// 4. SIGKILL, then `restarts` timed restarts: spawn → first
    ///    successful `stats`. Each must report the acked rows and answer
    ///    the check batch exactly as before the kill. `recovery_s` is the
    ///    fastest restart.
    pub fn durability_epilogue(
        &mut self,
        tail_dataset: &str,
        tail: &[Vec<Vec<Option<String>>>],
        checks: &[(String, Vec<Terms>)],
        restarts: usize,
    ) -> Recovery {
        // Over every daemon process of the main phase: which of them
        // took the writes can depend on the host's speed.
        let peak_rss_mb = self.netd().peak_rss_mb().max(self.killed_peak_rss_mb);
        let fsyncs = if self.cfg.trace {
            self.fsync_count()
        } else {
            f64::NAN
        };
        if self.cfg.trace {
            let health = wire::frame(&data::simple_line("health", None));
            let conn = self.conn.as_mut().expect("connected");
            for _ in 0..2_000 {
                let t = Instant::now();
                if conn.call(&health).is_err() {
                    break;
                }
                self.health_rtt.push(t.elapsed().as_secs_f64());
            }
        }
        self.check_rows("before kill");
        self.kill();
        self.phase("epilogue: compacting restart");

        if let Err(e) = self.boot(&["--snapshot-wal-bytes", "1"]) {
            self.fail(e);
            return Recovery::failed();
        }
        self.check_rows("after first restart");
        for _ in 0..2 {
            let names: Vec<String> = self.live.keys().cloned().collect();
            for name in names {
                let ds = &self.live[&name].mirror;
                let row: Vec<Option<String>> = (0..ds.n_attrs())
                    .map(|a| ds.value(0, a).map(|id| ds.label_of(a, id).to_string()))
                    .collect();
                self.append_untimed(&name, &[row]);
            }
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                match self.durability_gauges() {
                    Some((snap, last)) if snap == last => break,
                    _ if Instant::now() > deadline => {
                        self.fail("snapshot did not settle within 20 s".to_string());
                        break;
                    }
                    _ => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        }
        self.phase("epilogue: snapshots settled");
        let disk = dir_bytes(&self.data_dir);
        let input: u64 = self.live.values().map(|l| l.input_bytes).sum();
        self.kill();

        if let Err(e) = self.boot(&[]) {
            self.fail(e);
            return Recovery::failed();
        }
        for batch in tail {
            self.append_untimed(tail_dataset, batch);
        }
        let before: Vec<Vec<Json>> = checks
            .iter()
            .map(|(name, pats)| self.query_batch(name, pats))
            .collect();
        // The expected answers over the final rows give the error metrics.
        let mut answers: Vec<Expected> = Vec::new();
        for ((name, pats), got) in checks.iter().zip(&before) {
            let live = &self.live[name];
            let rows = Some(live.rows());
            let want = oracle::expected(&live.mirror, live.attrs, pats, true);
            for (chunk, resp) in want.chunks(32).zip(got) {
                let refs: Vec<&Expected> = chunk.iter().collect();
                let r = oracle::check_query(resp, &refs, rows);
                self.check(r.map_err(|e| format!("check batch of {name}: {e}")));
            }
            answers.extend(want);
        }
        self.kill();
        let killed_copy = if self.cfg.trace {
            let copy = self.run_dir().join("killed-copy");
            copy_dir(&self.data_dir, &copy).ok().map(|_| copy)
        } else {
            None
        };

        self.phase("epilogue: timed restarts");
        let mut times = Vec::new();
        let mut replayed = Vec::new();
        for i in 0..restarts {
            self.place_daemon();
            let t0 = Instant::now();
            if let Err(e) = self.boot(&[]) {
                self.fail(e);
                return Recovery::failed();
            }
            let name = checks[0].0.clone();
            let first = self.control(&data::simple_line("stats", Some(&name)));
            times.push(t0.elapsed().as_secs_f64());
            if first.is_none() {
                self.fail(format!("restart {i}: first stats failed"));
            }
            replayed.push(replayed_records(&self.netd().log));
            self.check_rows("after SIGKILL restart");
            for ((name, pats), want) in checks.iter().zip(&before) {
                let got = self.query_batch(name, pats);
                let same = got.iter().zip(want).all(|(a, b)| {
                    a.get("results").map(Json::to_string) == b.get("results").map(Json::to_string)
                });
                self.check(if same {
                    Ok(())
                } else {
                    Err(format!(
                        "restart {i}: {name} answers differ from before the kill"
                    ))
                });
            }
            self.kill();
        }
        self.phase(&format!(
            "epilogue: done ({} WAL records replayed per restart; restarts ms {})",
            replayed.first().copied().unwrap_or(0),
            times
                .iter()
                .map(|t| format!("{:.0}", t * 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        if replayed.windows(2).any(|w| w[0] != w[1]) {
            self.fail(format!(
                "replayed-record counts differ across restarts: {replayed:?}"
            ));
        }
        let (max, mean) = oracle::errors(&answers);
        Recovery {
            recovery_s: best(&times),
            disk_bytes_per_input_byte: disk as f64 / input.max(1) as f64,
            est_max_abs_error: max,
            est_mean_abs_error: mean,
            fsyncs,
            peak_rss_mb,
            killed_copy,
        }
    }

    /// Stops the daemon and removes the data dir.
    pub fn finish(mut self) -> (u64, u64) {
        self.kill();
        let _ = std::fs::remove_dir_all(&self.data_dir);
        (self.attempted, self.failed)
    }
}

impl Recovery {
    fn failed() -> Recovery {
        Recovery {
            recovery_s: f64::NAN,
            disk_bytes_per_input_byte: f64::NAN,
            est_max_abs_error: f64::NAN,
            est_mean_abs_error: f64::NAN,
            fsyncs: f64::NAN,
            peak_rss_mb: f64::NAN,
            killed_copy: None,
        }
    }
}

/// "... N WAL record(s) replayed)" from the daemon's boot summary.
fn replayed_records(log: &Path) -> u64 {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    text.lines()
        .find_map(|l| {
            let head = l.split(" WAL record(s) replayed").next()?;
            if head.len() == l.len() {
                return None;
            }
            head.rsplit(' ').next()?.parse().ok()
        })
        .unwrap_or(u64::MAX)
}

pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)?.flatten() {
        let target = to.join(e.file_name());
        if e.metadata()?.is_dir() {
            copy_dir(&e.path(), &target)?;
        } else {
            std::fs::copy(e.path(), target)?;
        }
    }
    Ok(())
}

/// The filesystem type of the mount holding `path` (from /proc/mounts).
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "an unknown filesystem".to_string(), |(_, fs)| fs)
}
