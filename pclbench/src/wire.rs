//! The `pclabel-netd` process and a minimal framed-TCP client.
//!
//! The client speaks the daemon's frame protocol (u32 big-endian length +
//! JSON) directly on a `TcpStream`, so the client side of every timed
//! request is one `write_all` of a pre-encoded frame and two `read_exact`s.
//! (A busy-polling client was tried: on the 2-vCPU machine it slowed the
//! daemon on the other vCPU and made its latencies vary more.)

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use pclabel_engine::json::Json;

/// Flags every workload runs the daemon with (besides `--listen` and
/// `--data-dir`): one event loop and one worker, so the numbers measure
/// the program rather than the scheduler of a 2-CPU box, and a frame
/// limit large enough for the registration CSVs.
pub const NETD_FLAGS: [&str; 8] = [
    "--reactors",
    "1",
    "--workers",
    "1",
    "--max-frame",
    "67108864",
    "--fsync",
    "batch",
];

/// A running daemon. Dropping it SIGKILLs the process and waits for it.
pub struct Netd {
    child: Option<Child>,
    pub addr: SocketAddr,
    pub log: PathBuf,
}

impl Netd {
    /// Starts the daemon; with `cpu`, pinned to that CPU (through
    /// `taskset`, which execs the daemon under the same pid).
    pub fn spawn(
        bin: &Path,
        cpu: Option<usize>,
        data_dir: &Path,
        extra: &[&str],
        log: &Path,
    ) -> io::Result<Netd> {
        let stderr = File::create(log)?;
        let mut cmd = match cpu {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.args(["-c", &cpu.to_string()]).arg(bin);
                c
            }
            None => Command::new(bin),
        };
        let mut child = cmd
            .args(["--listen", "127.0.0.1:0", "--data-dir"])
            .arg(data_dir)
            .args(NETD_FLAGS)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(stderr))
            .spawn()?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            // "pclabel-netd: listening on ADDR (...)": ADDR is field 4.
            line.split_whitespace().nth(3)?.parse::<SocketAddr>().ok()
        });
        match addr {
            Some(addr) => Ok(Netd {
                child: Some(child),
                addr,
                log: log.to_path_buf(),
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                let log = std::fs::read_to_string(log).unwrap_or_default();
                Err(io::Error::other(format!(
                    "netd printed no listening banner (got {line:?}); stderr: {log}"
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("live child").id()
    }

    /// Peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(f64::NAN, |kb| kb / 1024.0)
    }

    /// SIGKILL and reap.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Netd {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Length-prefixed frame of a JSON request.
pub fn frame(json: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(json.len() + 4);
    out.extend_from_slice(&(json.len() as u32).to_be_bytes());
    out.extend_from_slice(json.as_bytes());
    out
}

/// One persistent framed connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one pre-encoded frame and returns the response payload.
    pub fn call(&mut self, frame: &[u8]) -> io::Result<&[u8]> {
        self.stream.write_all(frame)?;
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        let len = u32::from_be_bytes(len) as usize;
        self.buf.resize(len, 0);
        self.stream.read_exact(&mut self.buf)?;
        Ok(&self.buf)
    }

    /// The payload of the last reply.
    pub fn last_reply(&self) -> &[u8] {
        &self.buf
    }
}

pub fn parse(bytes: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    Json::parse(text).map_err(|e| format!("bad response JSON: {e}"))
}

pub fn ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}
