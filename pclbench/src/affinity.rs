//! CPU placement of the harness and the daemon.
//!
//! On the shared host the benchmark was tuned on, each of the two
//! virtual CPUs is slowed by a neighbour's load on its own, in stretches
//! of seconds, by up to 1.8x; a probe on one CPU does not see the other's
//! slowdown. A daemon pinned to one CPU for a whole run reads that CPU's
//! worst stretches. So before each timed long request (registration,
//! refresh, restart) and every few thousand short ones, the harness
//! probes both CPUs with the same fixed work and puts the daemon on the
//! faster one, itself on the other. The timings stay plain wall times of
//! the daemon's work; the placement only keeps a neighbour's stretch on
//! one CPU from deciding a whole run.

use std::time::Instant;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins one thread (`tid`, 0 = the calling thread) to `cpu`.
fn pin_thread(tid: i32, cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, properly sized cpu_set_t-compatible
    // buffer for the duration of the call; the kernel only reads it.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pins the calling (single-threaded) harness to `cpu`.
pub fn pin_self(cpu: usize) -> bool {
    pin_thread(0, cpu)
}

/// Pins every thread of process `pid` to `cpu`. Threads the process
/// starts later inherit the mask of the thread that starts them.
pub fn pin_process(pid: u32, cpu: usize) -> bool {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return false;
    };
    let mut ok = true;
    for task in tasks.flatten() {
        if let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) {
            // A thread may have ended since the listing.
            ok &= pin_thread(tid, cpu) || !task.path().exists();
        }
    }
    ok
}

/// Seconds the probe work takes on the CPU the caller runs on: the
/// fastest of three repetitions of ~0.5 ms of random updates to a
/// 256 KiB table (cache and arithmetic, like the daemon's counting).
fn probe() -> f64 {
    let mut table = vec![0u32; 1 << 16];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for i in 0..150_000u32 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let k = (x >> 48) as usize;
            table[k] = table[k].wrapping_add(i);
        }
        std::hint::black_box(&table);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Probes `cpus[0]` and `cpus[1]` and returns them as
/// `[harness CPU, daemon CPU]`, the daemon on the faster one. The
/// harness is left pinned to its CPU; `None` if pinning failed.
pub fn choose(cpus: [usize; 2]) -> Option<[usize; 2]> {
    let mut times = [0.0; 2];
    for (t, &cpu) in times.iter_mut().zip(&cpus) {
        if !pin_self(cpu) {
            return None;
        }
        *t = probe();
    }
    let placed = if times[0] < times[1] {
        [cpus[1], cpus[0]]
    } else {
        cpus
    };
    pin_self(placed[0]).then_some(placed)
}
