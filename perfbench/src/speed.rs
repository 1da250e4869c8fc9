//! Machine-speed reference: end-to-end times are reported at a fixed
//! reference speed.
//!
//! The benchmark runs on shared machines whose effective speed drifts by
//! tens of percent within minutes: another tenant's load slows every
//! instruction of this process alike, and the guest sees no steal time.
//! So the benchmark runs a fixed reference kernel — integer hashing, a
//! sort, a hash map and string formatting, none of it the program's
//! code — right before and after each measured piece of work (every
//! 250 ms on a side thread during the serving traffic), and scales the
//! work's time by `NOMINAL_S / kernel time`. A slower machine
//! slows the kernel and the work alike, and the factor cancels it; a
//! change to the program does not touch the kernel. Raw wall times and
//! the factors are printed on stderr.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time that defines the reference speed (about what the kernel
/// takes on an unloaded 2-core x86-64 box).
pub const NOMINAL_S: f64 = 0.008;

/// The reference kernel: fixed work, independent of the program.
fn kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut v: Vec<u32> = Vec::with_capacity(1 << 18);
    for _ in 0..1 << 18 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push(x as u32);
    }
    v.sort_unstable();
    let mut index = HashMap::with_capacity(1 << 14);
    for (i, &e) in v.iter().enumerate().step_by(16) {
        index.insert(e, i);
    }
    let mut text = String::new();
    for (i, &e) in v.iter().enumerate().step_by(64) {
        text.push_str(&e.to_string());
        if text.len() > 4096 {
            text.clear();
        }
        x = x.wrapping_add(index.get(&e).copied().unwrap_or(i) as u64);
    }
    x
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time this thread has used, in seconds.
fn thread_cpu_s() -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the C library accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Times one run of the reference kernel, in seconds of CPU time (wall
/// time where the kernel does not report it), so a run that waited for
/// a core does not read as a slow machine.
pub fn sample() -> f64 {
    let cpu = thread_cpu_s();
    let t = Instant::now();
    black_box(kernel());
    let wall = t.elapsed().as_secs_f64();
    match (cpu, thread_cpu_s()) {
        (Some(a), Some(b)) if b > a => b - a,
        _ => wall,
    }
}

/// The factor that scales a time measured while the kernel took
/// `kernel_s` to the reference speed.
pub fn factor(kernel_s: f64) -> f64 {
    NOMINAL_S / kernel_s
}

/// Runs `f` between two kernel samples. Returns its result, its wall
/// time, and the factor from the mean of the two samples — the machine's
/// speed while `f` ran.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = sample();
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    let after = sample();
    (out, wall, factor((before + after) / 2.0))
}
