//! The host's speed, read off a fixed reference kernel timed next to the
//! measured work, so that the timed end-to-end metrics can be reported at
//! the reference host's speed.
//!
//! The reference host is a 2-vCPU virtual machine whose speed moves with
//! other tenants' load: it has spells of one to a few seconds at 1.4–1.7×
//! the usual time, and some minutes have many of them. Over eight minutes
//! of realistic-n106-t1 campaigns on it, ten runs' worth of raw times spread
//! 0.32 (interquartile distance over the median); scaled by this kernel,
//! timed before and after each campaign, they spread 0.06. A 160 × 160
//! kernel timed five times tracked them only to 0.12 and let two sets of
//! runs drift 22 % apart, so the kernel is as large as a model fit's working
//! set and runs long enough to average over the host's spells.
//!
//! The kernel is this file's own code, so no change to the system can speed
//! it up or slow it down. A change that makes the system slower makes the
//! measured work slower but not the kernel, and shows in full.

use std::hint::black_box;
use trace::Stopwatch;

/// Seconds [`probe`] reads on the reference host (2 vCPUs, x86-64 at
/// 2.1 GHz) in a quiet spell.
pub const REFERENCE_PROBE_S: f64 = 15e-3;

/// Order of the reference kernel's matrix (1 MB of `f64`).
const KERNEL_N: usize = 360;

/// Kernel runs per thread in one probe; their median is taken.
const KERNEL_RUNS: usize = 3;

/// The reference kernel: the Cholesky factor of a fixed squared-exponential
/// Gram matrix of order `n`, the dense floating-point work a model fit does,
/// computed in `a` (`n × n`, reused so no run pays for fresh pages). Returns
/// a checksum so the work cannot be optimized away.
fn kernel(a: &mut [f64], n: usize) -> f64 {
    for i in 0..n {
        for j in 0..n {
            let d = i as f64 - j as f64;
            a[i * n + j] = (-(d * d) / 50.0).exp();
        }
        a[i * n + i] += 1.0;
    }
    for j in 0..n {
        let mut s = a[j * n + j];
        for k in 0..j {
            s -= a[j * n + k] * a[j * n + k];
        }
        let d = s.sqrt();
        a[j * n + j] = d;
        for i in j + 1..n {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] = s / d;
        }
    }
    a.iter().sum()
}

/// Times the kernel on `threads` threads at once (the threads the measured
/// work runs on): each thread's median of [`KERNEL_RUNS`] runs, averaged
/// over the threads, in seconds. The calling thread is one of them, so a
/// one-thread probe runs where single-thread work runs.
pub fn probe(threads: usize) -> f64 {
    let one_thread = || {
        let mut a = vec![0.0f64; KERNEL_N * KERNEL_N];
        let mut runs: Vec<f64> = (0..KERNEL_RUNS)
            .map(|_| {
                let t = Stopwatch::start();
                black_box(kernel(&mut a, black_box(KERNEL_N)));
                t.seconds()
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        runs[KERNEL_RUNS / 2]
    };
    let times: Vec<f64> = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(one_thread)).collect();
        let mut times = vec![one_thread()];
        times.extend(helpers.into_iter().map(|h| h.join().unwrap_or(f64::NAN)));
        times
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// Seconds at the reference host's speed of work that took `seconds`
/// between two probes that read `before` and `after`.
pub fn at_reference(seconds: f64, before: f64, after: f64) -> f64 {
    seconds * 2.0 * REFERENCE_PROBE_S / (before + after)
}

/// Hardware threads, the thread count of work that runs on all of them.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
