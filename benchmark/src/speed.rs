//! The host's speed, measured beside the program rather than through it.
//!
//! The host this benchmark was built on shares its cores and its memory bandwidth with
//! other machines' work, and its speed drifts by up to 1.6 times over seconds to minutes:
//! the same work, in the same process, takes that much longer.  A run measures that drift as
//! much as the program.  So the benchmark times a fixed kernel around every unit of work and
//! reports the unit's time scaled to the kernel's [`REFERENCE_S`]: the time the unit would
//! take on the host at the speed where the kernel takes that long.  A change to the program
//! moves the scaled figures as it moves the raw ones; the host's drift moves them much less.
//! The raw, unscaled figures are printed beside them.
//!
//! The kernel does the kinds of work the program's operators do, so that a slow spell slows
//! it as it slows them: dependent random reads over 64 MiB (hash probes that miss the cache),
//! filling a fresh 32 MiB buffer (page faults on new intermediates), and sorting integers
//! and short strings (comparisons and small allocations).  Timed beside the paper's e-basic
//! and e-MQO passes on the host this benchmark was built on, it took the spread of their
//! ~7-second medians from 0.11–0.15 to 0.04–0.05 (standard deviation of the logarithm);
//! any one part alone did about half as well on one pass or the other.
//!
//! The kernel runs in a child process (this binary, `--kernel`), started once per run, so its
//! buffers never count towards the peak resident set of the process under test, nor its CPU
//! towards its CPU.  Each line the parent writes to its standard input asks for one
//! measurement; it exits when its standard input closes.

use crate::rng::Rng;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

/// The kernel's time, in seconds, at the speed the benchmark reports at: about its time on
/// the host this benchmark was built on when that host ran fast.
pub const REFERENCE_S: f64 = 0.050;

const BUFFER_WORDS: usize = 8 << 20;
const READS: usize = 100_000;
const FRESH_WORDS: usize = 4 << 20;
/// Kernel runs per measurement; the measurement is their median.
const RUNS: usize = 3;

fn kernel(buffer: &[u64]) -> f64 {
    let start = Instant::now();
    let mut rng = Rng::new(7);
    let mut at = rng.next_u64() as usize;
    let mut acc = 0u64;
    for _ in 0..READS {
        let x = buffer[at % buffer.len()];
        acc = acc.wrapping_add(x);
        at = (x ^ acc) as usize;
    }
    let mut fresh: Vec<u64> = Vec::with_capacity(FRESH_WORDS);
    fresh.extend((0..FRESH_WORDS as u64).map(|i| i ^ acc));
    black_box(&fresh);
    drop(fresh);
    let mut words: Vec<u64> = (0..300_000).map(|_| rng.next_u64()).collect();
    words.sort_unstable();
    let mut strings: Vec<String> = (0..30_000)
        .map(|_| format!("{:x}", rng.next_u64()))
        .collect();
    strings.sort();
    black_box((acc, words, strings));
    start.elapsed().as_secs_f64()
}

/// The child process: for each line on standard input, the median of [`RUNS`] kernel runs,
/// in seconds, on standard output.
pub fn kernel_main() {
    let mut rng = Rng::new(3);
    let buffer: Vec<u64> = (0..BUFFER_WORDS).map(|_| rng.next_u64()).collect();
    let stdout = std::io::stdout();
    for line in std::io::stdin().lock().lines() {
        if line.is_err() {
            break;
        }
        let mut times: Vec<f64> = (0..RUNS).map(|_| kernel(&buffer)).collect();
        times.sort_by(f64::total_cmp);
        let mut out = stdout.lock();
        if writeln!(out, "{}", times[RUNS / 2])
            .and_then(|()| out.flush())
            .is_err()
        {
            break;
        }
    }
}

/// The running kernel process.
struct Prober {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Prober {
    fn start() -> Result<Prober, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--kernel")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start the speed kernel: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        match (stdin, stdout) {
            (Some(stdin), Some(stdout)) => Ok(Prober {
                child,
                stdin: Some(stdin),
                stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err("the speed kernel has no pipes".into())
            }
        }
    }

    fn measure(&mut self) -> Result<f64, String> {
        let stdin = self.stdin.as_mut().ok_or("the speed kernel is stopped")?;
        writeln!(stdin)
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("ask the speed kernel: {e}"))?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("read the speed kernel: {e}"))?;
        line.trim()
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("the speed kernel printed no time".to_string())
    }
}

impl Drop for Prober {
    /// Closes the kernel's standard input, which ends it, and waits for it.
    fn drop(&mut self) {
        drop(self.stdin.take());
        if self.child.wait().is_err() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

static PROBER: Mutex<Option<Prober>> = Mutex::new(None);

/// The kernel's time now, in seconds; starts the kernel process on first use.
pub fn measure() -> Result<f64, String> {
    let mut prober = PROBER
        .lock()
        .map_err(|_| "the speed kernel lock is poisoned")?;
    if prober.is_none() {
        *prober = Some(Prober::start()?);
    }
    let result = prober.as_mut().expect("just started").measure();
    if result.is_err() {
        // A kernel that failed once is not asked again.
        *prober = None;
    }
    result
}

/// Stops the kernel process, if it runs, and waits for it to end.
pub fn stop() {
    if let Ok(mut prober) = PROBER.lock() {
        drop(prober.take());
    }
}

/// The factor that scales a time measured between two kernel measurements to
/// [`REFERENCE_S`].
pub fn scale(before_s: f64, after_s: f64) -> f64 {
    REFERENCE_S * 2.0 / (before_s + after_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_maps_the_reference_speed_to_one() {
        assert_eq!(scale(REFERENCE_S, REFERENCE_S), 1.0);
        // A host running at half speed doubles the kernel time: its times count half.
        assert!((scale(2.0 * REFERENCE_S, 2.0 * REFERENCE_S) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn kernel_takes_time() {
        let buffer = vec![1u64; 1 << 10];
        assert!(kernel(&buffer) > 0.0);
    }
}
