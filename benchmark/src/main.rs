//! The URM benchmark: one command that runs a workload against the default configuration,
//! checks every answer, and prints every end-to-end metric by name with its unit (or, with
//! `--trace 1`, the per-layer metrics and span self times).  See `README.md`.
//!
//! ```text
//! urm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{"<name>":{"value":…,"unit":"…"}}}`.

mod http;
mod paper;
mod probe;
mod rng;
mod service;
mod speed;
mod stats;
mod stream;
mod trace;
mod verify;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Recorder;
use verify::Tally;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "paper-algorithms",
    "batch-joinheavy",
    "budget-oversized",
    "http-openloop",
];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The per-layer metrics, in report order, with their units.  Every traced run reports all
/// of them; a layer a workload does not exercise reads 0 (see `README.md`).
pub const LAYER_METRICS: [(&str, &str); 55] = [
    ("datagen.generate_s", "s"),
    ("matching.top_h_s", "s"),
    ("core.rewrite_us_per_query", "us"),
    ("core.source_queries_per_query", "count"),
    ("core.eunit_ratio", "ratio"),
    ("core.operators_per_query", "count"),
    ("core.operators.basic", "count"),
    ("core.operators.ebasic", "count"),
    ("core.operators.emqo", "count"),
    ("core.operators.qsharing", "count"),
    ("core.operators.osharing", "count"),
    ("core.peak_rss_mb.basic", "MB"),
    ("core.peak_rss_mb.ebasic", "MB"),
    ("core.peak_rss_mb.emqo", "MB"),
    ("core.peak_rss_mb.qsharing", "MB"),
    ("core.peak_rss_mb.osharing", "MB"),
    ("core.prepare_ms", "ms"),
    ("core.bind_hit_ratio", "ratio"),
    ("core.aggregate_ms", "ms"),
    ("engine.execute_ms", "ms"),
    ("engine.tuples_per_s", "1/s"),
    ("engine.dag_nodes", "count"),
    ("engine.dag_dedup_ratio", "ratio"),
    ("engine.epoch_reuse_ratio", "ratio"),
    ("engine.peak_parallelism", "count"),
    ("engine.columnar_row_share", "ratio"),
    ("engine.columnar_row_share.basic", "ratio"),
    ("engine.columnar_row_share.ebasic", "ratio"),
    ("engine.columnar_row_share.emqo", "ratio"),
    ("engine.columnar_row_share.qsharing", "ratio"),
    ("engine.columnar_row_share.osharing", "ratio"),
    ("engine.join_flips", "count"),
    ("engine.observed_node_share", "ratio"),
    ("storage.bytes_spilled", "bytes"),
    ("storage.spill_reloads", "count"),
    ("storage.grace_partitions", "count"),
    ("storage.segment_ratio", "ratio"),
    ("storage.rss_over_budget", "ratio"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.batch_queries_mean", "count"),
    ("service.batch_dedup_ratio", "ratio"),
    ("service.answer_cache_hit_ratio", "ratio"),
    ("service.stage.rewrite_ms", "ms"),
    ("service.stage.plan_ms", "ms"),
    ("service.stage.execute_ms", "ms"),
    ("service.stage.aggregate_ms", "ms"),
    ("server.http_self_ms_p50", "ms"),
    ("server.http_self_ms_p99", "ms"),
    ("server.rejected_frac", "ratio"),
    ("server.gen_lag_ms_p99", "ms"),
    ("server.slo_qps", "1/s"),
    ("proc.sys_cpu_share", "ratio"),
    ("proc.minor_faults", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// The full per-layer list from the `(name, value)` pairs a workload measured; the rest
/// read 0.
pub fn layer_metrics(measured: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in measured {
        debug_assert!(
            LAYER_METRICS.iter().any(|(n, _)| n == name),
            "unlisted layer metric {name}"
        );
    }
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            metric(name, unit, value)
        })
        .collect()
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// One unit of a timed phase: a stretch of at least [`UNIT_SECONDS`] made of whole repeats of
/// the workload's work (rounds of passes over the paper's queries, cycles of a stream's
/// templates), or half a second of the reference rate on the open loop.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Unit {
    pub seconds: f64,
    pub cpu_s: f64,
    pub queries: u64,
    /// Scales the unit's times to the host's reference speed ([`speed::scale`]).
    pub scale: f64,
}

/// The shortest unit, in seconds of the timed phase.
pub const UNIT_SECONDS: f64 = 1.0;

/// A unit's answers: (query kind, latency in ms) pairs.
pub type Latencies = Vec<(usize, f64)>;

/// What a workload's timed phase measured.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Per-query latency, milliseconds, as measured.
    pub latencies_ms: Vec<f64>,
    /// Queries answered.
    pub answered: u64,
    /// Wall time of the timed phase.
    pub elapsed_s: f64,
    /// CPU and faults of the timed phase.
    pub usage: probe::Usage,
    /// `VmHWM` at the end of the timed phase (reset at its start).
    pub peak_rss_mb: f64,
    /// The timed phase cut into units of the same work.
    pub units: Vec<Unit>,
    /// Each unit's (query kind, latency in ms) pairs, as measured.
    pub unit_latencies: Vec<Latencies>,
    /// Wall seconds and queries of the units (passes, windows) run untraced and traced.  A
    /// traced run alternates the two, so both see the same warm-up.
    pub untraced: (f64, u64),
    pub traced: (f64, u64),
}

impl Timed {
    /// Queries answered per second over the whole timed phase, as measured.
    pub fn qps(&self) -> f64 {
        self.answered as f64 / self.elapsed_s
    }

    /// The units after the first, in which caches fill; the first if it is the only one.
    fn warm(&self) -> (&[Unit], &[Latencies]) {
        let skip = usize::from(self.units.len() > 1);
        (&self.units[skip..], &self.unit_latencies[skip..])
    }

    /// The factor for a unit's times: its speed scale if `scaled`, else 1.
    fn factor(unit: &Unit, scaled: bool) -> f64 {
        if scaled {
            unit.scale
        } else {
            1.0
        }
    }

    /// The median over the warm units of `per_unit`, given each unit, its latencies and
    /// the factor for its times (its speed scale if `scaled`, else 1).
    fn warm_median(&self, scaled: bool, per_unit: impl Fn(&Unit, &Latencies, f64) -> f64) -> f64 {
        let (units, latencies) = self.warm();
        let values: Vec<f64> = units
            .iter()
            .zip(latencies)
            .map(|(u, l)| per_unit(u, l, Self::factor(u, scaled)))
            .collect();
        stats::median(&values)
    }

    /// Queries per second: the median over the warm units, scaled if `scaled`.
    pub fn warm_qps(&self, scaled: bool) -> f64 {
        self.warm_median(scaled, |u, _, f| u.queries as f64 / (u.seconds * f))
    }

    /// CPU milliseconds per query: the median over the warm units, scaled if `scaled`.
    pub fn warm_cpu_ms_per_query(&self, scaled: bool) -> f64 {
        self.warm_median(scaled, |u, _, f| {
            u.cpu_s * f * 1e3 / u.queries.max(1) as f64
        })
    }

    /// Mean query latency: the median over the warm units of each unit's mean, scaled if
    /// `scaled`.
    pub fn warm_latency_ms(&self, scaled: bool) -> f64 {
        self.warm_median(scaled, |_, l, f| {
            l.iter().map(|&(_, ms)| ms * f).sum::<f64>() / l.len().max(1) as f64
        })
    }

    /// Adds one unit's wall time and queries to its traced or untraced share.
    pub fn unit(&mut self, traced: bool, seconds: f64, queries: u64) {
        let share = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        share.0 += seconds;
        share.1 += queries;
    }
}

/// Cuts a timed phase into [`Unit`]s: report each timed interval with [`Units::busy`] and
/// each answer with [`Units::answered`], and call [`Units::repeat_done`] after each whole
/// repeat of the work.  A unit closes at the first repeat boundary once its timed intervals
/// add up to [`UNIT_SECONDS`]; the host's speed is measured as each unit opens and closes,
/// outside the timed intervals.  A trailing stretch shorter than a unit is dropped, unless
/// it is all there is.
pub struct Units {
    speed_s: f64,
    busy: Duration,
    cpu: probe::Usage,
    /// The open unit's answers.
    answers: Latencies,
    done: Vec<Unit>,
    latencies: Vec<Latencies>,
}

impl Units {
    pub fn new() -> Result<Units, String> {
        Ok(Units {
            speed_s: speed::measure()?,
            busy: Duration::ZERO,
            cpu: probe::Usage::now(),
            answers: Vec::new(),
            done: Vec::new(),
            latencies: Vec::new(),
        })
    }

    /// One timed interval of the work.
    pub fn busy(&mut self, took: Duration) {
        self.busy += took;
    }

    /// One answered query of the given kind, and its latency.
    pub fn answered(&mut self, kind: usize, latency_ms: f64) {
        self.answers.push((kind, latency_ms));
    }

    /// Marks the end of one repeat of the work; closes the unit if it is long enough.
    pub fn repeat_done(&mut self) -> Result<(), String> {
        if self.busy.as_secs_f64() >= UNIT_SECONDS {
            self.close()?;
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), String> {
        let cpu = probe::Usage::now();
        let speed_s = speed::measure()?;
        let scale = speed::scale(self.speed_s, speed_s);
        self.done.push(Unit {
            seconds: self.busy.as_secs_f64(),
            cpu_s: cpu.since(self.cpu).cpu_s(),
            queries: self.answers.len() as u64,
            scale,
        });
        self.latencies.push(std::mem::take(&mut self.answers));
        self.busy = Duration::ZERO;
        self.speed_s = speed_s;
        self.cpu = probe::Usage::now();
        Ok(())
    }

    /// Stores the units and their latencies in `t`.
    pub fn finish(mut self, t: &mut Timed) -> Result<(), String> {
        if self.done.is_empty() && !self.answers.is_empty() {
            self.close()?;
        }
        t.units = self.done;
        t.unit_latencies = self.latencies;
        Ok(())
    }
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// The metrics `BENCHMARK.json` bounds, present on every workload.
    pub end_to_end: Vec<Metric>,
    /// Metrics named for this workload alone (printed, not in the JSON line).
    pub workload_metrics: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Human-readable lines: stream shares, working set, sample counts.
    pub notes: Vec<String>,
}

/// The end-to-end metrics every workload reports: set-up and memory, and the time metrics
/// each workload takes from its units (see `README.md`, Noise).
pub fn end_to_end(setup_s: &[f64], t: &Timed, qps: f64, cpu_ms_per_query: f64) -> Vec<Metric> {
    vec![
        metric("setup_s", "s", stats::median(setup_s)),
        metric("peak_rss_mb", "MB", t.peak_rss_mb),
        metric("cpu_ms_per_query", "ms", cpu_ms_per_query),
        metric("qps", "1/s", qps),
    ]
}

/// The latency percentiles and the whole-run figures, as measured, printed with each
/// workload's own metrics rather than bounded: on the workloads that answer a few dozen
/// queries a run, p99 is the slowest sample and p50 jumps between kinds of query, and the
/// whole-run figures ride on the host's speed (see `README.md`).  Where p99 has fewer than
/// 10 samples beyond it, the highest of p95, p90 and p75 that has is printed too.
pub fn run_metrics(t: &Timed) -> Vec<Metric> {
    let mut out = vec![
        metric(
            "query_p50_ms",
            "ms",
            stats::percentile(&t.latencies_ms, 50.0),
        ),
        metric(
            "query_p99_ms",
            "ms",
            stats::percentile(&t.latencies_ms, 99.0),
        ),
    ];
    if stats::beyond(&t.latencies_ms, 99.0) < 10 {
        if let Some(q) = [95.0, 90.0, 75.0]
            .into_iter()
            .find(|&q| stats::beyond(&t.latencies_ms, q) >= 10)
        {
            let name = format!("query_p{q}_ms");
            out.push(metric(name, "ms", stats::percentile(&t.latencies_ms, q)));
        }
    }
    out.push(metric("run_qps", "1/s", t.qps()));
    out.push(metric("cpu_s", "s", t.usage.cpu_s()));
    out
}

/// The process-level per-layer metrics of a timed phase, and the tracing overhead: wall
/// time per query of the traced units over that of the untraced ones.
pub fn proc_layers(t: &Timed) -> Vec<(&'static str, f64)> {
    let per_query = |(s, n): (f64, u64)| s / n.max(1) as f64;
    vec![
        (
            "proc.sys_cpu_share",
            t.usage.sys_s / t.usage.cpu_s().max(1e-9),
        ),
        ("proc.minor_faults", t.usage.minor_faults as f64),
        (
            "trace.overhead_ratio",
            per_query(t.traced) / per_query(t.untraced),
        ),
    ]
}

/// The recorder for unit `index` of a timed phase: a traced run alternates untraced and
/// traced units, starting untraced.
pub fn unit_recorder<'r>(rec: &'r Recorder, off: &'r Recorder, index: u64) -> &'r Recorder {
    if rec.enabled() && index % 2 == 1 {
        rec
    } else {
        off
    }
}

/// Notes shared by every workload: sample counts behind the percentiles, CPU split, units.
pub fn timing_notes(t: &Timed, notes: &mut Vec<String>) {
    notes.push(format!(
        "latency samples {} (beyond p99: {}, beyond p50: {}); cpu_s {:.3} (user {:.3}, sys {:.3}) \
         over {:.3} s",
        t.latencies_ms.len(),
        stats::beyond(&t.latencies_ms, 99.0),
        stats::beyond(&t.latencies_ms, 50.0),
        t.usage.cpu_s(),
        t.usage.user_s,
        t.usage.sys_s,
        t.elapsed_s,
    ));
    let per_query: Vec<String> = t
        .units
        .iter()
        .map(|u| {
            let ms = u.seconds * 1e3 / u.queries.max(1) as f64;
            format!("{ms:.1} x {:.2}", u.scale)
        })
        .collect();
    notes.push(format!(
        "{} units, wall ms per query x speed scale: {}; whole run as measured {:.2} qps",
        t.units.len(),
        per_query.join(", "),
        t.qps(),
    ));
}

/// Runs `f` `reps` times, keeping the last state and every duration, scaled to the host's
/// reference speed (measured between set-ups).  The previous state is dropped before the
/// next set-up starts, so set-ups do not stack in memory.
pub fn repeat_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    let mut speed_s = speed::measure()?;
    for _ in 0..reps.max(1) {
        drop(state.take());
        let start = Instant::now();
        state = Some(f());
        let took = start.elapsed().as_secs_f64();
        let after = speed::measure()?;
        times.push(took * speed::scale(speed_s, after));
        speed_s = after;
    }
    Ok((state.expect("at least one set-up"), times))
}

/// Threads the benchmark may create or configure (service workers, DAG workers, HTTP
/// connections): the host's hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

fn ram_gb() -> f64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| probe::parse_status_kb(&s, "MemTotal"))
        .map_or(0.0, |kb| kb as f64 / 1024.0 / 1024.0)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? != "0",
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got '{}')",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(args: &Args, rec: &Recorder) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "paper-algorithms" => paper::run(args, rec),
        "batch-joinheavy" => service::run(args, &service::JOINHEAVY, rec),
        "budget-oversized" => service::run(args, &service::OVERSIZED, rec),
        "http-openloop" => http::run(args, rec),
        other => Err(format!("no workload '{other}'")),
    }
}

fn json_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = if trace {
        &outcome.layers
    } else {
        &outcome.end_to_end
    };
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.tally.correct(),
        outcome.tally.attempted,
        outcome.tally.failed(),
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn print_table(title: &str, metrics: &[Metric]) {
    if metrics.is_empty() {
        return;
    }
    println!("{title}");
    for m in metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// Where traces and spill files go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

fn write_trace(args: &Args, rec: &Recorder) -> Result<String, String> {
    let dir = std::path::Path::new(OUT_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, trace::chrome_json(&rec.spans()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--kernel") {
        speed::kernel_main();
        return ExitCode::SUCCESS;
    }
    if argv.first().map(String::as_str) == Some("--generator") {
        return match http::generator_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("generator: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("urm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // The memory-budgeted epochs spill under the temporary directory; keep those files inside
    // the working directory with the rest of the benchmark's output.  Set before any thread
    // starts, so no other thread reads the environment meanwhile.
    let tmp = std::path::Path::new(OUT_DIR).join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("urm-benchmark: create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", tmp);
    let rec = Recorder::new(args.trace);
    let outcome = run(&args, &rec);
    speed::stop();
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("urm-benchmark: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    println!(
        "workload {}  seed {}  seconds {}  trace {}  host: nproc {}, RAM {:.1} GB",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        ram_gb()
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    let t = &outcome.tally;
    println!(
        "  attempted {}  errors {}  refused {} (above slo_qps, not failed: {})  mismatched {}  \
         failed_frac {:.6}  (empty-probability disagreements, not failed: {})",
        t.attempted,
        t.errors,
        t.refused,
        t.refused_above_slo,
        t.mismatched,
        t.failed_frac(),
        t.empty_differs,
    );
    let label = if args.trace {
        "end-to-end (traced run)"
    } else {
        "end-to-end"
    };
    print_table(label, &outcome.end_to_end);
    print_table("workload metrics", &outcome.workload_metrics);
    if args.trace {
        print_table("per-layer", &outcome.layers);
        println!("span self times");
        println!(
            "  {:<34} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, lt) in trace::layer_times(&rec.spans()) {
            println!(
                "  {:<34} {:>8} {:>12.3} {:>12.3}",
                name, lt.count, lt.total_ms, lt.self_ms
            );
        }
        match write_trace(&args, &rec) {
            Ok(path) => println!("chrome trace: {path}"),
            Err(e) => {
                eprintln!("urm-benchmark: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", json_line(&outcome, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload http-openloop --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload paper-algorithms --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload paper-algorithms --bogus 1")).is_err());
    }

    #[test]
    fn json_line_has_exactly_the_documented_keys() {
        let outcome = Outcome {
            tally: Tally {
                attempted: 4,
                refused: 1,
                ..Tally::default()
            },
            end_to_end: vec![metric("qps", "1/s", 12.5), metric("setup_s", "s", f64::NAN)],
            ..Outcome::default()
        };
        assert_eq!(
            json_line(&outcome, false),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {\
             \"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn one_error_makes_the_run_incorrect() {
        let mut outcome = Outcome {
            tally: Tally {
                attempted: 100,
                ..Tally::default()
            },
            ..Outcome::default()
        };
        assert!(json_line(&outcome, false)
            .starts_with("{\"correct\": true, \"attempted\": 100, \"failed\": 0,"));
        outcome.tally.errors = 1;
        assert!(json_line(&outcome, false)
            .starts_with("{\"correct\": false, \"attempted\": 100, \"failed\": 1,"));
        // Refusals past the knee are reported, not failed; below it they fail the run.
        outcome.tally = Tally {
            attempted: 100,
            refused: 5,
            refused_above_slo: 5,
            ..Tally::default()
        };
        assert!(json_line(&outcome, false)
            .starts_with("{\"correct\": true, \"attempted\": 100, \"failed\": 0,"));
        outcome.tally.refused_above_slo = 4;
        assert!(json_line(&outcome, false)
            .starts_with("{\"correct\": false, \"attempted\": 100, \"failed\": 1,"));
    }
}
