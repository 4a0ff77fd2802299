//! `http-openloop`: `urm-server` in-process on loopback, driven by one generator process
//! (this binary, `--generator`) that sends Poisson arrivals at a few fixed rates over at most
//! two keep-alive connections.  Latency runs from each request's due time to its answer, so
//! a stall also charges the requests queued behind it.  Every answer must be byte-identical
//! to `wire::answer_json` of the same spec answered by an in-process `QueryService`, whose
//! answers are in turn checked against `e-basic`.
//!
//! The open loop runs as segments, one generator run each, and the host's speed
//! ([`crate::speed`]) is measured between them while the server is idle: the time metrics are
//! those of the reference rate's half-second units, each at its segment's reference speed.

use crate::paper::{scenarios, MAPPINGS, SCALE, SETUP_REPS};
use crate::probe::{self, Usage};
use crate::stream::HTTP_SPECS;
use crate::timing_notes;
use crate::trace::Recorder;
use crate::verify::{compare, fnv1a, Verdict};
use crate::{end_to_end, layer_metrics, metric, nproc, repeat_setup, run_metrics, stats};
use crate::{rng::Rng, speed, Args, Latencies, Outcome, Timed, Unit};
use std::hint::black_box;
use std::io::Read;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use urm_core::reformulate::reformulate;
use urm_core::{evaluate, Algorithm::EBasic};
use urm_datagen::openloop::{self, OpenLoopConfig, PhaseSpec};
use urm_datagen::scenario::TargetSchemaKind;
use urm_server::{answer_json, parse_query_spec, AdmissionConfig, AdmissionController};
use urm_server::{request_once, HttpClient, UrmServer};
use urm_service::{QueryService, ServiceConfig};

/// Offered rates (requests/s) and each phase's share of the run.  The reference phase is the
/// longest, so its p99 has enough samples beyond it.  The last phase offers more than the
/// server's default admission refills for one client (512 requests/s after a burst of
/// 256), so it lies past the knee: there the server sheds load with refusals, and that rate
/// misses the latency limit.
pub const PHASES: [(f64, f64); 4] = [(100.0, 0.05), (200.0, 0.1), (400.0, 0.7), (800.0, 0.15)];
/// The phase whose latencies are `query_mean_ms`, `query_p50_ms` and `query_p99_ms`, and
/// whose CPU is `cpu_ms_per_query`.
pub const REFERENCE_PHASE: usize = 2;
/// The segments the reference phase is cut into.  Each segment is one run of the generator,
/// and the host's speed is measured between segments ([`crate::speed`]), with the server
/// idle, so the probe never competes with the server.  The other phases are one segment each.
pub const REFERENCE_SEGMENTS: usize = 4;
/// The length of the reference phase's units, in ns: half a second holds about 200
/// requests, and a 20-second run about 28 units.
pub const UNIT_NS: u64 = 500_000_000;
/// The p99 latency limit a rate must meet to count toward `slo_qps`.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Answers the service's answer cache holds: about half the spec set, so that about a
/// quarter of the requests are evaluated (the default, 1024, holds every spec after its
/// first request).  The hit ratio stays clear of one half, where the median would sit on
/// the edge between hits and evaluations.
pub const ANSWER_CACHE: usize = 7;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub phase: usize,
    pub segment: usize,
    /// Due time, from its segment's start.
    pub due_ns: u64,
    pub spec: usize,
}

/// The run's segments, in order: (phase, seconds).
pub fn segments(seconds: f64) -> Vec<(usize, f64)> {
    PHASES
        .iter()
        .enumerate()
        .flat_map(|(p, &(_, share))| {
            let n = if p == REFERENCE_PHASE {
                REFERENCE_SEGMENTS
            } else {
                1
            };
            std::iter::repeat_n((p, share * seconds / n as f64), n)
        })
        .collect()
}

/// The query mix: spec `r` of [`HTTP_SPECS`] listed round(60 / (r + 1)) times, so that a
/// uniform draw from the mix follows Zipf(1) popularity.
fn mix() -> Vec<String> {
    HTTP_SPECS
        .iter()
        .enumerate()
        .flat_map(|(r, spec)| {
            std::iter::repeat_n(spec.to_string(), (60.0 / (r + 1) as f64).round() as usize)
        })
        .collect()
}

/// The seeded open-loop schedule from `urm_datagen::openloop`: per segment, rate × its
/// seconds Poisson arrivals drawn from [`mix`], each segment from its own seed.  Parent and
/// generator compute the same schedule from the same seed.
pub fn schedule(seed: u64, seconds: f64) -> Result<Vec<Arrival>, String> {
    let mut arrivals = Vec::new();
    for (segment, (phase, segment_s)) in segments(seconds).into_iter().enumerate() {
        let rate = PHASES[phase].0;
        let requests = (rate * segment_s).round() as usize;
        let config = OpenLoopConfig {
            clients: 1,
            mix: mix(),
            phases: vec![PhaseSpec::new(&format!("{rate}/s"), rate, requests)],
            seed: Rng::derive(seed, &format!("segment {segment}")).next_u64(),
        };
        for a in openloop::schedule(&config).map_err(|e| format!("schedule: {e}"))? {
            let spec = HTTP_SPECS
                .iter()
                .position(|&s| s == a.entry.label)
                .ok_or(format!("schedule: unknown spec '{}'", a.entry.label))?;
            arrivals.push(Arrival {
                phase,
                segment,
                due_ns: a.at.as_nanos() as u64,
                spec,
            });
        }
    }
    Ok(arrivals)
}

/// What a spec's answer must be: the hash of the in-process service's wire rendering, and
/// how that answer compared with e-basic.
struct Expected {
    hash: u64,
    verdict: Verdict,
}

/// What the generator saw for one arrival (times in ns from the generator's start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observed {
    pub index: usize,
    pub status: u16,
    /// `e`valuated, answer-`c`ache, batch-`d`edup, or `-` when unknown.
    pub served: char,
    /// When a connection was free and the request was due.
    pub ready_ns: u64,
    pub send_ns: u64,
    pub done_ns: u64,
    /// FNV-1a of the answer object in the response body.
    pub answer_hash: u64,
}

impl Observed {
    fn to_line(self) -> String {
        format!(
            "{} {} {} {} {} {} {}",
            self.index,
            self.status,
            self.served,
            self.ready_ns,
            self.send_ns,
            self.done_ns,
            self.answer_hash
        )
    }

    fn parse(line: &str) -> Option<Observed> {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 7 {
            return None;
        }
        Some(Observed {
            index: f[0].parse().ok()?,
            status: f[1].parse().ok()?,
            served: f[2].chars().next()?,
            ready_ns: f[3].parse().ok()?,
            send_ns: f[4].parse().ok()?,
            done_ns: f[5].parse().ok()?,
            answer_hash: f[6].parse().ok()?,
        })
    }
}

/// The `answer` object of a `/query` response body, as the server rendered it:
/// `{"answer":<answer_json>,"served_from":"…","batch":N}`.
pub fn answer_part(body: &str) -> Option<&str> {
    let rest = body.strip_prefix("{\"answer\":")?;
    Some(&rest[..rest.rfind(",\"served_from\":")?])
}

fn served_from(body: &str) -> char {
    let key = "\"served_from\":\"";
    match body.find(key).map(|i| &body[i + key.len()..]) {
        Some(s) if s.starts_with("evaluated") => 'e',
        Some(s) if s.starts_with("answer-cache") => 'c',
        Some(s) if s.starts_with("batch-dedup") => 'd',
        _ => '-',
    }
}

/// The generator process: `--generator --addr A --seed S --seconds T --segment K
/// --connections C`.  Sends segment K of the schedule and prints one [`Observed`] line per
/// arrival of it.
pub fn generator_main(argv: &[String]) -> Result<(), String> {
    let mut addr = None;
    let (mut seed, mut seconds, mut segment, mut connections) = (1u64, 1.0f64, 0usize, 1usize);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--addr" => addr = Some(value.parse::<SocketAddr>().map_err(|e| bad(&e))?),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--segment" => segment = value.parse().map_err(|e| bad(&e))?,
            "--connections" => connections = value.parse().map_err(|e| bad(&e))?,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let addr = addr.ok_or("--addr is required")?;
    let arrivals: Vec<Arrival> = schedule(seed, seconds)?
        .into_iter()
        .filter(|a| a.segment == segment)
        .collect();
    let timeout = Duration::from_secs(20);
    let clients = (0..connections.max(1))
        .map(|_| HttpClient::connect(addr, timeout))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let next = AtomicUsize::new(0);
    let observed = Mutex::new(Vec::with_capacity(arrivals.len()));
    let start = Instant::now() + Duration::from_millis(20);
    let start_unix_ns = unix_ns() + 20_000_000;
    let since = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    std::thread::scope(|scope| {
        for mut client in clients {
            let (arrivals, next, observed) = (&arrivals, &next, &observed);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                let Some(a) = arrivals.get(index) else { break };
                let free = Instant::now();
                let due = start + Duration::from_nanos(a.due_ns);
                if let Some(wait) = due.checked_duration_since(free) {
                    std::thread::sleep(wait);
                }
                let ready = due.max(free);
                let send = Instant::now();
                let body = format!("{{\"spec\":\"{}\"}}", HTTP_SPECS[a.spec]);
                let response = client.request("POST", "/query", Some(&body));
                let done = Instant::now();
                let (status, served, answer_hash) = match &response {
                    Ok(r) => (
                        r.status,
                        served_from(&r.body),
                        answer_part(&r.body).map_or(0, |s| fnv1a(s.as_bytes())),
                    ),
                    Err(_) => (0, '-', 0),
                };
                if response.is_err() {
                    if let Ok(fresh) = HttpClient::connect(addr, timeout) {
                        client = fresh;
                    }
                }
                observed
                    .lock()
                    .expect("no generator thread panics holding the lock")
                    .push(Observed {
                        index,
                        status,
                        served,
                        ready_ns: since(ready),
                        send_ns: since(send),
                        done_ns: since(done),
                        answer_hash,
                    });
            });
        }
    });
    let mut observed = observed
        .into_inner()
        .map_err(|_| "generator thread panicked")?;
    observed.sort_by_key(|o| o.index);
    let mut out = format!("start {start_unix_ns}\n");
    for o in observed {
        out.push_str(&o.to_line());
        out.push('\n');
    }
    print!("{out}");
    Ok(())
}

/// Mean time per stage, in ms, from the stage histograms of the server's Prometheus
/// exposition (`GET /metrics`): `urm_stage_duration_ns_{sum,count}{stage="…"}`.
fn stage_means(addr: SocketAddr) -> Result<Vec<(&'static str, f64)>, String> {
    let body = request_once(addr, Duration::from_secs(10), "GET", "/metrics", None)
        .map_err(|e| format!("GET /metrics: {e}"))?
        .body;
    let series = |stage: &str, part: &str| {
        let key = format!("urm_stage_duration_ns_{part}{{stage=\"{stage}\"}} ");
        body.lines()
            .find_map(|l| l.strip_prefix(key.as_str())?.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    Ok([
        ("service.stage.rewrite_ms", "rewrite"),
        ("service.stage.plan_ms", "plan"),
        ("service.stage.execute_ms", "execute"),
        ("service.stage.aggregate_ms", "aggregate"),
    ]
    .into_iter()
    .map(|(name, stage)| {
        (
            name,
            series(stage, "sum") / 1e6 / series(stage, "count").max(1.0),
        )
    })
    .collect())
}

/// Kills and reaps the generator if the run bails out while it is alive.
struct Reaped(Option<Child>);

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Nanoseconds since the Unix epoch: the clock parent and generator share.
fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// The generator's observations of one segment and its start on the shared clock
/// ([`unix_ns`]).
fn drive(
    addr: SocketAddr,
    seed: u64,
    seconds: f64,
    segment: usize,
) -> Result<(Vec<Observed>, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = Command::new(exe)
        .args(["--generator", "--addr", &addr.to_string()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--segment",
            &segment.to_string(),
        ])
        .args(["--connections", &nproc().min(2).to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn generator: {e}"))?;
    let mut guard = Reaped(Some(child));
    let child = guard.0.as_mut().expect("just spawned");
    let mut text = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut text)
        .map_err(|e| format!("read generator output: {e}"))?;
    let status = child
        .wait()
        .map_err(|e| format!("wait for generator: {e}"))?;
    guard.0 = None;
    if !status.success() {
        return Err(format!("generator exited with {status}"));
    }
    let mut lines = text.lines();
    let start = lines
        .next()
        .and_then(|l| l.strip_prefix("start ")?.parse().ok())
        .ok_or("the generator printed no start")?;
    let observed = lines
        .map(|l| Observed::parse(l).ok_or(format!("bad generator line '{l}'")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((observed, start))
}

/// The observations of every segment on one clock, ns from the first segment's start.
struct Driven {
    observed: Vec<Observed>,
    /// The first segment's start on the shared clock ([`unix_ns`]).
    start_unix_ns: u64,
    /// Each segment's start, ns from the first's.
    segment_start_ns: Vec<u64>,
    /// Each segment's speed scale ([`speed::scale`]).
    scales: Vec<f64>,
    /// The segments' wall time, from each start to its last answer, summed.
    busy_s: f64,
}

/// Runs the schedule segment by segment, measuring the host's speed before the first and
/// after each one, while the server is idle.
fn drive_segments(addr: SocketAddr, seed: u64, seconds: f64) -> Result<Driven, String> {
    let mut out = Driven {
        observed: Vec::new(),
        start_unix_ns: 0,
        segment_start_ns: Vec::new(),
        scales: Vec::new(),
        busy_s: 0.0,
    };
    let mut speed_s = speed::measure()?;
    for segment in 0..segments(seconds).len() {
        let (observed, start) = drive(addr, seed, seconds, segment)?;
        let after = speed::measure()?;
        out.scales.push(speed::scale(speed_s, after));
        speed_s = after;
        if segment == 0 {
            out.start_unix_ns = start;
        }
        let shift = start.saturating_sub(out.start_unix_ns);
        out.segment_start_ns.push(shift);
        out.busy_s += observed.iter().map(|o| o.done_ns).max().unwrap_or(0) as f64 / 1e9;
        let offset = out.observed.len();
        out.observed.extend(observed.into_iter().map(|o| Observed {
            index: o.index + offset,
            ready_ns: o.ready_ns + shift,
            send_ns: o.send_ns + shift,
            done_ns: o.done_ns + shift,
            ..o
        }));
    }
    Ok(out)
}

/// Process CPU seconds on the shared clock, sampled every 20 ms until `stop` is set.
fn sample_cpu(stop: &AtomicBool) -> Vec<(u64, f64)> {
    let mut samples = Vec::new();
    loop {
        samples.push((unix_ns(), Usage::now().cpu_s()));
        if stop.load(Ordering::SeqCst) {
            return samples;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// CPU seconds at `at` on the shared clock, interpolated between the samples around it.
fn cpu_at(samples: &[(u64, f64)], at: u64) -> f64 {
    let i = samples.partition_point(|&(t, _)| t < at);
    match (
        i.checked_sub(1).and_then(|j| samples.get(j)),
        samples.get(i),
    ) {
        (Some(&(t0, c0)), Some(&(t1, c1))) if t1 > t0 => {
            c0 + (c1 - c0) * (at - t0) as f64 / (t1 - t0) as f64
        }
        (_, Some(&(_, c))) | (Some(&(_, c)), None) => c,
        (None, None) => 0.0,
    }
}

/// Units of [`UNIT_NS`] of each segment of the reference phase, by due time: the answered
/// requests due in each unit, the process CPU spent meanwhile, and the segment's speed
/// scale; and each unit's (spec, latency) pairs.
fn reference_units(
    arrivals: &[Arrival],
    latencies: &[Option<f64>],
    cpu: &[(u64, f64)],
    start_unix_ns: u64,
    scales: &[f64],
) -> (Vec<Unit>, Vec<Latencies>) {
    let mut units = (Vec::new(), Vec::new());
    for (segment, &scale) in scales.iter().enumerate() {
        let of_segment: Vec<(&Arrival, Option<f64>)> = arrivals
            .iter()
            .zip(latencies.iter().copied())
            .filter(|(a, _)| a.segment == segment && a.phase == REFERENCE_PHASE)
            .collect();
        let (Some(first), Some(last)) = (of_segment.first(), of_segment.last()) else {
            continue;
        };
        let (mut from, last) = (first.0.due_ns, last.0.due_ns);
        while from + UNIT_NS <= last {
            let to = from + UNIT_NS;
            let answered: Latencies = of_segment
                .iter()
                .filter(|(a, _)| (from..to).contains(&a.due_ns))
                .filter_map(|&(a, l)| Some((a.spec, l?)))
                .collect();
            units.0.push(Unit {
                seconds: UNIT_NS as f64 / 1e9,
                cpu_s: cpu_at(cpu, start_unix_ns + to) - cpu_at(cpu, start_unix_ns + from),
                queries: answered.len() as u64,
                scale,
            });
            units.1.push(answered);
            from = to;
        }
    }
    units
}

/// Requests every spec once, before the timed phase, so that every epoch's caches hold what
/// the stream will need.  Otherwise the timed phase's peak memory would depend on which
/// rarely drawn specs a seed's schedule happens to contain.
fn warm_up(addr: SocketAddr) -> Result<(), String> {
    for spec in HTTP_SPECS {
        let body = format!("{{\"spec\":\"{spec}\"}}");
        let response = request_once(addr, Duration::from_secs(20), "POST", "/query", Some(&body))
            .map_err(|e| format!("warm-up {spec}: {e}"))?;
        if response.status != 200 {
            return Err(format!("warm-up {spec}: status {}", response.status));
        }
    }
    Ok(())
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        answer_cache_capacity: ANSWER_CACHE,
        ..crate::service::config(None)
    }
}

pub fn run(args: &Args, rec: &Recorder) -> Result<Outcome, String> {
    let targets = TargetSchemaKind::all();
    let ((setup, server), setup_times) = {
        let (state, times) = repeat_setup(SETUP_REPS, || {
            let setup = scenarios(&targets, SCALE, MAPPINGS, args.seed)?;
            let svc = QueryService::new(service_config());
            let epochs = setup
                .scenarios
                .iter()
                .map(|s| {
                    (
                        s.config.target,
                        svc.register_epoch(s.catalog.clone(), s.mappings.clone()),
                    )
                })
                .collect();
            let admission = AdmissionController::new(AdmissionConfig::default());
            let server = UrmServer::start("127.0.0.1:0", svc, epochs, admission)
                .map_err(|e| format!("start server: {e}"))?;
            Ok::<_, String>((setup, server))
        })?;
        (state?, times)
    };

    warm_up(server.addr())?;
    probe::reset_peak_rss();
    let before = Usage::now();
    let (started, started_unix_ns) = (Instant::now(), unix_ns());
    let stop = AtomicBool::new(false);
    let (driven, cpu) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_cpu(&stop));
        let driven = drive_segments(server.addr(), args.seed, args.seconds);
        stop.store(true, Ordering::SeqCst);
        (
            driven,
            sampler.join().expect("the CPU sampler does not panic"),
        )
    });
    let Driven {
        observed,
        start_unix_ns,
        segment_start_ns,
        scales,
        busy_s,
    } = driven?;
    let usage = Usage::now().since(before);
    let peak_rss_mb = probe::peak_rss_mb();
    // The schedule on the observations' clock: ns from the first segment's start.
    let arrivals: Vec<Arrival> = schedule(args.seed, args.seconds)?
        .into_iter()
        .map(|a| Arrival {
            due_ns: a.due_ns + segment_start_ns[a.segment],
            ..a
        })
        .collect();
    // The generator's clock starts this much after `started`.
    let offset = Duration::from_nanos(start_unix_ns.saturating_sub(started_unix_ns));
    if observed.len() != arrivals.len() {
        return Err(format!(
            "generator answered {} of {} arrivals",
            observed.len(),
            arrivals.len()
        ));
    }

    // Expected bytes: the same specs through an in-process service, each of whose answers is
    // checked in turn against e-basic, so that a fault the server and the in-process service
    // share still shows.  Built after the open loop, so its memory does not count in the timed
    // phase's peak.
    let expected: Vec<Expected> = {
        let svc = QueryService::new(ServiceConfig {
            workers: 1,
            dag_workers: 1,
            ..service_config()
        });
        let epochs: Vec<_> = setup
            .scenarios
            .iter()
            .map(|s| {
                (
                    s.config.target,
                    svc.register_epoch(s.catalog.clone(), s.mappings.clone()),
                )
            })
            .collect();
        let mut expected = Vec::new();
        for spec in HTTP_SPECS {
            let entry = parse_query_spec(spec)?;
            let epoch = epochs
                .iter()
                .find(|(t, _)| *t == entry.target)
                .expect("all targets")
                .1;
            let answer = svc
                .execute_all(epoch, vec![entry.query.clone()])
                .map_err(|e| format!("in-process {spec}: {e}"))?
                .remove(0)
                .answer;
            let sc = setup.get(entry.target);
            let verdict = match evaluate(&entry.query, &sc.mappings, &sc.catalog, EBasic) {
                Ok(reference) => compare(&reference.answer, &answer),
                Err(_) => Verdict::Mismatch,
            };
            expected.push(Expected {
                hash: fnv1a(answer_json(&entry.label, &answer).to_string().as_bytes()),
                verdict,
            });
        }
        svc.shutdown();
        expected
    };

    let mut outcome = Outcome::default();
    let mut phase_lat: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
    let mut phase_failed = vec![0u64; PHASES.len()];
    let mut phase_refused = vec![0u64; PHASES.len()];
    let (mut self_ms, mut lag_ms) = (Vec::new(), Vec::new());
    let ns_ms = |ns: u64| ns as f64 / 1e6;
    let mut latencies = Vec::with_capacity(arrivals.len());
    for (a, o) in arrivals.iter().zip(&observed) {
        let t = &mut outcome.tally;
        t.attempted += 1;
        lag_ms.push(ns_ms(o.send_ns - o.ready_ns.min(o.send_ns)));
        let want = &expected[a.spec];
        let ok = match o.status {
            200 if o.answer_hash == want.hash => {
                t.record(want.verdict);
                want.verdict != Verdict::Mismatch
            }
            200 => {
                t.mismatched += 1;
                false
            }
            429 => {
                t.refused += 1;
                phase_refused[a.phase] += 1;
                false
            }
            _ => {
                t.errors += 1;
                false
            }
        };
        let latency = ok.then(|| ns_ms(o.done_ns.saturating_sub(a.due_ns)));
        latencies.push(latency);
        if let Some(latency) = latency {
            phase_lat[a.phase].push(latency);
            if o.served == 'c' {
                self_ms.push(ns_ms(o.done_ns - o.send_ns));
            }
        } else {
            phase_failed[a.phase] += 1;
        }
        rec.record(
            "http.request",
            o.index as u64,
            started + offset + Duration::from_nanos(o.send_ns),
            started + offset + Duration::from_nanos(o.done_ns),
        );
    }

    let answered: usize = phase_lat.iter().map(Vec::len).sum();
    let (units, unit_latencies) =
        reference_units(&arrivals, &latencies, &cpu, start_unix_ns, &scales);
    let timed = Timed {
        latencies_ms: phase_lat[REFERENCE_PHASE].clone(),
        answered: answered as u64,
        elapsed_s: busy_s,
        usage,
        peak_rss_mb,
        units,
        unit_latencies,
        ..Timed::default()
    };
    // qps is the whole run's, which is the offered load less what the server refused past its
    // knee: a figure of the schedule and of admission, not of the server's speed.  CPU and
    // latency are those of the reference rate's units: the median over the units (the first
    // left out) of each unit's CPU per request and mean latency, at the reference speed, so
    // that the stalls the host's scheduler adds to some units do not swing them.
    outcome.end_to_end = end_to_end(
        &setup_times,
        &timed,
        timed.qps(),
        timed.warm_cpu_ms_per_query(true),
    );
    outcome.notes.push(format!(
        "as measured: cpu {:.4} ms/request, mean latency {:.4} ms (median over units); \
         speed scale per segment {}",
        timed.warm_cpu_ms_per_query(false),
        timed.warm_latency_ms(false),
        scales
            .iter()
            .map(|s| format!("{s:.2}"))
            .collect::<Vec<_>>()
            .join(", "),
    ));

    let mut slo_qps = 0.0f64;
    for (p, &(rate, _)) in PHASES.iter().enumerate() {
        let lat = &phase_lat[p];
        let failed = phase_failed[p];
        // A failed request misses the limit; a growing backlog shows as a late last quarter.
        let mut with_failures = lat.clone();
        with_failures.extend(std::iter::repeat_n(f64::INFINITY, failed as usize));
        let p99 = stats::percentile(&with_failures, 99.0);
        let tail = &lat[lat.len() * 3 / 4..];
        let backlog = stats::median(tail) > LATENCY_LIMIT_MS;
        if p99 <= LATENCY_LIMIT_MS && !backlog {
            slo_qps = slo_qps.max(rate);
        }
        outcome.notes.push(format!(
            "rate {rate:>5} /s: {} requests, p50 {:.3} ms, p99 {:.3} ms (beyond p99: {}), \
             failed {failed} (refused {}){}",
            lat.len() as u64 + failed,
            stats::median(lat),
            stats::percentile(lat, 99.0),
            stats::beyond(lat, 99.0),
            phase_refused[p],
            if backlog { ", backlog growing" } else { "" },
        ));
    }
    outcome.tally.refused_above_slo = PHASES
        .iter()
        .zip(&phase_refused)
        .filter(|((rate, _), _)| *rate > slo_qps)
        .map(|(_, &refused)| refused)
        .sum();
    let m = server.metrics();
    let distinct = crate::stream::distinct_share(arrivals.iter().map(|a| a.spec));
    outcome.notes.push(format!(
        "{} specs Zipf(1) over {} connections; distinct share {distinct:.4}, repeat share {:.4}; \
         working set {} specs against an answer cache of {ANSWER_CACHE}, hit ratio {:.4}; \
         reference rate {} /s, limit p99 <= {LATENCY_LIMIT_MS} ms",
        HTTP_SPECS.len(),
        nproc().min(2),
        1.0 - distinct,
        HTTP_SPECS.len(),
        m.answer_hit_rate(),
        PHASES[REFERENCE_PHASE].0,
    ));
    timing_notes(&timed, &mut outcome.notes);
    outcome.workload_metrics = vec![
        metric("query_mean_ms", "ms", timed.warm_latency_ms(true)),
        metric("slo_qps", "1/s", slo_qps),
        metric("failed_frac", "ratio", outcome.tally.failed_frac()),
    ];
    outcome.workload_metrics.extend(run_metrics(&timed));

    if args.trace {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut rewrite = Duration::ZERO;
        rec.span("bench.layers", 0, || {
            for (i, spec) in HTTP_SPECS.iter().enumerate() {
                let Ok(entry) = parse_query_spec(spec) else {
                    continue;
                };
                let sc = setup.get(entry.target);
                let t0 = Instant::now();
                rec.span("core.reformulate_all", i as u64, || {
                    for mapping in sc.mappings.iter() {
                        let _ = black_box(reformulate(&entry.query, mapping, &sc.catalog));
                    }
                });
                rewrite += t0.elapsed();
            }
        });
        let evaluated = m.queries_submitted.saturating_sub(m.answer_cache_hits);
        let mut measured = stage_means(server.addr())?;
        measured.extend([
            ("datagen.generate_s", setup.generate_s),
            ("matching.top_h_s", setup.top_h_s),
            (
                "core.rewrite_us_per_query",
                rewrite.as_secs_f64() * 1e6 / HTTP_SPECS.len() as f64,
            ),
            (
                "core.operators_per_query",
                ratio(m.source_operators, m.queries_evaluated),
            ),
            ("engine.dag_nodes", ratio(m.dag_nodes_executed, m.batches)),
            ("engine.epoch_reuse_ratio", m.epoch_reuse_rate()),
            (
                "engine.columnar_row_share",
                ratio(m.columnar_rows, m.tuples_output),
            ),
            ("service.batch_queries_mean", ratio(evaluated, m.batches)),
            (
                "service.batch_dedup_ratio",
                ratio(m.batch_deduped, m.queries_submitted),
            ),
            ("service.answer_cache_hit_ratio", m.answer_hit_rate()),
            ("server.http_self_ms_p50", stats::percentile(&self_ms, 50.0)),
            ("server.http_self_ms_p99", stats::percentile(&self_ms, 99.0)),
            (
                "server.rejected_frac",
                ratio(outcome.tally.refused, outcome.tally.attempted),
            ),
            ("server.gen_lag_ms_p99", stats::percentile(&lag_ms, 99.0)),
            ("server.slo_qps", slo_qps),
            ("proc.sys_cpu_share", usage.sys_s / usage.cpu_s().max(1e-9)),
            ("proc.minor_faults", usage.minor_faults as f64),
            // Spans are rebuilt from the generator's timestamps after the run, so the
            // measured path carries no tracing cost.
            ("trace.overhead_ratio", 1.0),
        ]);
        outcome.layers = layer_metrics(&measured);
    }
    server.shutdown();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_phased() {
        let a = schedule(3, 4.0).unwrap();
        assert_eq!(a, schedule(3, 4.0).unwrap());
        assert_ne!(a, schedule(4, 4.0).unwrap());
        // 100 × 0.2 s + 200 × 0.4 s + 400 × 2.8 s + 800 × 0.6 s arrivals.
        assert_eq!(a.len(), 20 + 80 + 1120 + 480);
        // Segments in order, each with its arrivals in due order.
        assert!(a.windows(2).all(|w| w[0].segment < w[1].segment
            || (w[0].segment == w[1].segment && w[0].due_ns <= w[1].due_ns)));
        assert_eq!(a.last().map(|x| x.phase), Some(PHASES.len() - 1));
        assert_eq!(segments(4.0).len(), PHASES.len() + REFERENCE_SEGMENTS - 1);
        let reference = |k| a.iter().filter(|x| x.segment == k).count();
        assert_eq!((reference(2), reference(5)), (280, 280));
        assert!(a.iter().all(|x| x.phase == segments(4.0)[x.segment].0));
        // Zipf(1): the first spec is drawn about twice as often as the second.
        let count = |spec| a.iter().filter(|x| x.spec == spec).count();
        assert!(count(0) > count(1) && count(1) > count(HTTP_SPECS.len() - 1));
    }

    #[test]
    fn observed_lines_round_trip() {
        let o = Observed {
            index: 4,
            status: 200,
            served: 'c',
            ready_ns: 10,
            send_ns: 12,
            done_ns: 99,
            answer_hash: u64::MAX,
        };
        assert_eq!(Observed::parse(&o.to_line()), Some(o));
        assert_eq!(Observed::parse("1 2"), None);
    }

    #[test]
    fn answer_part_is_the_wire_answer() {
        let body = "{\"answer\":{\"label\":\"Q1\",\"tuples\":[],\"empty_probability\":1},\
                    \"served_from\":\"answer-cache\",\"batch\":3}";
        assert_eq!(
            answer_part(body),
            Some("{\"label\":\"Q1\",\"tuples\":[],\"empty_probability\":1}")
        );
        assert_eq!(served_from(body), 'c');
        assert_eq!(answer_part("{\"error\":\"x\"}"), None);
    }
}
