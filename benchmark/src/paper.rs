//! `paper-algorithms`: the paper's own experiment.  Table III's Q1–Q10 on their three target
//! schemas (scale 20, h = 30), evaluated one query at a time through `urm_core::evaluate`.
//! A round runs one whole pass under each of the five algorithms in turn, and rounds repeat
//! until the run's time is up, so a drift of the host's speed weighs on every algorithm
//! alike.  Every answer is checked against `basic` (`e-basic` for `basic` itself).

use crate::probe::{self, ms, Usage};
use crate::trace::Recorder;
use crate::verify::{compare, Tally, Verdict};
use crate::{end_to_end, layer_metrics, metric, proc_layers, repeat_setup, run_metrics};
use crate::{speed, stats, timing_notes, unit_recorder, Args, Outcome, Timed, Unit};
use std::hint::black_box;
use std::time::{Duration, Instant};
use urm_core::reformulate::reformulate;
use urm_core::{evaluate, Algorithm, Evaluation, ProbabilisticAnswer, Strategy, TargetQuery};
use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
use urm_datagen::similarity::{score_schemas, DEFAULT_THRESHOLD};
use urm_datagen::source::{generate_source, source_schema_def};
use urm_datagen::workload::all_queries;
use urm_matching::MappingSet;

pub const SCALE: usize = 20;
pub const MAPPINGS: usize = 30;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Generated scenarios and how long each generation layer took.
pub struct Scenarios {
    pub scenarios: Vec<Scenario>,
    pub generate_s: f64,
    pub top_h_s: f64,
}

impl Scenarios {
    pub fn get(&self, target: TargetSchemaKind) -> &Scenario {
        self.scenarios
            .iter()
            .find(|s| s.config.target == target)
            .expect("scenario generated for every target used")
    }
}

/// Source data (`urm-datagen`) and top-h mappings (`urm-matching`) for each target, timed
/// separately.
pub fn scenarios(
    targets: &[TargetSchemaKind],
    scale: usize,
    mappings: usize,
    seed: u64,
) -> Result<Scenarios, String> {
    let mut out = Scenarios {
        scenarios: Vec::new(),
        generate_s: 0.0,
        top_h_s: 0.0,
    };
    for &target in targets {
        let start = Instant::now();
        let catalog = generate_source(scale, seed);
        out.generate_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let source_def = source_schema_def();
        let target_def = target.schema();
        let sim = score_schemas(&source_def, &target_def, DEFAULT_THRESHOLD)
            .map_err(|e| e.to_string())?;
        let top = MappingSet::top_h(&sim, mappings).map_err(|e| e.to_string())?;
        out.top_h_s += start.elapsed().as_secs_f64();
        out.scenarios.push(Scenario {
            config: ScenarioConfig {
                target,
                scale,
                mappings,
                seed,
            },
            catalog,
            source_def,
            target_def,
            mappings: top,
        });
    }
    Ok(out)
}

struct PaperQuery<'a> {
    query: TargetQuery,
    scenario: &'a Scenario,
    /// Reference answers: every algorithm is checked against `basic`, `basic` against
    /// `e-basic`.
    basic: Result<ProbabilisticAnswer, String>,
    ebasic: Result<ProbabilisticAnswer, String>,
}

/// The five algorithms, in the order each round runs them, with the names their metrics use.
pub const ALGORITHMS: [(Algorithm, &str); 5] = [
    (Algorithm::Basic, "basic"),
    (Algorithm::EBasic, "ebasic"),
    (Algorithm::EMqo, "emqo"),
    (Algorithm::QSharing, "qsharing"),
    (Algorithm::OSharing(Strategy::Sef), "osharing"),
];

/// Per-query accounting returned by the evaluations of a timed phase.
#[derive(Default)]
struct Counters {
    evaluations: u64,
    operators: u64,
    exec: Duration,
    aggregate: Duration,
    tuples: u64,
    tuples_output: u64,
    columnar_rows: u64,
}

impl Counters {
    fn add(&mut self, e: &Evaluation) {
        self.evaluations += 1;
        self.operators += e.metrics.source_operators();
        self.exec += e.metrics.exec.exec_time;
        self.aggregate += e.metrics.aggregation_time;
        self.tuples += e.metrics.exec.tuples_read + e.metrics.exec.tuples_output;
        self.tuples_output += e.metrics.exec.tuples_output;
        self.columnar_rows += e.metrics.exec.columnar_rows;
    }
}

/// One algorithm's pass over the queries in one round.
#[derive(Debug, Clone, Copy, Default)]
struct Pass {
    /// The pass's latency intervals, summed.
    seconds: f64,
    cpu_s: f64,
    answered: u64,
    /// The pass's speed scale ([`speed::scale`]), from the host's speed measured just before
    /// and just after it.
    scale: f64,
}

/// The rounds of a timed phase: each runs every algorithm's pass in [`ALGORITHMS`] order.
#[derive(Default)]
struct Rounds {
    passes: Vec<[Pass; 5]>,
    /// Each algorithm's peak resident set in the first round (`VmHWM`, reset before each
    /// pass after the allocator returned its free memory).
    peak_mb: [f64; 5],
    counters: [Counters; 5],
}

impl Rounds {
    /// The median over the rounds after the first (the first, if it is the only one) of
    /// `per_query` of algorithm `a`'s pass, at the reference speed if `scaled`.
    fn median(&self, a: usize, scaled: bool, per_query: impl Fn(&Pass) -> f64) -> f64 {
        let skip = usize::from(self.passes.len() > 1);
        let values: Vec<f64> = self.passes[skip..]
            .iter()
            .map(|p| {
                let factor = if scaled { p[a].scale } else { 1.0 };
                per_query(&p[a]) * factor / p[a].answered.max(1) as f64
            })
            .collect();
        stats::median(&values)
    }

    /// Algorithm `a`'s wall seconds per query, at the reference speed if `scaled`.
    fn query_s(&self, a: usize, scaled: bool) -> f64 {
        self.median(a, scaled, |p| p.seconds)
    }

    /// Algorithm `a`'s CPU seconds per query, at the reference speed if `scaled`.
    fn cpu_s(&self, a: usize, scaled: bool) -> f64 {
        self.median(a, scaled, |p| p.cpu_s)
    }
}

/// The geometric mean over the algorithms of `f`: every algorithm weighs the same, so a
/// change that speeds one algorithm up by a given factor moves it as much, whichever one.
fn geomean(f: impl Fn(usize) -> f64) -> f64 {
    let n = ALGORITHMS.len();
    ((0..n).map(|a| f(a).ln()).sum::<f64>() / n as f64).exp()
}

/// Rounds of whole passes, one per algorithm, until `seconds` of evaluation time have run.
/// Each answer is checked against its reference between calls, outside the latency
/// intervals; `elapsed_s` is the sum of those intervals.  The host's speed is measured
/// between passes: a round lasts seconds, and the host's speed changes within that.
fn timed_rounds(
    queries: &[PaperQuery<'_>],
    seconds: f64,
    tally: &mut Tally,
    rec: &Recorder,
) -> Result<(Timed, Rounds), String> {
    let mut t = Timed::default();
    let mut rounds = Rounds::default();
    let mut busy = Duration::ZERO;
    let off = Recorder::new(false);
    let mut speed_s = speed::measure()?;
    let before = Usage::now();
    let mut round = 0u64;
    while round == 0 || busy.as_secs_f64() < seconds {
        let rec = unit_recorder(rec, &off, round);
        let round_start = (busy, t.answered, Usage::now(), speed_s);
        let mut passes = [Pass::default(); 5];
        for (a, &(algorithm, _)) in ALGORITHMS.iter().enumerate() {
            // The first round, which the time metrics leave out, measures each algorithm's
            // peak memory from a clean start; later rounds reuse what the allocator holds.
            if round == 0 {
                probe::release_free_memory();
                probe::reset_peak_rss();
            }
            let cpu = Usage::now();
            for (i, q) in queries.iter().enumerate() {
                let group = round * 1000 + a as u64 * 100 + i as u64;
                tally.attempted += 1;
                let start = Instant::now();
                let result = rec.span("core.evaluate", group, || {
                    evaluate(
                        &q.query,
                        &q.scenario.mappings,
                        &q.scenario.catalog,
                        algorithm,
                    )
                });
                let took = start.elapsed();
                busy += took;
                passes[a].seconds += took.as_secs_f64();
                match result {
                    Ok(e) => {
                        t.answered += 1;
                        t.latencies_ms.push(ms(took));
                        passes[a].answered += 1;
                        rounds.counters[a].add(&e);
                        let reference = match algorithm {
                            Algorithm::Basic => &q.ebasic,
                            _ => &q.basic,
                        };
                        tally.record(match reference {
                            Ok(r) => compare(r, &e.answer),
                            Err(_) => Verdict::Mismatch,
                        });
                    }
                    Err(_) => tally.errors += 1,
                }
            }
            passes[a].cpu_s = Usage::now().since(cpu).cpu_s();
            if round == 0 {
                rounds.peak_mb[a] = probe::peak_rss_mb();
            }
            let after = speed::measure()?;
            passes[a].scale = speed::scale(speed_s, after);
            speed_s = after;
        }
        let round_s = (busy - round_start.0).as_secs_f64();
        let answered = t.answered - round_start.1;
        t.unit(rec.enabled(), round_s, answered);
        t.units.push(Unit {
            seconds: round_s,
            cpu_s: Usage::now().since(round_start.2).cpu_s(),
            queries: answered,
            scale: speed::scale(round_start.3, speed_s),
        });
        rounds.passes.push(passes);
        round += 1;
    }
    t.usage = Usage::now().since(before);
    t.peak_rss_mb = rounds.peak_mb.iter().copied().fold(0.0, f64::max);
    t.elapsed_s = busy.as_secs_f64();
    Ok((t, rounds))
}

pub fn run(args: &Args, rec: &Recorder) -> Result<Outcome, String> {
    let (setup, setup_times) = repeat_setup(SETUP_REPS, || {
        scenarios(&TargetSchemaKind::all(), SCALE, MAPPINGS, args.seed)
    })?;
    let setup = setup?;
    let reference = |query: &TargetQuery, scenario: &Scenario, algorithm| {
        evaluate(query, &scenario.mappings, &scenario.catalog, algorithm)
            .map(|e| e.answer)
            .map_err(|e| e.to_string())
    };
    let queries: Vec<PaperQuery<'_>> = all_queries()
        .into_iter()
        .map(|(id, query)| {
            let scenario = setup.get(id.target());
            PaperQuery {
                basic: reference(&query, scenario, Algorithm::Basic),
                ebasic: reference(&query, scenario, Algorithm::EBasic),
                query,
                scenario,
            }
        })
        .collect();

    let mut outcome = Outcome::default();
    let (timed, rounds) = timed_rounds(&queries, args.seconds, &mut outcome.tally, rec)?;
    let query_s = geomean(|a| rounds.query_s(a, true));
    outcome.end_to_end = end_to_end(
        &setup_times,
        &timed,
        1.0 / query_s,
        geomean(|a| rounds.cpu_s(a, true)) * 1e3,
    );
    let n = queries.len() as f64;
    outcome.workload_metrics = vec![metric("query_mean_ms", "ms", query_s * 1e3)];
    outcome.workload_metrics.extend(
        ALGORITHMS.iter().enumerate().map(|(a, (_, name))| {
            metric(format!("alg.{name}_s"), "s", rounds.query_s(a, true) * n)
        }),
    );
    outcome
        .workload_metrics
        .push(metric("failed_frac", "ratio", outcome.tally.failed_frac()));
    outcome.workload_metrics.extend(run_metrics(&timed));
    let catalogs: usize = setup
        .scenarios
        .iter()
        .map(|s| s.catalog.estimated_bytes())
        .sum();
    outcome.notes.push(format!(
        "Table III Q1-Q10 (scale {SCALE}, h = {MAPPINGS}, data seed {}) under basic, e-basic, \
         e-MQO, q-sharing and o-sharing (SEF) in turn, {} rounds; references basic (e-basic for \
         basic); every round repeats the same 10 queries: distinct share {:.4}; working set: \
         catalogs {:.1} KB, no budget",
        args.seed,
        rounds.passes.len(),
        n / outcome.tally.attempted.max(1) as f64,
        catalogs as f64 / 1e3,
    ));
    for (a, (_, name)) in ALGORITHMS.iter().enumerate() {
        outcome.notes.push(format!(
            "{name:<9} pass {:.4} s, cpu {:.2} ms/query, peak RSS {:.1} MB (median of warm \
             rounds, at the reference speed; peak in the first round)",
            rounds.query_s(a, true) * n,
            rounds.cpu_s(a, true) * 1e3,
            rounds.peak_mb[a],
        ));
    }
    outcome.notes.push(format!(
        "as measured: {:.4} queries/s, cpu {:.4} ms/query (geometric mean over the algorithms \
         of the median over warm rounds)",
        1.0 / geomean(|a| rounds.query_s(a, false)),
        geomean(|a| rounds.cpu_s(a, false)) * 1e3,
    ));
    timing_notes(&timed, &mut outcome.notes);

    if args.trace {
        let layers = rec.span("bench.layers", 0, || layer_pass(&queries, rec));
        let all = |f: &dyn Fn(&Counters) -> f64| rounds.counters.iter().map(f).sum::<f64>();
        let evaluations = all(&|c| c.evaluations as f64).max(1.0);
        let exec_s = all(&|c| c.exec.as_secs_f64());
        let passes = rounds.passes.len() as f64;
        let mut measured = vec![
            ("datagen.generate_s", setup.generate_s),
            ("matching.top_h_s", setup.top_h_s),
            (
                "core.operators_per_query",
                all(&|c| c.operators as f64) / evaluations,
            ),
            ("core.aggregate_ms", all(&|c| ms(c.aggregate)) / evaluations),
            ("engine.execute_ms", exec_s * 1e3 / evaluations),
            ("engine.tuples_per_s", all(&|c| c.tuples as f64) / exec_s),
            (
                "engine.columnar_row_share",
                all(&|c| c.columnar_rows as f64) / all(&|c| c.tuples_output as f64).max(1.0),
            ),
        ];
        const OPERATORS: [&str; 5] = [
            "core.operators.basic",
            "core.operators.ebasic",
            "core.operators.emqo",
            "core.operators.qsharing",
            "core.operators.osharing",
        ];
        const COLUMNAR: [&str; 5] = [
            "engine.columnar_row_share.basic",
            "engine.columnar_row_share.ebasic",
            "engine.columnar_row_share.emqo",
            "engine.columnar_row_share.qsharing",
            "engine.columnar_row_share.osharing",
        ];
        const PEAK: [&str; 5] = [
            "core.peak_rss_mb.basic",
            "core.peak_rss_mb.ebasic",
            "core.peak_rss_mb.emqo",
            "core.peak_rss_mb.qsharing",
            "core.peak_rss_mb.osharing",
        ];
        for a in 0..ALGORITHMS.len() {
            measured.push((OPERATORS[a], rounds.counters[a].operators as f64 / passes));
            measured.push((PEAK[a], rounds.peak_mb[a]));
            let c = &rounds.counters[a];
            measured.push((
                COLUMNAR[a],
                c.columnar_rows as f64 / c.tuples_output.max(1) as f64,
            ));
        }
        measured.extend(layers);
        measured.extend(proc_layers(&timed));
        outcome.layers = layer_metrics(&measured);
    }
    Ok(outcome)
}

/// Rewrite cost and reformulation counts, timed from outside: `reformulate` through every
/// mapping, and `e-basic`'s distinct source queries.
fn layer_pass(queries: &[PaperQuery<'_>], rec: &Recorder) -> Vec<(&'static str, f64)> {
    const REPS: u32 = 5;
    let mut rewrite = Duration::ZERO;
    let mut source_queries = 0.0;
    let mut eunit_ratio = 0.0;
    for (i, q) in queries.iter().enumerate() {
        let (catalog, mappings) = (&q.scenario.catalog, &q.scenario.mappings);
        let start = Instant::now();
        rec.span("core.reformulate_all", i as u64, || {
            for _ in 0..REPS {
                for m in mappings.iter() {
                    let _ = black_box(reformulate(&q.query, m, catalog));
                }
            }
        });
        rewrite += start.elapsed() / REPS;
        if let Ok(e) = rec.span("core.evaluate_ebasic", i as u64, || {
            evaluate(&q.query, mappings, catalog, Algorithm::EBasic)
        }) {
            source_queries += e.metrics.distinct_source_queries as f64;
            eunit_ratio += e.metrics.distinct_source_queries as f64 / mappings.len() as f64;
        }
    }
    let n = queries.len() as f64;
    vec![
        ("core.rewrite_us_per_query", rewrite.as_secs_f64() * 1e6 / n),
        ("core.source_queries_per_query", source_queries / n),
        ("core.eunit_ratio", eunit_ratio / n),
    ]
}
