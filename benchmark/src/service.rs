//! `batch-joinheavy` and `budget-oversized`: a closed loop through an in-process
//! `QueryService` at its default configuration (threads capped at the host's).  One
//! submitter sends a window of queries, flushes, waits for every answer, and sends the next
//! window.  Answers are checked after the timed phase against `e-basic`, evaluated once per
//! distinct query.

use crate::paper::{scenarios, Scenarios, MAPPINGS};
use crate::probe::{self, ms, Usage};
use crate::stream::OVERSIZED_CYCLE;
use crate::stream::{distinct_share, key, sampled, Sampler, JOINHEAVY_CYCLE};
use crate::trace::Recorder;
use crate::verify::Verifier;
use crate::{end_to_end, layer_metrics, metric, nproc, proc_layers, repeat_setup, timing_notes};
use crate::{rng::Rng, stats, Args, Outcome, Timed};
use crate::{run_metrics, unit_recorder, Units};
use std::hint::black_box;
use std::time::{Duration, Instant};
use urm_core::reformulate::reformulate;
use urm_core::{evaluate, execute_prepared_batch, prepare_batch_epoch, Algorithm};
use urm_core::{BatchOptions, EpochDag, TargetQuery, DEFAULT_PIN_BUDGET_BYTES};
use urm_datagen::scenario::TargetSchemaKind;
use urm_service::{EpochId, QueryResponse, QueryService, ServedFrom, ServiceConfig};

/// One service workload's fixed parameters.
pub struct ServiceWorkload {
    pub scale: usize,
    pub memory_budget: Option<usize>,
    pub cycle: &'static [&'static str],
    /// Queries per submitted window (one service batch).
    pub window: usize,
    /// Queries generated per run; a run that uses them all stops early and says so.
    pub stream_len: usize,
    /// Whether the stream's telephones include the planted number (see `src/stream.rs`).
    pub planted: bool,
}

/// Join-heavy templates (Q3, Q4, N-way PO⋈Item fan-out, PO self-products) at scale 30.
pub const JOINHEAVY: ServiceWorkload = ServiceWorkload {
    scale: 30,
    memory_budget: None,
    cycle: &JOINHEAVY_CYCLE,
    window: 4,
    stream_len: 4000,
    planted: true,
};

/// The oversized family (unfiltered PO self-joins plus Q3/Q4) at scale 30 under 64 MiB.
pub const OVERSIZED: ServiceWorkload = ServiceWorkload {
    scale: 30,
    memory_budget: Some(64 << 20),
    cycle: &OVERSIZED_CYCLE,
    window: 1,
    stream_len: 800,
    planted: false,
};

struct Served {
    stream_index: usize,
    latency_ms: f64,
    response: Result<QueryResponse, String>,
}

/// The default service configuration with its workers capped at the host's hardware
/// threads.  DAG workers keep their default (half the hardware threads): two on a 2-thread
/// host made every latency swing with the host's load several times as much.
pub fn config(memory_budget: Option<usize>) -> ServiceConfig {
    ServiceConfig {
        workers: nproc(),
        memory_budget,
        ..ServiceConfig::default()
    }
}

/// Windows of the stream, in order, until `seconds` have passed or the stream runs out.
fn timed_windows(
    svc: &QueryService,
    epoch: EpochId,
    w: &ServiceWorkload,
    stream: &[TargetQuery],
    seconds: f64,
    rec: &Recorder,
) -> Result<(Timed, Vec<Served>), String> {
    let mut t = Timed::default();
    let mut served = Vec::new();
    let off = Recorder::new(false);
    let mut units = Units::new()?;
    probe::reset_peak_rss();
    let before = Usage::now();
    let start = Instant::now();
    let mut next = 0;
    let windows_per_cycle = w.cycle.len().div_ceil(w.window) as u64;
    let mut excluded = Duration::ZERO;
    let timed_s = |excluded: Duration| (start.elapsed() - excluded).as_secs_f64();
    while (served.is_empty() || timed_s(excluded) < seconds) && next < stream.len() {
        let window = next..(next + w.window).min(stream.len());
        next = window.end;
        let group = window.start as u64;
        // Traced runs alternate windows, shifting by one each cycle of templates, so traced
        // and untraced windows see the same templates.
        let index = group / w.window as u64;
        let rec = unit_recorder(rec, &off, index + index / windows_per_cycle);
        let window_start = Instant::now();
        rec.span("service.window", group, || {
            let tickets: Vec<_> = window
                .clone()
                .map(|i| {
                    let at = Instant::now();
                    let ticket = rec.span("service.submit", group, || {
                        svc.submit(epoch, stream[i].clone())
                    });
                    (i, at, ticket)
                })
                .collect();
            rec.span("service.flush", group, || svc.flush());
            for (i, at, ticket) in tickets {
                let response = match ticket {
                    Ok(ticket) => rec.span("service.wait", group, || ticket.wait()),
                    Err(e) => Err(e),
                };
                let latency_ms = ms(at.elapsed());
                if response.is_ok() {
                    units.answered(i % w.cycle.len(), latency_ms);
                }
                served.push(Served {
                    stream_index: i,
                    latency_ms,
                    response: response.map_err(|e| e.to_string()),
                });
            }
        });
        let took = window_start.elapsed();
        units.busy(took);
        // The speed probe between units runs outside `start`'s clock.
        if window.end % w.cycle.len() == 0 {
            let probe_start = Instant::now();
            units.repeat_done()?;
            excluded += probe_start.elapsed();
        }
        t.unit(
            rec.enabled(),
            took.as_secs_f64(),
            (window.end - window.start) as u64,
        );
    }
    t.elapsed_s = timed_s(excluded);
    t.usage = Usage::now().since(before);
    t.peak_rss_mb = probe::peak_rss_mb();
    units.finish(&mut t)?;
    for s in &served {
        if s.response.is_ok() {
            t.answered += 1;
            t.latencies_ms.push(s.latency_ms);
        }
    }
    Ok((t, served))
}

pub fn run(args: &Args, w: &ServiceWorkload, rec: &Recorder) -> Result<Outcome, String> {
    // Units close at cycle ends, which must be window ends.
    debug_assert_eq!(w.cycle.len() % w.window, 0);
    let ((setup, svc, epoch), setup_times) = {
        let (state, times) = repeat_setup(crate::paper::SETUP_REPS, || {
            let setup = scenarios(&[TargetSchemaKind::Excel], w.scale, MAPPINGS, args.seed)?;
            let svc = QueryService::new(config(w.memory_budget));
            let sc = &setup.scenarios[0];
            let epoch = svc.register_epoch(sc.catalog.clone(), sc.mappings.clone());
            Ok::<_, String>((setup, svc, epoch))
        })?;
        (state?, times)
    };
    let sc = &setup.scenarios[0];
    let mut sampler = Sampler::new(&sc.catalog, &sc.mappings, Rng::derive(args.seed, "stream"));
    if !w.planted {
        sampler = sampler.without_planted();
    }
    let stream = sampled(w.cycle, w.stream_len, &mut sampler);

    let mut outcome = Outcome::default();
    let (timed, served) = timed_windows(&svc, epoch, w, &stream, args.seconds, rec)?;
    if served.len() >= stream.len() {
        outcome.notes.push(format!(
            "the {}-query stream ran out before the time did",
            stream.len()
        ));
    }

    // Verification, outside the timed phase.
    let mut verifier = Verifier::default();
    for s in &served {
        outcome.tally.attempted += 1;
        match &s.response {
            Ok(response) => {
                let q = &stream[s.stream_index];
                let verdict = verifier.check(&key(q), &response.answer, || {
                    evaluate(q, &sc.mappings, &sc.catalog, Algorithm::EBasic)
                        .map(|e| e.answer)
                        .map_err(|e| e.to_string())
                });
                outcome.tally.record(verdict);
            }
            Err(_) => outcome.tally.errors += 1,
        }
    }

    outcome.end_to_end = end_to_end(
        &setup_times,
        &timed,
        timed.warm_qps(true),
        timed.warm_cpu_ms_per_query(true),
    );
    outcome.workload_metrics = vec![
        metric("query_mean_ms", "ms", timed.warm_latency_ms(true)),
        metric("failed_frac", "ratio", outcome.tally.failed_frac()),
    ];
    outcome.workload_metrics.extend(run_metrics(&timed));
    let keys: Vec<String> = served
        .iter()
        .map(|s| key(&stream[s.stream_index]))
        .collect();
    let distinct = distinct_share(keys.iter());
    let budget = w
        .memory_budget
        .map_or("none".to_string(), |b| format!("{} MiB", b >> 20));
    outcome.notes.push(format!(
        "{} templates at scale {}, h = {}, seed {}; window {} queries; {} workers, {} DAG \
         workers; memory budget {budget}",
        w.cycle.len(),
        w.scale,
        MAPPINGS,
        args.seed,
        w.window,
        svc.config().workers,
        svc.config().dag_workers,
    ));
    outcome.notes.push(format!(
        "stream: {} queries answered, distinct share {:.3}, repeat share {:.3}; {} distinct \
         references",
        served.len(),
        distinct,
        1.0 - distinct,
        verifier.distinct()
    ));
    outcome.notes.push(format!(
        "working set: catalog {:.1} KB; timed-phase peak RSS {:.1} MB against budget {budget}",
        sc.catalog.estimated_bytes() as f64 / 1e3,
        timed.peak_rss_mb,
    ));
    outcome.notes.push(format!(
        "as measured: {:.4} queries/s, cpu {:.4} ms/query, mean latency {:.4} ms (median over \
         warm units)",
        timed.warm_qps(false),
        timed.warm_cpu_ms_per_query(false),
        timed.warm_latency_ms(false),
    ));
    timing_notes(&timed, &mut outcome.notes);

    if args.trace {
        let mut measured = service_layers(&svc, &served, w, &timed);
        measured.push(("datagen.generate_s", setup.generate_s));
        measured.push(("matching.top_h_s", setup.top_h_s));
        measured.extend(proc_layers(&timed));
        svc.shutdown();
        let replay: Vec<&TargetQuery> = served.iter().map(|s| &stream[s.stream_index]).collect();
        measured.extend(rec.span("bench.layers", 0, || {
            layer_replay(&setup, w, &replay, args.seconds / 2.0, rec)
        }));
        outcome.layers = layer_metrics(&measured);
    }
    Ok(outcome)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Per-layer numbers read from the service's public counters.
fn service_layers(
    svc: &QueryService,
    served: &[Served],
    w: &ServiceWorkload,
    traced: &Timed,
) -> Vec<(&'static str, f64)> {
    let m = svc.metrics();
    let reports = svc.reports();
    let batch_latency = |id: u64| reports.iter().find(|r| r.id == id).map(|r| ms(r.latency));
    let waits: Vec<f64> = served
        .iter()
        .filter_map(|s| {
            let r = s.response.as_ref().ok()?;
            if r.served_from == ServedFrom::AnswerCache {
                return None;
            }
            Some((s.latency_ms - batch_latency(r.batch)?).max(0.0))
        })
        .collect();
    let stage = |name: &str| {
        svc.stage_histograms()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, h)| h.sum() as f64 / 1e6 / h.count().max(1) as f64)
    };
    let batches = reports.len().max(1) as f64;
    vec![
        (
            "core.operators_per_query",
            ratio(m.source_operators, m.queries_evaluated),
        ),
        (
            "engine.dag_nodes",
            reports.iter().map(|r| r.dag_nodes as f64).sum::<f64>() / batches,
        ),
        (
            "engine.dag_dedup_ratio",
            ratio(
                m.dag_operators_deduped,
                m.dag_operators_deduped + m.dag_nodes_executed,
            ),
        ),
        ("engine.epoch_reuse_ratio", m.epoch_reuse_rate()),
        (
            "engine.peak_parallelism",
            reports
                .iter()
                .map(|r| r.peak_parallelism)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "engine.columnar_row_share",
            ratio(m.columnar_rows, m.tuples_output),
        ),
        ("engine.join_flips", m.reordered_joins as f64),
        (
            "engine.observed_node_share",
            ratio(m.observed_nodes, m.dag_nodes_executed),
        ),
        ("storage.bytes_spilled", m.bytes_spilled as f64),
        ("storage.spill_reloads", m.spill_reloads as f64),
        ("storage.grace_partitions", m.grace_partitions as f64),
        (
            "storage.segment_ratio",
            ratio(m.segment_bytes_encoded, m.segment_bytes_raw),
        ),
        (
            "storage.rss_over_budget",
            w.memory_budget
                .map_or(0.0, |b| traced.peak_rss_mb * (1 << 20) as f64 / b as f64),
        ),
        ("service.queue_wait_ms_p50", stats::percentile(&waits, 50.0)),
        ("service.queue_wait_ms_p99", stats::percentile(&waits, 99.0)),
        (
            "service.batch_queries_mean",
            reports.iter().map(|r| r.queries as f64).sum::<f64>() / batches,
        ),
        (
            "service.batch_dedup_ratio",
            ratio(m.batch_deduped, m.queries_submitted),
        ),
        ("service.answer_cache_hit_ratio", m.answer_hit_rate()),
        ("service.stage.rewrite_ms", stage("rewrite")),
        ("service.stage.plan_ms", stage("plan")),
        ("service.stage.execute_ms", stage("execute")),
        ("service.stage.aggregate_ms", stage("aggregate")),
    ]
}

/// The timed phase's queries again, in the same windows, through the batch layers' public
/// calls on a fresh epoch DAG: `prepare_batch_epoch` (rewrite, optimise, bind) and
/// `execute_prepared_batch` (execute, then aggregate), each timed from outside.  Stops after
/// `seconds`.  Also times `reformulate` through every mapping and counts `e-basic`'s
/// distinct source queries for the first distinct queries.
fn layer_replay(
    setup: &Scenarios,
    w: &ServiceWorkload,
    queries: &[&TargetQuery],
    seconds: f64,
    rec: &Recorder,
) -> Vec<(&'static str, f64)> {
    let sc = &setup.scenarios[0];
    let mut dag = match w.memory_budget {
        Some(budget) => EpochDag::with_memory_budget(budget),
        None => EpochDag::with_pin_budget(DEFAULT_PIN_BUDGET_BYTES),
    };
    let options = BatchOptions::parallel(nproc());
    let (mut prepare, mut execute, mut aggregate) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut hits, mut misses, mut tuples, mut batches) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    for (b, window) in queries.chunks(w.window).enumerate() {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let batch: Vec<TargetQuery> = window.iter().map(|&q| q.clone()).collect();
        let t0 = Instant::now();
        let prepared = rec.span("core.prepare_batch_epoch", b as u64, || {
            prepare_batch_epoch(&batch, &sc.mappings, &sc.catalog, &mut dag)
        });
        prepare += t0.elapsed();
        let Ok(prepared) = prepared else { continue };
        let t1 = Instant::now();
        let evaluated = rec.span("engine.execute_prepared_batch", b as u64, || {
            execute_prepared_batch(prepared, &sc.catalog, &options)
        });
        let took = t1.elapsed();
        let Ok(evaluated) = evaluated else { continue };
        let agg: Duration = evaluated
            .evaluations
            .iter()
            .map(|e| e.metrics.aggregation_time)
            .sum();
        aggregate += agg;
        execute += took.saturating_sub(agg);
        hits += evaluated.plan_hits;
        misses += evaluated.plan_misses;
        tuples += evaluated.exec.tuples_read + evaluated.exec.tuples_output;
        batches += 1;
    }
    let n = batches.max(1) as f64;

    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<&&TargetQuery> = queries
        .iter()
        .filter(|q| seen.insert(key(q)))
        .take(10)
        .collect();
    let mut rewrite = Duration::ZERO;
    let (mut source_queries, mut eunit_ratio) = (0.0, 0.0);
    for (i, q) in distinct.iter().enumerate() {
        let t0 = Instant::now();
        rec.span("core.reformulate_all", i as u64, || {
            for m in sc.mappings.iter() {
                let _ = black_box(reformulate(q, m, &sc.catalog));
            }
        });
        rewrite += t0.elapsed();
        if let Ok(e) = rec.span("core.evaluate_ebasic", i as u64, || {
            evaluate(q, &sc.mappings, &sc.catalog, Algorithm::EBasic)
        }) {
            source_queries += e.metrics.distinct_source_queries as f64;
            eunit_ratio += e.metrics.distinct_source_queries as f64 / sc.mappings.len() as f64;
        }
    }
    let d = distinct.len().max(1) as f64;
    vec![
        ("core.prepare_ms", ms(prepare) / n),
        ("core.bind_hit_ratio", ratio(hits, hits + misses)),
        ("core.aggregate_ms", ms(aggregate) / n),
        ("engine.execute_ms", ms(execute) / n),
        (
            "engine.tuples_per_s",
            tuples as f64 / execute.as_secs_f64().max(1e-9),
        ),
        ("core.rewrite_us_per_query", rewrite.as_secs_f64() * 1e6 / d),
        ("core.source_queries_per_query", source_queries / d),
        ("core.eunit_ratio", eunit_ratio / d),
    ]
}
