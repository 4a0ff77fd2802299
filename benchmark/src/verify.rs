//! Answer checking, done outside every timed region, and the failure tally it feeds.

use std::collections::HashMap;
use urm_core::ProbabilisticAnswer;

/// Probability tolerance for answers of different algorithms (sums in different orders).
pub const TOLERANCE: f64 = 1e-9;

/// What happened to the queries a run attempted.  `failed` = errors + refusals + answers
/// that failed verification, less the refusals at offered rates above the workload's
/// `slo_qps`: past its knee the server sheds load by design, so those are reported apart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub errors: u64,
    pub refused: u64,
    /// The share of `refused` at offered rates above `slo_qps` (`http-openloop` only).
    pub refused_above_slo: u64,
    pub mismatched: u64,
    /// Answers whose tuples and probabilities match but whose empty-answer probability does
    /// not.  Reported, not failed: the algorithms define that probability differently (see
    /// `README.md`).
    pub empty_differs: u64,
}

/// How an answer compared with its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Match,
    EmptyDiffers,
    Mismatch,
}

/// Tuples and their probabilities must agree within [`TOLERANCE`] (`approx_eq`); the
/// empty-answer probability is compared separately.
pub fn compare(expected: &ProbabilisticAnswer, got: &ProbabilisticAnswer) -> Verdict {
    if !expected.approx_eq(got, TOLERANCE) {
        Verdict::Mismatch
    } else if (expected.empty_probability() - got.empty_probability()).abs() > TOLERANCE {
        Verdict::EmptyDiffers
    } else {
        Verdict::Match
    }
}

impl Tally {
    pub fn record(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Match => {}
            Verdict::EmptyDiffers => self.empty_differs += 1,
            Verdict::Mismatch => self.mismatched += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.refused.saturating_sub(self.refused_above_slo) + self.mismatched
    }

    /// A run is correct when it attempted something and nothing failed: no error, no
    /// refusal at or below `slo_qps`, no answer that differs from its reference.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed() == 0
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// Checks answers against a reference evaluated once per distinct query.
#[derive(Default)]
pub struct Verifier {
    memo: HashMap<String, Result<ProbabilisticAnswer, String>>,
}

impl Verifier {
    /// `got` against the reference for `key`, computing the reference with `reference` the
    /// first time `key` is seen.  A query whose reference fails cannot be verified and
    /// counts as a mismatch.
    pub fn check(
        &mut self,
        key: &str,
        got: &ProbabilisticAnswer,
        reference: impl FnOnce() -> Result<ProbabilisticAnswer, String>,
    ) -> Verdict {
        match self.memo.entry(key.to_string()).or_insert_with(reference) {
            Ok(expected) => compare(expected, got),
            Err(_) => Verdict::Mismatch,
        }
    }

    /// Distinct queries whose reference has been computed.
    pub fn distinct(&self) -> usize {
        self.memo.len()
    }
}

/// 64-bit FNV-1a, for comparing rendered answers across processes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use urm_core::{evaluate, Algorithm};
    use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
    use urm_datagen::workload::{query, QueryId};
    use urm_storage::{Tuple, Value};

    /// The self-test: a corrupted answer from the program under test is counted as failed.
    #[test]
    fn corrupted_answer_counts_as_failure() {
        let sc = Scenario::generate(&ScenarioConfig {
            target: TargetSchemaKind::Excel,
            scale: 10,
            mappings: 6,
            seed: 11,
        })
        .unwrap();
        let q = query(QueryId::Q1);
        let eval = |alg| evaluate(&q, &sc.mappings, &sc.catalog, alg).unwrap().answer;
        let good = eval(Algorithm::EMqo);
        let mut corrupted = good.clone();
        corrupted.add(Tuple::new(vec![Value::from("not an answer")]), 0.01);

        let mut verifier = Verifier::default();
        let mut tally = Tally::default();
        for got in [&good, &corrupted, &good] {
            tally.attempted += 1;
            tally.record(verifier.check("Q1", got, || Ok(eval(Algorithm::Basic))));
        }
        assert_eq!(verifier.distinct(), 1);
        assert_eq!(tally.failed(), 1);
        assert!(!tally.correct());
        assert!((tally.failed_frac() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn errors_and_refusals_fail_the_run() {
        let clean = Tally {
            attempted: 10,
            ..Tally::default()
        };
        assert!(clean.correct());
        for broken in [
            Tally { errors: 1, ..clean },
            Tally {
                refused: 1,
                ..clean
            },
            Tally {
                mismatched: 1,
                ..clean
            },
            Tally {
                refused: 3,
                refused_above_slo: 2,
                ..clean
            },
        ] {
            assert!(!broken.correct(), "{broken:?}");
            assert!(broken.failed() >= 1);
        }
        let shed = Tally {
            refused: 2,
            refused_above_slo: 2,
            ..clean
        };
        assert!(shed.correct());
        assert_eq!(shed.failed(), 0);
        assert!(!Tally::default().correct());
    }

    #[test]
    fn failed_reference_is_a_mismatch() {
        let mut verifier = Verifier::default();
        let answer = ProbabilisticAnswer::new();
        let fails = || Err("boom".to_string());
        assert_eq!(verifier.check("q", &answer, fails), Verdict::Mismatch);
        // The failed reference is memoised: the query stays unverifiable.
        let ok = || Ok(ProbabilisticAnswer::new());
        assert_eq!(verifier.check("q", &answer, ok), Verdict::Mismatch);
    }

    #[test]
    fn empty_probability_is_reported_apart() {
        let mut emptyish = ProbabilisticAnswer::new();
        emptyish.add_empty(1.0);
        let none = ProbabilisticAnswer::new();
        assert_eq!(compare(&none, &emptyish), Verdict::EmptyDiffers);
        assert_eq!(compare(&none, &none), Verdict::Match);
        let mut tally = Tally {
            attempted: 1,
            ..Tally::default()
        };
        tally.record(Verdict::EmptyDiffers);
        assert_eq!((tally.failed(), tally.empty_differs), (0, 1));
    }

    #[test]
    fn fnv_differs_on_one_byte() {
        assert_ne!(fnv1a(b"{\"p\":0.5}"), fnv1a(b"{\"p\":0.6}"));
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
    }
}
