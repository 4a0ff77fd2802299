//! Seeded query streams.  Every query is built through the public `TargetQuery` builder from
//! a template of the paper's workload, so the program under test sees only ordinary target
//! queries.  What varies from query to query is drawn from the seed and the generated
//! catalog, but only where the draw leaves the query's cost unchanged, so that runs with
//! different seeds measure the same amount of work:
//!
//! * item numbers are sampled from the catalog's item-number column without replacement
//!   (every item number occurs equally often, so each draw selects as many rows, and no
//!   draw repeats until the distinct values run out);
//! * telephones are drawn stratified: the planted number occurs on every 7th customer, so
//!   every 7th draw is the planted number (the heavy case) and the others are drawn from the
//!   remaining rows (almost all unique, so those queries are distinct).  Drawing from all
//!   rows instead would make the number of heavy queries in a run a matter of luck.  A
//!   stream can leave the planted number out altogether ([`Sampler::without_planted`]);
//! * the oversized templates have no constant; their projection rotates through the `PO`
//!   attributes every mapping covers, and each carries a serial number in its name, which
//!   keeps them distinct for the answer cache without changing the work.  The rotation is
//!   the same for every seed, because the projection changes the answer's size and so the
//!   cost.

use crate::rng::Rng;
use std::collections::HashSet;
use urm_core::{CoreResult, TargetQuery};
use urm_datagen::source::planted;
use urm_matching::MappingSet;
use urm_storage::{AttrRef, Catalog, Value};

/// A query's identity, as the service's answer cache and the verifier's memo key it.
pub fn key(query: &TargetQuery) -> String {
    format!("{query:?}")
}

/// Draws constants and projections for the templates.
pub struct Sampler<'a> {
    catalog: &'a Catalog,
    mappings: &'a MappingSet,
    /// Target attributes (`Relation.attr`) that every mapping covers.
    covered: Vec<AttrRef>,
    telephone_draws: usize,
    /// Whether every [`PLANTED_TELEPHONE_EVERY`]th telephone is the planted number.
    planted: bool,
    projections: usize,
    /// Item numbers drawn so far (drawn without replacement).
    items_drawn: HashSet<Value>,
    rng: Rng,
}

/// The planted telephone's share of customers is one in this many.
pub const PLANTED_TELEPHONE_EVERY: usize = 7;

impl<'a> Sampler<'a> {
    pub fn new(catalog: &'a Catalog, mappings: &'a MappingSet, rng: Rng) -> Self {
        let covered = mappings
            .covered_target_attributes()
            .into_iter()
            .filter(|t| mappings.iter().all(|m| m.source_for(t).is_some()))
            .collect();
        Sampler {
            catalog,
            mappings,
            covered,
            telephone_draws: 0,
            planted: true,
            projections: 0,
            items_drawn: HashSet::new(),
            rng,
        }
    }

    /// The same sampler, drawing no planted telephone: every telephone query is light.
    pub fn without_planted(mut self) -> Self {
        self.planted = false;
        self
    }

    /// A `PO.telephone` constant, stratified (see the module docs).
    pub fn telephone(&mut self) -> Value {
        let planted = Value::from(planted::TELEPHONE);
        self.telephone_draws += 1;
        if self.planted && self.telephone_draws % PLANTED_TELEPHONE_EVERY == 1 {
            return planted;
        }
        (0..64)
            .map(|_| self.constant("PO.telephone", planted.clone()))
            .find(|v| *v != planted)
            .unwrap_or(planted)
    }

    /// A `alias.attr` projection: the next attribute of `relation`, in rotation, that every
    /// mapping covers.
    pub fn projection(&mut self, relation: &str, alias: &str) -> String {
        let names: Vec<&str> = self
            .covered
            .iter()
            .filter(|t| t.alias == relation)
            .map(|t| t.attr.as_str())
            .collect();
        assert!(
            !names.is_empty(),
            "no mapping-covered attribute of {relation}"
        );
        let name = names[self.projections % names.len()];
        self.projections += 1;
        format!("{alias}.{name}")
    }

    /// A constant for `target` (`Relation.attr` on the target schema): a random mapping says
    /// which source column the attribute reads, a random row of that column supplies the
    /// value.  Falls back to `fallback` only when no mapping reads the attribute from a
    /// non-empty column.
    pub fn constant(&mut self, target: &str, fallback: Value) -> Value {
        let target = AttrRef::parse(target);
        let sources: Vec<&AttrRef> = self
            .mappings
            .iter()
            .filter_map(|m| m.source_for(&target))
            .collect();
        for _ in 0..sources.len().max(1) * 2 {
            if sources.is_empty() {
                break;
            }
            let source = sources[self.rng.below(sources.len())];
            let Some(relation) = self.catalog.get(&source.alias) else {
                continue;
            };
            let Ok(column) = relation.column(&source.attr) else {
                continue;
            };
            if !column.is_empty() {
                return column[self.rng.below(column.len())].clone();
            }
        }
        fallback
    }
}

/// An item number not drawn before, while the catalog has any left.
fn item_number(s: &mut Sampler<'_>) -> Value {
    let fallback = Value::from(planted::NUMBER);
    let mut value = fallback.clone();
    for _ in 0..256 {
        value = s.constant("Item.itemNum", fallback.clone());
        if !s.items_drawn.contains(&value) {
            break;
        }
    }
    s.items_drawn.insert(value.clone());
    value
}

/// Table III Q3 with a sampled item number.
fn q3(s: &mut Sampler<'_>) -> CoreResult<TargetQuery> {
    TargetQuery::builder("Q3")
        .relation("PO")
        .relation_as("Item", "Item1")
        .relation_as("Item", "Item2")
        .filter_eq("PO.telephone", s.telephone())
        .filter_eq("Item1.itemNum", item_number(s))
        .join("PO.orderNum", "Item1.orderNum")
        .join("Item1.orderNum", "Item2.orderNum")
        .returning(["PO.orderNum", "Item2.itemNum"])
        .build()
}

/// Table III Q4 with a sampled item number.
fn q4(s: &mut Sampler<'_>) -> CoreResult<TargetQuery> {
    TargetQuery::builder("Q4")
        .relation_as("PO", "PO1")
        .relation_as("PO", "PO2")
        .relation_as("Item", "Item1")
        .relation_as("Item", "Item2")
        .filter_eq("Item1.itemNum", item_number(s))
        .join("PO1.orderNum", "PO2.orderNum")
        .join("Item1.orderNum", "Item2.orderNum")
        .join("PO1.orderNum", "Item1.orderNum")
        .returning(["PO1.orderNum", "Item2.itemNum"])
        .build()
}

/// `join:N`: N `Item` aliases joined to one selected `PO` scan.
fn join_fanout(s: &mut Sampler<'_>, n: usize) -> CoreResult<TargetQuery> {
    let mut b = TargetQuery::builder(format!("join-{n}"))
        .relation("PO")
        .filter_eq("PO.telephone", s.telephone());
    for i in 1..=n {
        b = b
            .relation_as("Item", format!("Item{i}"))
            .join("PO.orderNum", &format!("Item{i}.orderNum"));
    }
    b.returning(["PO.orderNum", &format!("Item{n}.itemNum")])
        .build()
}

/// `prod:N`: N `PO` self-joins on `orderNum` behind one selection.
fn po_products(s: &mut Sampler<'_>, n: usize) -> CoreResult<TargetQuery> {
    let mut b = TargetQuery::builder(format!("prod-{n}"))
        .relation_as("PO", "PO1")
        .filter_eq("PO1.telephone", s.telephone());
    for i in 2..=n + 1 {
        b = b
            .relation_as("PO", format!("PO{i}"))
            .join("PO1.orderNum", &format!("PO{i}.orderNum"));
    }
    b.returning(["PO1.orderNum"]).build()
}

/// `scale:N`: N unfiltered `PO` self-joins, projecting `orderNum` and one more attribute of
/// the first alias, as `workloads/oversized.txt` projects `telephone`.  The name carries the
/// query's serial number.
fn po_oversized(s: &mut Sampler<'_>, n: usize) -> CoreResult<TargetQuery> {
    let name = format!("scale-{n}-{}", s.projections);
    let mut b = TargetQuery::builder(name).relation_as("PO", "PO1");
    for i in 2..=n + 1 {
        b = b
            .relation_as("PO", format!("PO{i}"))
            .join("PO1.orderNum", &format!("PO{i}.orderNum"));
    }
    b.returning(["PO1.orderNum".to_string(), s.projection("PO", "PO1")])
        .build()
}

fn build(template: &'static str, s: &mut Sampler<'_>) -> TargetQuery {
    let query = match template {
        "Q3" => q3(s),
        "Q4" => q4(s),
        "join:2" => join_fanout(s, 2),
        "join:3" => join_fanout(s, 3),
        "join:4" => join_fanout(s, 4),
        "prod:2" => po_products(s, 2),
        "scale:2" => po_oversized(s, 2),
        "scale:3" => po_oversized(s, 3),
        other => unreachable!("no template '{other}'"),
    };
    query.expect("stream templates are well-formed")
}

/// The templates of `workloads/joinheavy.txt` (`join:N` fan-out, Q3, Q4, `prod:2`) in a
/// cycle of three 4-query windows, short enough that a run holds several cycles.  It draws
/// exactly [`PLANTED_TELEPHONE_EVERY`] telephones, so the planted number lands on the same
/// template in every cycle and every cycle is the same amount of work.
pub const JOINHEAVY_CYCLE: [&str; 12] = [
    "join:2", "Q4", "join:3", "Q3", "Q4", "prod:2", "join:4", "Q4", "join:2", "Q4", "join:3", "Q4",
];

/// The templates of `workloads/oversized.txt`, with as many `scale:3` as `scale:2` (the
/// file has 5 and 3) so that a run's median latency falls inside one template's range
/// instead of on the edge between two.
pub const OVERSIZED_CYCLE: [&str; 6] = ["scale:2", "scale:3", "Q4", "scale:2", "scale:3", "Q3"];

/// `n` queries cycling `cycle`, each with freshly sampled constants.
pub fn sampled(cycle: &[&'static str], n: usize, sampler: &mut Sampler<'_>) -> Vec<TargetQuery> {
    (0..n)
        .map(|i| build(cycle[i % cycle.len()], sampler))
        .collect()
}

/// The selective specs the HTTP workload sends (the wire carries spec names only), in
/// popularity order for the Zipf draw.
pub const HTTP_SPECS: [&str; 13] = [
    "Q1", "Q6", "Q8", "Q2", "Q5", "sel:1", "Q9", "Q10", "sel:2", "Q7", "sel:3", "sel:4", "sel:5",
];

/// Distinct share of a stream's identities (1 − the share that repeats an earlier one).
pub fn distinct_share<K: std::hash::Hash + Eq>(keys: impl IntoIterator<Item = K>) -> f64 {
    let mut seen = HashSet::new();
    let mut total = 0usize;
    for k in keys {
        seen.insert(k);
        total += 1;
    }
    if total == 0 {
        0.0
    } else {
        seen.len() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};

    fn scenario() -> Scenario {
        Scenario::generate(&ScenarioConfig {
            target: TargetSchemaKind::Excel,
            scale: 10,
            mappings: 8,
            seed: 3,
        })
        .unwrap()
    }

    #[test]
    fn same_seed_same_stream_and_mostly_distinct() {
        let sc = scenario();
        let gen = |seed| {
            let mut s = Sampler::new(&sc.catalog, &sc.mappings, Rng::derive(seed, "stream"));
            sampled(&JOINHEAVY_CYCLE, 60, &mut s)
        };
        let a: Vec<String> = gen(1).iter().map(key).collect();
        let b: Vec<String> = gen(1).iter().map(key).collect();
        let c: Vec<String> = gen(2).iter().map(key).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(distinct_share(a.iter()) > 0.5);
    }

    #[test]
    fn projections_come_from_attributes_every_mapping_covers() {
        let sc = scenario();
        let mut s = Sampler::new(&sc.catalog, &sc.mappings, Rng::new(5));
        for _ in 0..20 {
            let p = s.projection("PO", "PO3");
            let attr = AttrRef::new("PO", p.strip_prefix("PO3.").unwrap());
            assert!(
                sc.mappings.iter().all(|m| m.source_for(&attr).is_some()),
                "{p}"
            );
        }
    }

    #[test]
    fn telephone_draws_are_stratified() {
        let sc = scenario();
        let mut s = Sampler::new(&sc.catalog, &sc.mappings, Rng::new(5));
        let planted = Value::from(planted::TELEPHONE);
        let draws: Vec<Value> = (0..70).map(|_| s.telephone()).collect();
        assert_eq!(draws.iter().filter(|v| **v == planted).count(), 10);
        assert_eq!(draws[0], planted);
    }

    #[test]
    fn every_joinheavy_cycle_draws_the_planted_telephone_alike() {
        let sc = scenario();
        let mut s = Sampler::new(&sc.catalog, &sc.mappings, Rng::new(5));
        let planted = format!("{:?}", Value::from(planted::TELEPHONE));
        let stream = sampled(&JOINHEAVY_CYCLE, 3 * JOINHEAVY_CYCLE.len(), &mut s);
        let heavy: Vec<Vec<usize>> = stream
            .chunks(JOINHEAVY_CYCLE.len())
            .map(|cycle| {
                (0..cycle.len())
                    .filter(|&i| key(&cycle[i]).contains(&planted))
                    .collect()
            })
            .collect();
        assert_eq!(heavy[0].len(), 1);
        assert!(heavy.iter().all(|h| *h == heavy[0]), "{heavy:?}");
    }

    #[test]
    fn every_template_builds() {
        let sc = scenario();
        let mut s = Sampler::new(&sc.catalog, &sc.mappings, Rng::new(5));
        for cycle in [&JOINHEAVY_CYCLE[..], &OVERSIZED_CYCLE[..]] {
            for q in sampled(cycle, cycle.len(), &mut s) {
                assert!(q.relations().len() >= 2, "{q:?}");
            }
        }
    }

    #[test]
    fn http_specs_parse_as_selective_queries() {
        for spec in HTTP_SPECS {
            let entry = urm_server::parse_query_spec(spec).unwrap();
            assert!(entry.query.predicate_count() >= 1, "{spec}");
        }
    }
}
