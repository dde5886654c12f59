//! Model-based property test of the plan cache.
//!
//! Random inserts, lookups, commits (random footprints, extension flags)
//! and unannounced epoch jumps run against [`PlanCache`] and against a
//! naive model that keeps the **full** mutation history and decides every
//! verdict from it: an entry cached at epoch `i` is valid at `e` iff every
//! epoch in `(i, e]` was committed (no jump the cache was not told about)
//! and no non-extension mutation among them overlaps its footprint; it is
//! pending extension over the concepts of the extensions that did. The
//! cache keeps no history — each commit's sweep decides once — so the
//! model is the oracle that the sweep loses nothing.
//!
//! Ops follow the contract [`mdm_core::Mdm`] keeps: inserts and lookups at
//! the current epoch, commits at the next one. Every lookup's verdict
//! (including `affected`), every LRU victim and every counter must agree.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mdm_core::expansion::ExpandedWalk;
use mdm_core::{CacheStats, Footprint, Found, PlanCache, RewriteArtifacts, Rewriting, Walk};
use proptest::prelude::*;

const KEYS: u8 = 5;
const CAPACITY: usize = 3;
const CONCEPTS: [&str; 4] = ["A", "B", "C", "D"];
const WRAPPERS: [&str; 2] = ["w1", "w2"];

#[derive(Clone, Debug)]
enum Op {
    Insert {
        key: u8,
        footprint: Footprint,
        extended: bool,
    },
    Lookup {
        key: u8,
    },
    Commit {
        footprint: Footprint,
        extension: bool,
    },
    /// The epoch moves on without the cache being told.
    Jump {
        by: u64,
    },
}

fn footprint(concepts: u8, wrappers: u8, global: bool) -> Footprint {
    let pick = |names: &[&str], mask: u8| -> BTreeSet<String> {
        let chosen = names
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0);
        chosen.map(|(_, name)| name.to_string()).collect()
    };
    Footprint {
        concepts: pick(&CONCEPTS, concepts),
        wrappers: pick(&WRAPPERS, wrappers),
        global,
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..KEYS, 0u8..16, 0u8..4, any::<bool>()).prop_map(|(key, c, w, extended)| {
            Op::Insert {
                key,
                footprint: footprint(c, w, false),
                extended,
            }
        }),
        4 => (0..KEYS).prop_map(|key| Op::Lookup { key }),
        3 => (0u8..16, 0u8..4, 0u8..16, any::<bool>()).prop_map(|(c, w, g, extension)| {
            Op::Commit {
                footprint: footprint(c, w, g == 0),
                extension,
            }
        }),
        1 => (1u64..4).prop_map(|by| Op::Jump { by }),
    ]
}

/// A lookup's outcome in comparable form: a hit names the insert that
/// cached it, an extension its affected concepts and the cached footprint.
#[derive(Debug, PartialEq)]
enum Verdict {
    Hit(String),
    Extend(BTreeSet<String>, Footprint),
    Miss,
}

fn verdict(found: Found) -> Verdict {
    match found {
        Found::Hit(plan, _) => Verdict::Hit(plan.output_columns[0].clone()),
        Found::Extend {
            artifacts,
            affected,
        } => Verdict::Extend(affected, artifacts.footprint.clone()),
        Found::Miss => Verdict::Miss,
    }
}

fn plan(tag: &str) -> Arc<Rewriting> {
    Arc::new(Rewriting {
        queries: Vec::new(),
        distinct: true,
        sparql: String::new(),
        output_columns: vec![tag.to_string()],
        expanded_identifiers: Vec::new(),
        covered_by: Vec::new(),
    })
}

fn artifacts(footprint: Footprint) -> Arc<RewriteArtifacts> {
    Arc::new(RewriteArtifacts {
        expanded: ExpandedWalk {
            walk: Walk::new(),
            added_identifiers: Vec::new(),
        },
        alternatives: Default::default(),
        footprint,
    })
}

struct ModelEntry {
    /// The epoch it was cached at.
    epoch: u64,
    footprint: Footprint,
    tag: String,
    last_used: u64,
}

/// What the full history says about an entry at some epoch.
enum Status {
    /// Valid; `Some` with the extensions' concepts when any overlapped it.
    Valid(Option<BTreeSet<String>>),
    /// An epoch in the interval was never committed.
    Gap,
    /// A non-extension mutation in the interval overlaps it.
    Broken,
}

#[derive(Default)]
struct Model {
    entries: BTreeMap<String, ModelEntry>,
    /// Every committed mutation by epoch — never truncated.
    history: BTreeMap<u64, (Footprint, bool)>,
    clock: u64,
    stats: CacheStats,
}

impl Model {
    /// The interval test over `(entry.epoch, epoch]`, oldest mutation first.
    fn status(&self, entry: &ModelEntry, epoch: u64) -> Status {
        let mut pending: Option<BTreeSet<String>> = None;
        for at in entry.epoch + 1..=epoch {
            let Some((footprint, extension)) = self.history.get(&at) else {
                return Status::Gap;
            };
            if footprint.overlaps(&entry.footprint) {
                if !extension {
                    return Status::Broken;
                }
                let affected = pending.get_or_insert_with(BTreeSet::new);
                affected.extend(footprint.concepts.iter().cloned());
            }
        }
        Status::Valid(pending)
    }

    fn commit(&mut self, epoch: u64, footprint: Footprint, extension: bool) {
        let mut dropped = Vec::new();
        for (key, entry) in &self.entries {
            let before = self.status(entry, epoch - 1);
            let overlaps = footprint.overlaps(&entry.footprint);
            match before {
                Status::Valid(None) if !overlaps => self.stats.survivals += 1,
                Status::Valid(_) if overlaps && !extension => {
                    self.stats.surgical_invalidations += 1;
                    dropped.push(key.clone());
                }
                Status::Valid(_) => {}
                Status::Gap | Status::Broken => dropped.push(key.clone()),
            }
        }
        self.stats.invalidations += dropped.len() as u64;
        for key in dropped {
            self.entries.remove(&key);
        }
        self.history.insert(epoch, (footprint, extension));
    }

    fn lookup(&mut self, key: &str, epoch: u64) -> Verdict {
        let Some(entry) = self.entries.get(key) else {
            self.stats.misses += 1;
            return Verdict::Miss;
        };
        match self.status(entry, epoch) {
            Status::Valid(None) => {
                self.clock += 1;
                let entry = self.entries.get_mut(key).unwrap();
                entry.last_used = self.clock;
                self.stats.hits += 1;
                Verdict::Hit(entry.tag.clone())
            }
            Status::Valid(Some(affected)) => {
                self.stats.misses += 1;
                Verdict::Extend(affected, entry.footprint.clone())
            }
            Status::Gap => {
                self.entries.remove(key);
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                Verdict::Miss
            }
            Status::Broken => unreachable!("the commit of an overlapping mutation drops the entry"),
        }
    }

    /// Caches an entry; returns the LRU victim, if the cache was full.
    fn insert(
        &mut self,
        key: &str,
        epoch: u64,
        footprint: Footprint,
        tag: String,
        extended: bool,
    ) -> Option<String> {
        if extended {
            self.stats.incremental_extensions += 1;
        } else {
            self.stats.full_rewrites += 1;
        }
        let mut victim = None;
        if !self.entries.contains_key(key) && self.entries.len() >= CAPACITY {
            let oldest = self.entries.iter().min_by_key(|(_, entry)| entry.last_used);
            let key = oldest.map(|(key, _)| key.clone()).unwrap();
            self.entries.remove(&key);
            self.stats.evictions += 1;
            victim = Some(key);
        }
        self.clock += 1;
        let entry = ModelEntry {
            epoch,
            footprint,
            tag,
            last_used: self.clock,
        };
        self.entries.insert(key.to_string(), entry);
        victim
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_commit_sweep_agrees_with_the_full_history(
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let cache = PlanCache::new(CAPACITY);
        let mut model = Model::default();
        let mut epoch = 0u64;
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert { key, footprint, extended } => {
                    let key = format!("k{key}");
                    let tag = format!("insert {step}");
                    cache.insert(key.clone(), epoch, plan(&tag), artifacts(footprint.clone()), extended);
                    if let Some(victim) = model.insert(&key, epoch, footprint, tag, extended) {
                        // The victim is gone from the cache: its lookup misses.
                        prop_assert_eq!(verdict(cache.lookup(&victim, epoch)), Verdict::Miss);
                        prop_assert_eq!(model.lookup(&victim, epoch), Verdict::Miss);
                    }
                }
                Op::Lookup { key } => {
                    let key = format!("k{key}");
                    let expected = model.lookup(&key, epoch);
                    prop_assert_eq!(verdict(cache.lookup(&key, epoch)), expected, "step {}", step);
                }
                Op::Commit { footprint, extension } => {
                    epoch += 1;
                    cache.note_mutation(epoch, footprint.clone(), extension);
                    model.commit(epoch, footprint, extension);
                }
                Op::Jump { by } => epoch += by,
            }
            let expected = CacheStats {
                entries: model.entries.len(),
                capacity: CAPACITY,
                ..model.stats
            };
            prop_assert_eq!(cache.stats(), expected, "step {}", step);
        }
    }
}
