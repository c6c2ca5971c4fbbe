//! The planner: query text → executable plan, memoised by canonical key.
//!
//! Planning is cheap relative to execution but not free — a regex goes
//! through Glushkov construction, subset determinisation and Hopcroft
//! minimisation; a grammar through the CNF transformation. A serving
//! workload replays the same handful of query templates endlessly, so
//! plans are cached under the *canonical* rendering of the parsed query
//! ([`spbla_lang::Regex::canonical`] / [`spbla_lang::Grammar::canonical`]):
//! any two spellings of one query — whitespace, sugar, nonterminal
//! naming — hit the same entry, while distinct queries can never alias
//! (the canonical forms are injective).

use std::sync::{Arc, Mutex};

use rustc_hash::FxHashMap;
use spbla_obs::Counter;

use spbla_lang::dfa::Dfa;
use spbla_lang::glushkov::glushkov;
use spbla_lang::minimize::minimize;
use spbla_lang::{CnfGrammar, Grammar, Nfa, Regex, SymbolTable};

use crate::error::EngineError;

/// What a plan executes as.
#[derive(Debug)]
pub enum PlanKind {
    /// RPQ: the minimised ε-free automaton of the regex.
    Rpq(Nfa),
    /// CFPQ: the grammar in Chomsky normal form.
    Cfpq(CnfGrammar),
    /// Transitive closure of the unlabeled adjacency matrix.
    Closure,
    /// Transitive closure via the SCC condensation: the planner's
    /// preprocessing stage fetches (or builds) the graph version's
    /// cached [`spbla_prep::Condensation`] and runs the fused fixpoint
    /// on the component DAG instead of the raw adjacency. Bit-identical
    /// to [`PlanKind::Closure`] by construction.
    ClosureCondensed,
    /// Graph mutation: apply an update batch to the latest version.
    Update,
}

/// A compiled, immutable, shareable plan.
#[derive(Debug)]
pub struct Plan {
    /// Canonical key: namespaced canonical query rendering. Equal keys
    /// mean identical plans.
    pub key: String,
    /// The executable form.
    pub kind: PlanKind,
}

/// Plan cache with hit/miss accounting.
#[derive(Default)]
pub struct Planner {
    cache: Mutex<FxHashMap<String, Arc<Plan>>>,
    hits: Counter,
    misses: Counter,
}

impl Planner {
    /// Build with caller-provided counter cells — the engine hands in
    /// registry-owned counters so hit/miss accounting lands in the
    /// global [`spbla_obs::MetricsRegistry`] with no second bookkeeping.
    pub fn with_counters(hits: Counter, misses: Counter) -> Planner {
        Planner {
            cache: Mutex::new(FxHashMap::default()),
            hits,
            misses,
        }
    }

    /// Plan a regex query: parse, canonicalise, then reuse or build the
    /// minimised automaton.
    pub fn plan_rpq(
        &self,
        text: &str,
        table: &Mutex<SymbolTable>,
    ) -> Result<Arc<Plan>, EngineError> {
        let (key, regex) = {
            let mut table = table.lock().unwrap_or_else(|e| e.into_inner());
            let regex = Regex::parse(text, &mut table).map_err(EngineError::PlanError)?;
            (format!("rpq:{}", regex.canonical(&table)), regex)
        };
        self.get_or_build(key, || {
            PlanKind::Rpq(minimize(&Dfa::from_nfa(&glushkov(&regex))))
        })
    }

    /// Plan a CFPQ query: parse the grammar, canonicalise, then reuse
    /// or build the CNF.
    pub fn plan_cfpq(
        &self,
        grammar: &str,
        table: &Mutex<SymbolTable>,
    ) -> Result<Arc<Plan>, EngineError> {
        let (key, grammar) = {
            let mut table = table.lock().unwrap_or_else(|e| e.into_inner());
            let g = Grammar::parse(grammar, &mut table).map_err(EngineError::PlanError)?;
            (format!("cfpq:{}", g.canonical(&table)), g)
        };
        self.get_or_build(key, || PlanKind::Cfpq(CnfGrammar::from_grammar(&grammar)))
    }

    /// The (single) closure plan.
    pub fn plan_closure(&self) -> Result<Arc<Plan>, EngineError> {
        self.get_or_build("closure".to_string(), || PlanKind::Closure)
    }

    /// The condensed-closure plan: closure with the SCC preprocessing
    /// stage in front.
    pub fn plan_closure_condensed(&self) -> Result<Arc<Plan>, EngineError> {
        self.get_or_build("closure_condensed".to_string(), || {
            PlanKind::ClosureCondensed
        })
    }

    /// The (single) update plan — mutations ride the same admission
    /// queue as queries, so they need a plan like everyone else.
    pub fn plan_update(&self) -> Result<Arc<Plan>, EngineError> {
        self.get_or_build("update".to_string(), || PlanKind::Update)
    }

    fn get_or_build(
        &self,
        key: String,
        build: impl FnOnce() -> PlanKind,
    ) -> Result<Arc<Plan>, EngineError> {
        if let Some(plan) = self
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
        {
            self.hits.inc(1);
            return Ok(Arc::clone(plan));
        }
        self.misses.inc(1);
        let plan = Arc::new(Plan {
            key: key.clone(),
            kind: build(),
        });
        // First planner wins a race; both plans are identical because
        // the build is a pure function of the key.
        self.cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_insert_with(|| Arc::clone(&plan));
        Ok(plan)
    }

    /// (hits, misses) so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respelled_queries_hit() {
        let planner = Planner::default();
        let table = Mutex::new(SymbolTable::new());
        let a = planner.plan_rpq("knows . (likes|knows)*", &table).unwrap();
        let b = planner.plan_rpq("knows(likes | knows)*", &table).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(planner.counters(), (1, 1));
        let c = planner.plan_rpq("knows . likes", &table).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(planner.counters(), (1, 2));
    }

    #[test]
    fn rpq_and_cfpq_namespaces_disjoint() {
        let planner = Planner::default();
        let table = Mutex::new(SymbolTable::new());
        let r = planner.plan_rpq("a", &table).unwrap();
        let g = planner.plan_cfpq("S -> a", &table).unwrap();
        assert_ne!(r.key, g.key);
        let c = planner.plan_closure().unwrap();
        assert_eq!(c.key, "closure");
        assert_eq!(planner.len(), 3);
    }
}
