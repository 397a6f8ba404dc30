//! Signed-term plans: every exact route as `Σ coeff · (compiled
//! hierarchical term)`.
//!
//! The paper reduces every tractable case to a hierarchical CQ¬:
//! Theorem 3.1 covers hierarchical queries directly, the `ExoShap`
//! rewriting of Theorem 4.3 turns a query into one hierarchical query,
//! Section 5.2 treats a UCQ¬ as a signed inclusion–exclusion sum of
//! hierarchical conjunctions, and the Section 3 remarks treat aggregates
//! as weighted sums of the same thing. So every exact route is a signed
//! sum of hierarchical terms; only the route that produces the terms
//! changes, and the evaluation domain only changes the arithmetic.
//!
//! ## Plan → terms → domain
//!
//! [`plan`] turns classification and strategy into a list of [`Term`]s
//! `{ coeff, db, query }`, where `db` is `None` for the caller's
//! database and `Some` for an `ExoShap`-rewritten copy shared through
//! an [`Arc`]:
//!
//! | route | terms |
//! |---|---|
//! | hierarchical CQ¬ | one term, `+1 · q` |
//! | `ExoShap` CQ¬ | one rewritten term — or none when the rewriting proves `q` always false |
//! | UCQ¬ in the compiled fragment | one term per canonical class of subset conjunctions, with its net coefficient |
//! | `ExoShap` UCQ¬ | one rewritten term per subset conjunction |
//! | brute-force strategies | no terms: the caller enumerates per fact |
//!
//! Planning compiles nothing. [`SignedSum`] instantiates a plan in one
//! evaluation domain by compiling every term: `SignedSum<CompiledCount>`
//! serves Shapley values through the signed numerator sum and the
//! report fan-out, `SignedSum<CompiledProbability>` serves `Pr[q]` and
//! expected marginals. Both answers are linear in the per-term answers,
//! so the same coefficients serve both domains, and a session compiles
//! the probability instance from the very terms (rewritten databases
//! included) its Shapley instance was planned with.
//!
//! ## Unions by inclusion–exclusion
//!
//! For `U = q₁ ∨ ⋯ ∨ q_d`, a world satisfies `U` iff it satisfies some
//! disjunct, so the satisfying-coalition counts obey
//!
//! ```text
//! |Sat(D, U, k)| = Σ_{∅ ≠ S ⊆ [d]} (−1)^{|S|+1} |Sat(D, ⋀_{i∈S} qᵢ, k)|
//! ```
//!
//! and the Shapley reduction (like `Pr[U]`), being linear in the counts,
//! splits over the same signed sum. Each conjunction is built by
//! [`cqshap_query::conjoin_disjuncts`] with variables renamed apart;
//! contradictory conjunctions contribute zero and are skipped, and a
//! conjunction outside the compiled fragment (an induced self-join or a
//! non-hierarchical join) is rejected with
//! [`CoreError::IntractableIntersection`] naming the intersection.
//!
//! Distinct subsets often conjoin to the *same* query: a disjunct
//! absorbed by another makes `S` and `S ∪ {i}` collide, and repeated
//! disjuncts collide wholesale. The compiled-fragment plan therefore
//! keys conjunctions by a canonical form and carries each class's *net*
//! coefficient `Σ_S (−1)^{|S|+1}`, dropping classes that cancel to zero.
//!
//! Everything stays exact: per-term Shapley numerators share the
//! denominator `m!` (every term counts the same `Dn`) and are summed as
//! integers before one normalization, so the results are bit-identical
//! to the per-fact reference paths.

use std::collections::HashMap;
use std::ops::{AddAssign, Mul, SubAssign};
use std::sync::{Arc, OnceLock};

use cqshap_db::{Database, FactId};
use cqshap_numeric::{BigInt, BigRational};
use cqshap_query::{
    conjoin_disjuncts, is_hierarchical, self_join_witness, subset_label, ConjunctiveQuery,
    DisjunctConjunction, Term as QueryTerm, UnionQuery,
};

use crate::anyquery::AnyQuery;
use crate::budget::{self, CancelToken};
use crate::compiled::{CompiledCount, CompiledProbability, EngineUpdate};
use crate::error::CoreError;
use crate::exoshap;
use crate::shapley::{resolve_strategy, ResolvedStrategy, ShapleyOptions, Strategy};

/// Cap on the number of disjuncts (a union plan enumerates `2^d − 1`
/// subset conjunctions).
const MAX_DISJUNCTS: usize = 10;

/// One signed term of a plan: a hierarchical CQ¬ with its
/// inclusion–exclusion coefficient and the database it evaluates
/// against.
#[derive(Clone)]
pub(crate) struct Term {
    /// The term's coefficient; never zero (cancelled classes are
    /// dropped while planning).
    pub(crate) coeff: i64,
    /// `None`: the caller's database. `Some`: an `ExoShap`-rewritten
    /// database, which keeps the caller's `Dn` and fact ids and is
    /// shared by every instantiation of the plan.
    pub(crate) db: Option<Arc<Database>>,
    /// The hierarchical query.
    pub(crate) query: ConjunctiveQuery,
}

impl Term {
    fn new(coeff: i64, db: Option<Arc<Database>>, query: ConjunctiveQuery) -> Self {
        Term { coeff, db, query }
    }

    /// The database this term evaluates against, given the caller's.
    pub(crate) fn db_or<'a>(&'a self, db: &'a Database) -> &'a Database {
        self.db.as_deref().unwrap_or(db)
    }
}

/// The exact route of a Boolean query: the resolved strategy plus its
/// signed terms, or `None` for the per-fact enumeration strategies.
/// Classifies, resolves and rewrites; compiles nothing.
///
/// # Errors
/// Everything strategy resolution and the rewriting raise;
/// [`CoreError::IntractableIntersection`] for union strategies that
/// cannot cover some intersection.
pub(crate) fn plan(
    db: &Database,
    query: AnyQuery<'_>,
    options: &ShapleyOptions,
) -> Result<(ResolvedStrategy, Option<Vec<Term>>), CoreError> {
    match query {
        AnyQuery::Cq(q) => {
            let resolved = resolve_strategy(db, q, options)?;
            Ok((resolved, cq_terms(db, q, resolved, options.tuple_budget)?))
        }
        AnyQuery::Union(u) => plan_union(db, u, options),
    }
}

/// The terms of a CQ¬ under an already-resolved strategy: the query
/// itself, its `ExoShap` rewriting (no term when always false), or
/// `None` for the enumeration strategies.
///
/// # Errors
/// Anything [`exoshap::rewrite`] raises.
pub(crate) fn cq_terms(
    db: &Database,
    q: &ConjunctiveQuery,
    resolved: ResolvedStrategy,
    tuple_budget: usize,
) -> Result<Option<Vec<Term>>, CoreError> {
    Ok(match resolved {
        ResolvedStrategy::Hierarchical => Some(vec![Term::new(1, None, q.clone())]),
        ResolvedStrategy::ExoShap => {
            let outcome = exoshap::rewrite(db, q, tuple_budget)?;
            Some(if outcome.always_false {
                Vec::new()
            } else {
                vec![Term::new(1, Some(Arc::new(outcome.db)), outcome.query)]
            })
        }
        ResolvedStrategy::BruteForce | ResolvedStrategy::Permutations => None,
    })
}

/// Union routing. `Auto` descends the ladder: the compiled fragment
/// when every intersection lies in it, then the per-conjunction
/// `ExoShap` rewriting, then brute force within the limit, and only then
/// surfaces the original intersection error.
fn plan_union(
    db: &Database,
    u: &UnionQuery,
    options: &ShapleyOptions,
) -> Result<(ResolvedStrategy, Option<Vec<Term>>), CoreError> {
    let exoshap = || exoshap_union_terms(db, u, options.tuple_budget);
    match options.strategy {
        Strategy::BruteForcePermutations => Ok((ResolvedStrategy::Permutations, None)),
        Strategy::BruteForceSubsets => Ok((ResolvedStrategy::BruteForce, None)),
        Strategy::Hierarchical => Ok((ResolvedStrategy::Hierarchical, Some(union_terms(u)?))),
        Strategy::ExoShap => Ok((ResolvedStrategy::ExoShap, Some(exoshap()?))),
        Strategy::Auto => match union_terms(u) {
            Ok(terms) => Ok((ResolvedStrategy::Hierarchical, Some(terms))),
            Err(e) if compiled_union_inapplicable(&e) => {
                if let Ok(terms) = exoshap() {
                    Ok((ResolvedStrategy::ExoShap, Some(terms)))
                } else if db.endo_count() <= options.brute_force_limit {
                    Ok((ResolvedStrategy::BruteForce, None))
                } else {
                    Err(e)
                }
            }
            Err(e) => Err(e),
        },
    }
}

/// Should `Auto` absorb this planning failure by descending the union
/// ladder (the union is outside the compiled fragment), rather than
/// propagate it (a genuine input error)?
fn compiled_union_inapplicable(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::IntractableIntersection { .. }
            | CoreError::NotHierarchical { .. }
            | CoreError::NotSelfJoinFree { .. }
            | CoreError::Unsupported(_)
    )
}

/// The non-empty subset conjunctions of `u` as `±1` terms on the
/// caller's database, each with the label naming its intersection;
/// unsatisfiable conjunctions are skipped.
///
/// # Errors
/// [`CoreError::Unsupported`] beyond [`MAX_DISJUNCTS`] disjuncts,
/// [`CoreError::Query`] if a conjunction fails to build.
pub(crate) fn subset_conjunctions(u: &UnionQuery) -> Result<Vec<(String, Term)>, CoreError> {
    let d = u.disjuncts().len();
    if d > MAX_DISJUNCTS {
        return Err(CoreError::Unsupported(format!(
            "union has {d} disjuncts; inclusion–exclusion enumerates 2^d − 1 conjunctions and \
             caps d at {MAX_DISJUNCTS}"
        )));
    }
    let mut out = Vec::with_capacity((1usize << d) - 1);
    for mask in 1usize..(1usize << d) {
        let subset: Vec<&ConjunctiveQuery> = u
            .disjuncts()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, q)| q)
            .collect();
        let name = format!("{}_cap{mask:x}", u.name());
        if let DisjunctConjunction::Query(q) = conjoin_disjuncts(&name, &subset)? {
            let coeff = if mask.count_ones() % 2 == 0 { -1 } else { 1 };
            out.push((subset_label(u.disjuncts(), mask), Term::new(coeff, None, q)));
        }
    }
    Ok(out)
}

/// Checks that a subset conjunction lies in the compiled fragment,
/// converting failures into [`CoreError::IntractableIntersection`]
/// naming the intersection.
fn check_tractable(label: &str, q: &ConjunctiveQuery) -> Result<(), CoreError> {
    if let Some(rel) = self_join_witness(q) {
        return Err(CoreError::IntractableIntersection {
            intersection: label.to_string(),
            reason: format!("the conjunction has a self-join on relation {rel}"),
        });
    }
    if !is_hierarchical(q) {
        return Err(CoreError::IntractableIntersection {
            intersection: label.to_string(),
            reason: "the conjunction is not hierarchical".to_string(),
        });
    }
    Ok(())
}

/// A term of [`canonical_key`]: constants verbatim, variables by rank of
/// first occurrence over the canonically ordered atoms.
#[derive(Clone, PartialEq, Eq, Hash)]
enum CanonTerm {
    Var(u32),
    Const(String),
}

/// A structural canonical form for a *self-join-free* conjunction: atoms
/// sorted by `(negated, relation)` — unique, since no relation repeats —
/// with variables renamed by first occurrence over that order. Two
/// subset conjunctions with equal keys count exactly the same worlds
/// (they differ only in query name and variable names), so one term
/// serves both.
fn canonical_key(q: &ConjunctiveQuery) -> Vec<(bool, String, Vec<CanonTerm>)> {
    let mut atoms: Vec<_> = q.atoms().iter().collect();
    atoms.sort_by_key(|a| (a.negated, a.relation.clone()));
    let mut rank: HashMap<u32, u32> = HashMap::new();
    atoms
        .into_iter()
        .map(|a| {
            let terms = a
                .terms
                .iter()
                .map(|t| match t {
                    QueryTerm::Const(c) => CanonTerm::Const(c.clone()),
                    QueryTerm::Var(v) => {
                        let next = rank.len() as u32;
                        CanonTerm::Var(*rank.entry(v.0).or_insert(next))
                    }
                })
                .collect();
            (a.negated, a.relation.clone(), terms)
        })
        .collect()
}

/// The compiled-fragment plan of `u`: one term per canonical class of
/// subset conjunctions, weighted by the class's net coefficient.
/// Tractability is checked per subset, so the error names the offending
/// intersection rather than its class representative.
///
/// # Errors
/// [`CoreError::IntractableIntersection`] when some conjunction leaves
/// the compiled fragment, plus anything [`subset_conjunctions`] raises.
pub(crate) fn union_terms(u: &UnionQuery) -> Result<Vec<Term>, CoreError> {
    let mut classes: HashMap<Vec<(bool, String, Vec<CanonTerm>)>, usize> = HashMap::new();
    let mut terms: Vec<Term> = Vec::new();
    for (label, term) in subset_conjunctions(u)? {
        check_tractable(&label, &term.query)?;
        let next = terms.len();
        let class = *classes.entry(canonical_key(&term.query)).or_insert(next);
        match terms.get_mut(class) {
            Some(existing) => existing.coeff += term.coeff,
            None => terms.push(term),
        }
    }
    terms.retain(|t| t.coeff != 0);
    Ok(terms)
}

/// The `ExoShap` rewriting applied per subset conjunction: one signed,
/// rewritten term each (always-false rewritings contribute zero and are
/// skipped).
///
/// # Errors
/// [`CoreError::IntractableIntersection`] naming the intersection whose
/// conjunction the rewriting rejects.
pub(crate) fn exoshap_union_terms(
    db: &Database,
    u: &UnionQuery,
    tuple_budget: usize,
) -> Result<Vec<Term>, CoreError> {
    let mut out = Vec::new();
    for (label, term) in subset_conjunctions(u)? {
        let outcome = exoshap::rewrite(db, &term.query, tuple_budget).map_err(|e| {
            CoreError::IntractableIntersection {
                intersection: label,
                reason: e.to_string(),
            }
        })?;
        if !outcome.always_false {
            out.push(Term::new(
                term.coeff,
                Some(Arc::new(outcome.db)),
                outcome.query,
            ));
        }
    }
    Ok(out)
}

/// `Σ coeff · value(term)` over `terms` in exact arithmetic; a lone
/// `+1` term is returned as is, and `±1` coefficients never multiply.
pub(crate) fn signed_sum<X, T>(
    terms: &[X],
    coeff: impl Fn(&X) -> i64,
    mut value: impl FnMut(&X) -> Result<T, CoreError>,
) -> Result<T, CoreError>
where
    T: Default + for<'a> AddAssign<&'a T> + for<'a> SubAssign<&'a T> + Mul<Output = T> + From<i64>,
{
    if let [x] = terms {
        if coeff(x) == 1 {
            return value(x);
        }
    }
    let mut acc = T::default();
    for x in terms {
        let v = value(x)?;
        match coeff(x) {
            1 => acc += &v,
            -1 => acc -= &v,
            c => acc += &(v * T::from(c)),
        }
    }
    Ok(acc)
}

/// [`CoreError::FactNotEndogenous`] unless `f ∈ Dn`.
pub(crate) fn check_endogenous(db: &Database, f: FactId) -> Result<(), CoreError> {
    match db.endo_index(f) {
        Some(_) => Ok(()),
        None => Err(CoreError::FactNotEndogenous {
            fact: db.render_fact(f),
        }),
    }
}

/// A plan instantiated in one evaluation domain: every term paired with
/// its compiled engine `E`. Like the engines, it never borrows a
/// database — query-time methods take the caller's, and terms with a
/// rewritten database carry their own.
pub(crate) struct SignedSum<E> {
    terms: Vec<(Term, E)>,
    /// Polled between terms of multi-term sums (single-term sums leave
    /// polling to the engine itself).
    cancel: Option<CancelToken>,
    /// Combined bucket id per endogenous fact — multi-term sums only,
    /// built on first use (see [`SignedSum::bucket_of`]).
    combined: OnceLock<HashMap<FactId, usize>>,
}

impl<E> SignedSum<E> {
    /// Compiles every term of `plan` with `compile`, given the term's
    /// database (`db` unless the term was rewritten). A tripped `cancel`
    /// between terms aborts with [`CoreError::DeadlineExceeded`] whose
    /// `partial` counts the compiled terms.
    ///
    /// # Errors
    /// Anything `compile` raises, plus [`CoreError::DeadlineExceeded`].
    pub(crate) fn instantiate(
        plan: Vec<Term>,
        db: &Database,
        cancel: Option<&CancelToken>,
        mut compile: impl FnMut(&Database, &ConjunctiveQuery) -> Result<E, CoreError>,
    ) -> Result<Self, CoreError> {
        let _span =
            (plan.len() > 1).then(|| cqshap_obs::Span::enter(cqshap_obs::phase::UNION_COMPILE));
        let mut terms = Vec::with_capacity(plan.len());
        for term in plan {
            if let Some(token) = cancel.filter(|_| !terms.is_empty()) {
                budget::check_partial(token, cqshap_obs::phase::UNION_COMPILE, Some(terms.len()))?;
            }
            let engine = compile(term.db_or(db), &term.query)?;
            terms.push((term, engine));
        }
        Ok(SignedSum {
            terms,
            cancel: cancel.cloned(),
            combined: OnceLock::new(),
        })
    }

    /// The plan this sum was instantiated from (rewritten databases are
    /// shared, not cloned) — for instantiating it in another domain.
    pub(crate) fn plan(&self) -> Vec<Term> {
        self.terms.iter().map(|(t, _)| t.clone()).collect()
    }

    /// Patches every term's engine after one in-place update of the
    /// caller's database through `update` (the engines' own `update`).
    /// `Ok(false)` — the caller must re-plan — unless *every* term
    /// absorbed the change. Rewritten terms always decline (the
    /// rewriting depends on the whole database), and so does an empty
    /// sum (its emptiness, e.g. an always-false rewriting, may not
    /// survive the change).
    ///
    /// # Errors
    /// Anything `update` raises.
    pub(crate) fn update(
        &mut self,
        db: &Database,
        change: EngineUpdate,
        update: impl Fn(&mut E, &Database, EngineUpdate) -> Result<bool, CoreError>,
    ) -> Result<bool, CoreError> {
        if self.terms.is_empty() || self.terms.iter().any(|(t, _)| t.db.is_some()) {
            return Ok(false);
        }
        for (_, engine) in &mut self.terms {
            if !update(engine, db, change)? {
                return Ok(false);
            }
        }
        self.combined = OnceLock::new();
        Ok(true)
    }

    /// `Σ coeff · value(term db, engine)`, polling the budget between
    /// the terms of multi-term sums.
    fn sum<T>(
        &self,
        db: &Database,
        value: impl Fn(&E, &Database) -> Result<T, CoreError>,
    ) -> Result<T, CoreError>
    where
        T: Default
            + for<'a> AddAssign<&'a T>
            + for<'a> SubAssign<&'a T>
            + Mul<Output = T>
            + From<i64>,
    {
        signed_sum(
            &self.terms,
            |(t, _)| t.coeff,
            |(t, engine)| {
                if let Some(token) = self.cancel.as_ref().filter(|_| self.terms.len() > 1) {
                    budget::check(token, cqshap_obs::phase::UNION_TERMS)?;
                }
                value(engine, t.db_or(db))
            },
        )
    }
}

impl SignedSum<CompiledCount> {
    /// Instantiates `plan` at the counting domain with a worker cap and
    /// optional budget for every term's engine.
    ///
    /// # Errors
    /// As [`SignedSum::instantiate`] over [`CompiledCount`] compiles.
    pub(crate) fn compile(
        plan: Vec<Term>,
        db: &Database,
        threads: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, CoreError> {
        Self::instantiate(plan, db, cancel, |db, q| match cancel {
            Some(token) => CompiledCount::compile_with_cancel(db, q, threads, token.clone()),
            None => CompiledCount::compile_with_threads(db, q, threads),
        })
    }

    /// The Shapley numerator of `f` over the common denominator `m!`:
    /// the signed sum of the terms' numerators (every term counts the
    /// same `Dn`).
    ///
    /// # Errors
    /// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`.
    pub(crate) fn numerator(&self, db: &Database, f: FactId) -> Result<BigInt, CoreError> {
        check_endogenous(db, f)?;
        self.sum(db, |engine, db| engine.shapley_numerator(db, f))
    }

    /// `num / m!` in lowest terms, through the first engine's memoized
    /// reduction (all engines share `m`).
    pub(crate) fn normalize(&self, num: BigInt) -> BigRational {
        match self.terms.first() {
            Some((_, engine)) => engine.normalize_numerator(num),
            None => BigRational::zero(),
        }
    }

    /// The exact Shapley value of `f`.
    ///
    /// # Errors
    /// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`.
    pub(crate) fn value(&self, db: &Database, f: FactId) -> Result<BigRational, CoreError> {
        Ok(self.normalize(self.numerator(db, f)?))
    }

    /// The recount-state bucket of `f`: a one-term sum uses its engine's
    /// own buckets; facts sharing every term's bucket share a combined
    /// one (see [`CompiledCount::bucket_of`]).
    fn bucket_of(&self, db: &Database, f: FactId) -> usize {
        match self.terms.as_slice() {
            [] => 0,
            [(_, engine)] => engine.bucket_of(f),
            _ => self.combined(db).get(&f).copied().unwrap_or(0),
        }
    }

    /// Total number of bucket ids (all in `0..bucket_count()`).
    #[cfg(test)]
    fn bucket_count(&self, db: &Database) -> usize {
        match self.terms.as_slice() {
            [] => 1,
            [(_, engine)] => engine.buckets(),
            _ => self.combined(db).values().max().map_or(1, |&b| b + 1),
        }
    }

    fn combined(&self, db: &Database) -> &HashMap<FactId, usize> {
        self.combined.get_or_init(|| {
            let mut key_ids: HashMap<Vec<usize>, usize> = HashMap::new();
            let mut bucket_ids = HashMap::with_capacity(db.endo_count());
            for &f in db.endo_facts() {
                let key: Vec<usize> = self.terms.iter().map(|(_, e)| e.bucket_of(f)).collect();
                let next = key_ids.len();
                bucket_ids.insert(f, *key_ids.entry(key).or_insert(next));
            }
            bucket_ids
        })
    }

    /// The values of `facts` plus the exact numerator total over `m!`
    /// (summing numerators is plain integer addition; summing reduced
    /// rationals would cost a gcd per fact). The per-fact numerators fan
    /// out across threads **chunked by bucket**, so each root group's
    /// recount locality stays on one core. A tripped budget surfaces as
    /// [`CoreError::DeadlineExceeded`] carrying every finished answer.
    ///
    /// # Errors
    /// [`CoreError::FactNotEndogenous`] for any `f ∉ Dn`, plus anything
    /// the engines raise.
    pub(crate) fn values(
        &self,
        db: &Database,
        facts: &[FactId],
        threads: usize,
    ) -> Result<(Vec<BigRational>, BigInt), CoreError> {
        let mut keyed: Vec<(usize, usize, FactId)> = facts
            .iter()
            .enumerate()
            .map(|(i, &f)| (self.bucket_of(db, f), i, f))
            .collect();
        keyed.sort_unstable();
        let mut buckets: Vec<&[(usize, usize, FactId)]> =
            keyed.chunk_by(|a, b| a.0 == b.0).collect();
        // Largest-first greedy assignment of whole buckets to lanes.
        buckets.sort_by_key(|b| std::cmp::Reverse(b.len()));
        let lanes = crate::parallel::resolve_thread_cap(threads).min(buckets.len().max(1));
        let mut assignments: Vec<(usize, Vec<(usize, FactId)>)> = vec![(0, Vec::new()); lanes];
        for bucket in buckets {
            if let Some((load, lane)) = assignments.iter_mut().min_by_key(|(load, _)| *load) {
                *load += bucket.len();
                lane.extend(bucket.iter().map(|&(_, i, f)| (i, f)));
            }
        }
        // Lanes return their completed prefix alongside any error so a
        // tripped deadline can report how many facts finished.
        let computed = crate::parallel::par_map_with(threads, assignments.len(), |t| {
            let mut done = Vec::new();
            for &(i, f) in assignments.get(t).into_iter().flat_map(|(_, lane)| lane) {
                match self.numerator(db, f) {
                    Ok(num) => {
                        let value = self.normalize(num.clone());
                        done.push((i, num, value));
                    }
                    Err(e) => return (done, Some(e)),
                }
            }
            (done, None)
        });
        let mut done = Vec::with_capacity(facts.len());
        let mut failure: Option<CoreError> = None;
        for (part, err) in computed {
            done.extend(part);
            failure = failure.or(err);
        }
        done.sort_unstable_by_key(|&(i, _, _)| i);
        if let Some(e) = failure {
            // Salvage the finished answers: the lanes that completed hold
            // exact values the caller should not have to recompute.
            return Err(e.with_partial_answers(done.into_iter().map(|(i, _, v)| (i, v)).collect()));
        }
        let mut total = BigInt::zero();
        let values = done
            .into_iter()
            .map(|(_, num, value)| {
                total += &num;
                value
            })
            .collect();
        Ok((values, total))
    }
}

impl SignedSum<CompiledProbability> {
    /// `Pr[q] = Σ coeff · Pr[term]`.
    pub(crate) fn probability(&self, db: &Database) -> Result<BigRational, CoreError> {
        self.sum(db, |engine, _| Ok(engine.probability().clone()))
    }

    /// `Pr[q | f present] − Pr[q | f absent]`: conditionals obey the same
    /// inclusion–exclusion as the totals, and the difference is linear
    /// in them.
    ///
    /// # Errors
    /// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`.
    pub(crate) fn expected_marginal(
        &self,
        db: &Database,
        f: FactId,
    ) -> Result<BigRational, CoreError> {
        check_endogenous(db, f)?;
        self.sum(db, |engine, db| engine.expected_marginal(db, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::satcount::{BruteForceCounter, SatCountOracle};
    use crate::shapley::shapley_via_counts;
    use cqshap_db::FactMask;
    use cqshap_numeric::BigInt;
    use cqshap_query::parse_ucq;

    fn db_two_sides() -> Database {
        Database::parse(
            "exo Stud(a)\nexo Stud(b)\n\
             endo TA(a)\n\
             endo Reg(a, c1)\nendo Reg(b, c2)\n\
             exo Lab(l1)\nexo Lab(l2)\n\
             endo Asst(l1, a)\nendo Asst(l2, b)\nendo Closed(l1)\n",
        )
        .unwrap()
    }

    fn union_two_sides() -> UnionQuery {
        parse_ucq(
            "q1() :- Stud(x), !TA(x), Reg(x, y)\n\
             q2() :- Lab(l), Asst(l, a), !Closed(l)\n",
        )
        .unwrap()
    }

    /// The compiled-fragment plan of `u` instantiated at the counting
    /// domain.
    fn compile_union(db: &Database, u: &UnionQuery) -> Result<SignedSum<CompiledCount>, CoreError> {
        SignedSum::compile(union_terms(u)?, db, 0, None)
    }

    /// Batched union values must be bit-identical to brute force on
    /// the union itself.
    fn agrees_with_brute_force(db: &Database, u: &UnionQuery) {
        let compiled = compile_union(db, u).unwrap();
        let brute = BruteForceCounter::new();
        for &f in db.endo_facts() {
            let want = shapley_via_counts(db, AnyQuery::Union(u), f, &brute).unwrap();
            let got = compiled.value(db, f).unwrap();
            assert_eq!(got, want, "{} for {u}", db.render_fact(f));
        }
    }

    #[test]
    fn two_disjunct_union_matches_brute_force() {
        let db = db_two_sides();
        agrees_with_brute_force(&db, &union_two_sides());
    }

    #[test]
    fn overlapping_ground_disjuncts() {
        let db = Database::parse("endo R(a)\nendo S(b)\nendo T(c)\n").unwrap();
        for text in [
            "q1() :- R('a'); q2() :- S('b')",
            "q1() :- R('a'); q2() :- R('a'), S('b')", // shared ground atom merges
            "q1() :- R('a'), !S('b'); q2() :- S('b'), T('c')", // contradictory pair drops
            "q1() :- R(x); q2() :- S(x); q3() :- T(x)",
        ] {
            agrees_with_brute_force(&db, &parse_ucq(text).unwrap());
        }
    }

    #[test]
    fn absorbed_disjuncts_share_engines() {
        let db = Database::parse("endo R(a)\nendo S(b)\nendo T(c)\n").unwrap();
        // q2 absorbs q1's atom, so {2} and {1,2} conjoin to the same
        // query with opposite signs: the class cancels and only {1}
        // survives — one engine for three subsets.
        let u = parse_ucq("q1() :- R('a'); q2() :- R('a'), S('b')").unwrap();
        assert_eq!(subset_conjunctions(&u).unwrap().len(), 3);
        let compiled = compile_union(&db, &u).unwrap();
        assert_eq!(compiled.terms.len(), 1);
        agrees_with_brute_force(&db, &u);
        // Structurally repeated disjuncts (same shape up to renaming)
        // collapse wholesale: {1}, {2} and {1,2}·(−1)... the pairwise
        // conjunction R(x) ∧ R(x') would self-join, so use ground atoms.
        let v = parse_ucq("q1() :- R('a'), !T('c'); q2() :- R('a'), !T('c')").unwrap();
        let compiled = compile_union(&db, &v).unwrap();
        // All three subsets conjoin to R('a') ∧ ¬T('c'); net 1 − ... =
        // +1 +1 −1 = 1 → a single engine with coefficient one.
        assert_eq!(compiled.terms.len(), 1);
        agrees_with_brute_force(&db, &v);
    }

    #[test]
    fn single_disjunct_union_matches_cq_engine() {
        let db = db_two_sides();
        let u = parse_ucq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let compiled = compile_union(&db, &u).unwrap();
        let cq_engine = CompiledCount::compile(&db, &u.disjuncts()[0]).unwrap();
        for &f in db.endo_facts() {
            assert_eq!(
                compiled.value(&db, f).unwrap(),
                cq_engine.value(&db, f).unwrap()
            );
        }
    }

    #[test]
    fn intersection_self_join_is_named() {
        let db = Database::parse("endo R(a)\nendo S(b)\n").unwrap();
        let u = parse_ucq("qa() :- R(x); qb() :- R(y), S(z)").unwrap();
        let Err(err) = compile_union(&db, &u).map(|_| ()) else {
            panic!("intersection with a self-join must be rejected");
        };
        match err {
            CoreError::IntractableIntersection {
                intersection,
                reason,
            } => {
                assert_eq!(intersection, "qa ∧ qb");
                assert!(reason.contains('R'), "{reason}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn counts_recombine_via_inclusion_exclusion() {
        // Cross-check the identity at the level of raw counts too:
        // |Sat(U)| from the signed sum of subset totals vs brute force.
        let db = db_two_sides();
        let u = union_two_sides();
        let m = db.endo_count();
        let mut signed = vec![BigInt::zero(); m + 1];
        for (_, term) in subset_conjunctions(&u).unwrap() {
            let engine = CompiledCount::compile(&db, &term.query).unwrap();
            for (k, c) in engine.total_counts().iter().enumerate() {
                let c = BigInt::from_biguint(c.clone());
                if term.coeff < 0 {
                    signed[k] -= &c;
                } else {
                    signed[k] += &c;
                }
            }
        }
        let brute = BruteForceCounter::new()
            .counts_masked(&db, AnyQuery::Union(&u), FactMask::None)
            .unwrap();
        for (k, want) in brute.iter().enumerate() {
            assert_eq!(
                signed[k],
                BigInt::from_biguint(want.clone()),
                "k = {k} of {u}"
            );
        }
    }

    #[test]
    fn buckets_cover_all_facts() {
        let db = db_two_sides();
        let compiled = compile_union(&db, &union_two_sides()).unwrap();
        assert!(compiled.terms.len() >= 2);
        for &f in db.endo_facts() {
            assert!(compiled.bucket_of(&db, f) < compiled.bucket_count(&db));
        }
        // Facts of the two sides never share recount state with the
        // other side's grouped facts... but structural nulls can share
        // bucket 0; just check nulls are consistent.
        for &f in db.endo_facts() {
            if compiled
                .terms
                .iter()
                .all(|(_, e)| e.is_structurally_null(f))
            {
                assert!(compiled.value(&db, f).unwrap().is_zero());
            }
        }
    }

    #[test]
    fn non_endogenous_fact_rejected() {
        let db = db_two_sides();
        let compiled = compile_union(&db, &union_two_sides()).unwrap();
        let stud = db.find_fact("Stud", &["a"]).unwrap();
        assert!(matches!(
            compiled.value(&db, stud),
            Err(CoreError::FactNotEndogenous { .. })
        ));
    }
}
