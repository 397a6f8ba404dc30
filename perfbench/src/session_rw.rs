//! `session-rw`: one long-lived session over the `cold-hier` instance,
//! driven by a seeded stream of steps. A step is one write
//! (`insert_fact`, `retract_fact` or a `set_exogenous` flip), one full
//! `report()` and one probability read (`probability()` plus the
//! expected marginals of a few facts). A request is one round of four
//! steps, one per write kind: the kinds differ in cost, so a round's
//! latency has one mode where a single step's has four.

use std::time::Instant;

use cqshap_core::{
    AnyQuery, CompiledCount, CompiledProbability, EngineUpdate, ResolvedStrategy, ShapleySession,
};
use cqshap_db::{Database, DbError, FactId, Provenance};
use cqshap_numeric::BigRational;
use cqshap_query::ConjunctiveQuery;

use crate::gen::{self, Rng};
use crate::layers::{self, timed, Counters};
use crate::{cold, Ctx};

/// The `cold-hier` instance and query.
const HIER: cold::Kind = cold::Kind::Hierarchical;
/// Write kinds of the stream; a round applies one of each.
const WRITE_KINDS: usize = 4;
/// Facts whose expected marginal each probability read asks for.
const MARGINALS: usize = 4;

/// Probability of facts inserted by the stream.
fn default_probability() -> BigRational {
    BigRational::from_i64_ratio(1, 8)
}

/// Seeded per-fact probabilities, exact dyadic rationals of at most
/// three bits: TAs likely present, registrations likely absent.
fn set_probabilities(session: &mut ShapleySession, seed: u64) -> Result<(), String> {
    let mut rng = Rng::new(gen::derive(seed, 3));
    let facts: Vec<FactId> = session.database().endo_facts().to_vec();
    for f in facts {
        let db = session.database();
        let p = if db.schema().name(db.fact(f).rel) == "TA" {
            let (num, den) = [(3, 4), (7, 8)][rng.below(2)];
            BigRational::from_i64_ratio(num, den)
        } else {
            BigRational::from_i64_ratio(1 + rng.below(2) as i64, 8)
        };
        session.set_probability(f, p).map_err(|e| e.to_string())?;
    }
    session
        .set_default_probability(default_probability())
        .map_err(|e| e.to_string())
}

/// One write of the stream.
#[derive(Clone, Debug)]
enum Write {
    Insert(&'static str, Vec<String>),
    Retract(FactId),
    Flip(FactId, bool),
}

/// The seeded op stream. It only proposes writes that are valid on the
/// session's current database, so no write is expected to fail.
/// Provenance flips touch `TA` facts only: registrations stay
/// endogenous, so no student satisfies `q1` from exogenous facts alone,
/// `q1(Dx)` stays false and `Pr[q]` stays below 1.
struct Stream {
    rng: Rng,
    /// Writes proposed so far.
    writes: usize,
    /// The `TA` fact flipped to exogenous, to flip back next time.
    flipped: Option<FactId>,
}

impl Stream {
    fn random_endo(&mut self, db: &Database, relation: &str) -> Option<FactId> {
        let endo = db.endo_facts();
        (0..64).find_map(|_| {
            let f = endo[self.rng.below(endo.len())];
            (db.schema().name(db.fact(f).rel) == relation).then_some(f)
        })
    }

    /// The next write. Kinds cycle in a fixed order (insert a `Reg`,
    /// retract a `Reg`, toggle a `TA`, flip a `TA`'s provenance), so
    /// every seed runs the same mix and the database keeps its size;
    /// the seed picks the facts.
    fn next_write(&mut self, db: &Database) -> Write {
        let kind = self.writes % WRITE_KINDS;
        self.writes += 1;
        loop {
            match kind {
                0 => {
                    let (students, courses) = HIER.size();
                    let s = format!("s{}", self.rng.below(students));
                    let c = format!("c{}", self.rng.below(courses));
                    if db.find_fact("Reg", &[&s, &c]).is_none() {
                        return Write::Insert("Reg", vec![s, c]);
                    }
                }
                1 => {
                    if let Some(f) = self.random_endo(db, "Reg") {
                        return Write::Retract(f);
                    }
                }
                2 => {
                    let s = format!("s{}", self.rng.below(HIER.size().0));
                    match db.find_fact("TA", &[&s]) {
                        None => return Write::Insert("TA", vec![s]),
                        Some(f) if db.endo_index(f).is_some() => return Write::Retract(f),
                        Some(_) => {}
                    }
                }
                _ => {
                    if let Some(f) = self.flipped.take() {
                        return Write::Flip(f, false);
                    }
                    if let Some(f) = self.random_endo(db, "TA") {
                        self.flipped = Some(f);
                        return Write::Flip(f, true);
                    }
                }
            }
        }
    }

    fn marginal_facts(&mut self, db: &Database) -> Vec<FactId> {
        let endo = db.endo_facts();
        (0..MARGINALS)
            .map(|_| endo[self.rng.below(endo.len())])
            .collect()
    }
}

fn apply(session: &mut ShapleySession, w: &Write) -> Result<(), String> {
    let r = match w {
        Write::Insert(rel, consts) => {
            let refs: Vec<&str> = consts.iter().map(String::as_str).collect();
            session
                .insert_fact(rel, &refs, Provenance::Endogenous)
                .map(|_| ())
        }
        Write::Retract(f) => session.retract_fact(*f),
        Write::Flip(f, exo) => session.set_exogenous(*f, *exo),
    };
    r.map_err(|e| e.to_string())
}

/// The same write on a plain database, returning the engine update it
/// implies.
fn apply_plain(db: &mut Database, w: &Write) -> Result<EngineUpdate, DbError> {
    Ok(match w {
        Write::Insert(rel, consts) => {
            let refs: Vec<&str> = consts.iter().map(String::as_str).collect();
            EngineUpdate::Inserted(db.insert(rel, &refs, Provenance::Endogenous)?)
        }
        Write::Retract(f) => {
            db.retract_fact(*f)?;
            EngineUpdate::Retracted(*f)
        }
        Write::Flip(f, exo) => {
            let p = if *exo {
                Provenance::Exogenous
            } else {
                Provenance::Endogenous
            };
            db.set_fact_provenance(*f, p)?;
            EngineUpdate::ProvenanceFlipped(*f)
        }
    })
}

fn strictly_inside(p: &BigRational) -> bool {
    p.is_positive() && *p < BigRational::one()
}

/// Latencies of one step, in ms.
struct Step {
    write: f64,
    read: f64,
    prob: f64,
    /// The step's report values, for the traced run's cross-check.
    values: Vec<BigRational>,
    marginal_facts: Vec<FactId>,
}

/// One step against the session; `None` when any op failed (the
/// failure is counted). Checks run after each op's clock stops.
fn step(
    ctx: &mut Ctx,
    session: &mut ShapleySession,
    stream: &mut Stream,
    w: &Write,
) -> Option<Step> {
    let (r, write) = timed(|| apply(session, w));
    ctx.tally.op("write", r)?;
    let (report, read) = timed(|| session.report());
    let report = ctx.tally.op("report", report)?;
    ctx.tally
        .check("report satisfies efficiency", report.efficiency_holds());
    let facts = stream.marginal_facts(session.database());
    let (r, prob) = timed(|| {
        let p = session.probability()?;
        for &f in &facts {
            session.expected_shapley(f)?;
        }
        Ok::<_, cqshap_core::CoreError>(p)
    });
    let p = ctx.tally.op("probability + marginals", r)?;
    ctx.tally
        .check("Pr[q] is strictly inside (0, 1)", strictly_inside(&p));
    Some(Step {
        write,
        read,
        prob,
        values: report.entries.into_iter().map(|e| e.value).collect(),
        marginal_facts: facts,
    })
}

fn prepared(db: &Database, q: &ConjunctiveQuery, ctx: &Ctx) -> Result<ShapleySession, String> {
    let mut session =
        ShapleySession::prepare(db, AnyQuery::Cq(q), &ctx.options).map_err(|e| e.to_string())?;
    set_probabilities(&mut session, ctx.seed)?;
    session.probability().map_err(|e| e.to_string())?;
    Ok(session)
}

pub fn run(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let (session, q) = crate::repeat_setup(ctx, |ctx| {
        let (students, courses) = HIER.size();
        let (db, q, parse_ms) =
            cold::setup(|| gen::university(students, courses, seed), HIER.query());
        ((prepared(&db, &q, ctx), q), parse_ms)
    });
    let Some(mut session) = ctx.tally.op("set-up prepare", session) else {
        return;
    };
    ctx.note("m", session.database().endo_count());
    ctx.tally.check(
        "the session resolves Hierarchical",
        session.strategy() == Some(ResolvedStrategy::Hierarchical),
    );
    let mut stream = Stream {
        rng: Rng::new(gen::derive(seed, 4)),
        writes: 0,
        flipped: None,
    };
    let mut writes = 0usize;

    if !ctx.trace {
        let end = ctx.deadline(1.0);
        let start = Instant::now();
        while Instant::now() < end {
            let (mut ms, mut facts, mut complete) = (0.0, 0.0, true);
            for _ in 0..WRITE_KINDS {
                let w = stream.next_write(session.database());
                match step(ctx, &mut session, &mut stream, &w) {
                    Some(r) => {
                        writes += 1;
                        ms += r.write + r.read + r.prob;
                        facts += r.values.len() as f64;
                    }
                    None => complete = false,
                }
            }
            if complete {
                ctx.latencies_ms.push(ms);
                ctx.facts_answered += facts;
            }
        }
        ctx.loop_s = start.elapsed().as_secs_f64();
    } else {
        writes = traced(ctx, &mut session, &mut stream, &q);
    }
    let frac = session.stats().incremental_updates as f64 / writes.max(1) as f64;
    ctx.note("writes", writes);
    ctx.note("incremental_frac", frac);
    ctx.layers.push("session.incremental_frac", frac);
    final_guard(ctx, &mut session, &q);
}

/// After the stream: the maintained session must equal a fresh prepare
/// on its own database, bit for bit, for the report and `Pr[q]`.
fn final_guard(ctx: &mut Ctx, session: &mut ShapleySession, q: &ConjunctiveQuery) {
    let db = session.database().clone();
    let fresh =
        ShapleySession::prepare(&db, AnyQuery::Cq(q), &ctx.options).and_then(|mut fresh| {
            for &f in db.endo_facts() {
                fresh.set_probability(f, session.probabilities().get(f).clone())?;
            }
            fresh.set_default_probability(default_probability())?;
            Ok(fresh)
        });
    let Some(mut fresh) = ctx.tally.op("fresh prepare", fresh) else {
        return;
    };
    if let (Some(a), Some(b)) = (
        ctx.tally.op("maintained report", session.report()),
        ctx.tally.op("fresh report", fresh.report()),
    ) {
        let same = a.entries.len() == b.entries.len()
            && a.entries
                .iter()
                .zip(&b.entries)
                .all(|(x, y)| x.fact == y.fact && x.value == y.value);
        ctx.tally
            .check("maintained report equals a fresh prepare bit for bit", same);
    }
    if let (Some(a), Some(b)) = (
        ctx.tally
            .op("maintained probability", session.probability()),
        ctx.tally.op("fresh probability", fresh.probability()),
    ) {
        // Pr[q] is within 2^-k of 1 at this size; record k.
        ctx.note(
            "log2_one_minus_pr_q",
            (BigRational::one() - &a).ln_abs_f64() / std::f64::consts::LN_2,
        );
        ctx.tally
            .check("maintained Pr[q] equals a fresh prepare", a == b);
        ctx.tally
            .check("final Pr[q] is strictly inside (0, 1)", strictly_inside(&a));
    }
}

/// The traced run: untraced steps for the per-op latencies and the
/// overhead baseline, then traced steps, each followed by the same
/// write and reads replayed layer by layer on a shadow database and
/// shadow engines. Returns the number of writes applied.
fn traced(
    ctx: &mut Ctx,
    session: &mut ShapleySession,
    stream: &mut Stream,
    q: &ConjunctiveQuery,
) -> usize {
    let mut writes = 0usize;
    let mut untraced = Vec::new();
    let (mut w_ms, mut r_ms, mut p_ms) = (Vec::new(), Vec::new(), Vec::new());
    let end = ctx.deadline(0.3);
    while Instant::now() < end {
        let w = stream.next_write(session.database());
        if let Some(r) = step(ctx, session, stream, &w) {
            writes += 1;
            untraced.push(r.write + r.read + r.prob);
            w_ms.push(r.write);
            r_ms.push(r.read);
            p_ms.push(r.prob);
        }
    }
    ctx.layers
        .push("session.write_ms", crate::stats::median(&w_ms));
    ctx.layers
        .push("session.read_ms", crate::stats::median(&r_ms));
    ctx.layers
        .push("session.prob_ms", crate::stats::median(&p_ms));

    let threads = ctx.options.threads;
    let mut shadow = session.database().clone();
    let probs = session.probabilities().clone();
    let Some(mut count) = ctx.tally.op(
        "shadow compile",
        CompiledCount::compile_with_threads(&shadow, q, threads),
    ) else {
        return writes;
    };
    let (prob, ms) =
        timed(|| CompiledProbability::compile_with_threads(&shadow, q, probs.clone(), threads));
    ctx.layers.push("prob.compile_ms", ms);
    let mut prob = ctx.tally.op("shadow probability compile", prob);

    let trace = cqshap_obs::install_trace().expect("no other recorder is installed");
    let mut traced = Vec::new();
    let mut counters = Counters::default();
    let end = ctx.deadline(0.7);
    while Instant::now() < end || traced.is_empty() {
        let w = stream.next_write(session.database());
        trace.clear();
        let Some(r) = step(ctx, session, stream, &w) else {
            // The failure is counted; start the replay over from the
            // session's state.
            shadow = session.database().clone();
            match CompiledCount::compile_with_threads(&shadow, q, threads) {
                Ok(fresh) => count = fresh,
                Err(_) => return writes,
            }
            prob = None;
            continue;
        };
        counters.add(Counters::read(trace));
        writes += 1;
        traced.push(r.write + r.read + r.prob);

        // The write: snapshot clone, mutation, probability-engine and
        // counting-engine maintenance (or a recompile).
        let (_, clone_ms) = timed(|| shadow.clone());
        let (change, mutate_ms) = timed(|| apply_plain(&mut shadow, &w));
        let Some(change) = ctx.tally.op("shadow write", change) else {
            continue;
        };
        let mut write_sum = clone_ms + mutate_ms;
        ctx.layers.push("db.clone_ms", clone_ms);
        ctx.layers.push("db.mutate_us", mutate_ms * 1e3);
        if let Some(engine) = prob.as_mut() {
            let (kept, ms) = timed(|| engine.update(&shadow, change));
            write_sum += ms;
            ctx.layers.push("prob.update_ms", ms);
            if !matches!(kept, Ok(true)) {
                prob = None;
            }
        }
        let (kept, ms) = timed(|| count.update(&shadow, change));
        write_sum += ms;
        ctx.layers.push("compiled.update_ms", ms);
        match ctx.tally.op("shadow update", kept) {
            Some(true) => {}
            Some(false) => {
                let (fresh, ms) =
                    timed(|| CompiledCount::compile_with_threads(&shadow, q, threads));
                write_sum += ms;
                ctx.layers.push("compiled.compile_ms", ms);
                match ctx.tally.op("shadow recompile", fresh) {
                    Some(fresh) => count = fresh,
                    None => continue,
                }
            }
            None => continue,
        }
        ctx.layers.push(
            "session.unattributed_frac.write",
            layers::unattributed(r.write, write_sum),
        );

        // The read: every numerator and its normalization.
        let fan =
            layers::numerators_and_normalize(&shadow, &count, shadow.endo_facts(), ctx.thread_cap);
        if let Some(fan) = ctx.tally.op("shadow numerators", fan) {
            ctx.layers.push("compiled.numerators_ms", fan.numerators_ms);
            ctx.layers.push("compiled.normalize_ms", fan.normalize_ms);
            ctx.layers.push(
                "session.unattributed_frac.read",
                layers::unattributed(r.read, fan.total_ms()),
            );
            ctx.tally.check(
                "replayed engine values equal the session's report",
                fan.values == r.values,
            );
        }

        // The probability read: a recompile if maintenance gave up,
        // then the marginals.
        let mut prob_sum = 0.0;
        if prob.is_none() {
            let probs = session.probabilities().clone();
            let (fresh, ms) =
                timed(|| CompiledProbability::compile_with_threads(&shadow, q, probs, threads));
            prob_sum += ms;
            ctx.layers.push("prob.compile_ms", ms);
            prob = ctx.tally.op("shadow probability recompile", fresh);
        }
        if let Some(engine) = prob.as_ref() {
            for &f in &r.marginal_facts {
                let (m, ms) = timed(|| engine.expected_marginal(&shadow, f));
                prob_sum += ms;
                ctx.layers.push("prob.marginal_us", ms * 1e3);
                ctx.tally.op("shadow marginal", m);
            }
            ctx.layers.push(
                "session.unattributed_frac.prob",
                layers::unattributed(r.prob, prob_sum),
            );
        }
    }
    for (name, v) in counters.metrics(traced.len()) {
        ctx.layers.push(name, v);
    }
    ctx.layers.push(
        "trace.overhead_frac",
        crate::stats::median(&traced) / crate::stats::median(&untraced) - 1.0,
    );
    ctx.note("untraced_samples", untraced.len());
    ctx.note("traced_samples", traced.len());
    writes
}
