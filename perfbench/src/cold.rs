//! `cold-hier` and `cold-exo`: every request is a fresh
//! `ShapleySession::prepare` plus a full exact `report()`.

use std::collections::HashSet;
use std::time::Instant;

use cqshap_core::{
    exoshap, shapley_report_per_fact, AnyQuery, CompiledCount, ResolvedStrategy, ShapleySession,
};
use cqshap_db::Database;
use cqshap_query::{classify_with_exo, parse_cq, ConjunctiveQuery};

use crate::layers::{self, timed, Counters};
use crate::{gen, Ctx};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `q1` of Example 2.2, hierarchical (Theorem 3.1).
    Hierarchical,
    /// `q2` of Example 2.2: non-hierarchical, tractable through the
    /// `ExoShap` rewriting once `Stud`, `Course`, `Adv` are exogenous
    /// (Theorem 4.3).
    ExoShap,
}

impl Kind {
    pub fn query(self) -> &'static str {
        match self {
            Kind::Hierarchical => "q1() :- Stud(x), !TA(x), Reg(x, y)",
            Kind::ExoShap => "q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')",
        }
    }

    /// `(students, courses)` of the timed instance.
    pub fn size(self) -> (usize, usize) {
        match self {
            Kind::Hierarchical => (238, 60),
            Kind::ExoShap => (126, 40),
        }
    }

    fn strategy(self) -> ResolvedStrategy {
        match self {
            Kind::Hierarchical => ResolvedStrategy::Hierarchical,
            Kind::ExoShap => ResolvedStrategy::ExoShap,
        }
    }
}

/// Generates, parses and returns the instance, timing the parse.
pub fn setup(text_of: impl Fn() -> String, query: &str) -> (Database, ConjunctiveQuery, f64) {
    let text = text_of();
    let (db, parse_ms) = timed(|| Database::parse(&text));
    let db = db.expect("generated text parses");
    let q = parse_cq(query).expect("static query parses");
    (db, q, parse_ms)
}

pub fn run(ctx: &mut Ctx, kind: Kind) {
    let (students, courses) = kind.size();
    let (db, q) = crate::repeat_setup(ctx, |ctx| {
        let (db, q, parse_ms) = setup(
            || gen::university(students, courses, ctx.seed),
            kind.query(),
        );
        ((db, q), parse_ms)
    });
    let m = db.endo_count();
    ctx.note("m", m);
    ctx.note("facts", db.fact_count());
    guards(ctx, kind, &db, &q);

    if !ctx.trace {
        let end = ctx.deadline(1.0);
        let start = Instant::now();
        while Instant::now() < end {
            if let Some(ms) = request(ctx, &db, &q) {
                ctx.latencies_ms.push(ms);
                ctx.facts_answered += m as f64;
            }
        }
        ctx.loop_s = start.elapsed().as_secs_f64();
        return;
    }

    // Traced run: an untraced pass first, for the overhead baseline.
    let mut untraced = Vec::new();
    let end = ctx.deadline(0.3);
    while Instant::now() < end {
        untraced.extend(request(ctx, &db, &q));
    }
    let trace = cqshap_obs::install_trace().expect("no other recorder is installed");
    let mut traced = Vec::new();
    let mut counters = Counters::default();
    let exo: HashSet<String> = db.exogenous_relation_names().into_iter().collect();
    let end = ctx.deadline(0.7);
    while Instant::now() < end || traced.is_empty() {
        trace.clear();
        let Some(op_ms) = request(ctx, &db, &q) else {
            continue;
        };
        counters.add(Counters::read(trace));
        traced.push(op_ms);
        if let Some(layers_ms) = decompose(ctx, kind, &db, &q, &exo) {
            ctx.layers.push(
                "session.unattributed_frac.prepare_report",
                layers::unattributed(op_ms, layers_ms),
            );
        }
    }
    for (name, v) in counters.metrics(traced.len()) {
        ctx.layers.push(name, v);
    }
    let base = crate::stats::median(&untraced);
    ctx.layers.push(
        "trace.overhead_frac",
        crate::stats::median(&traced) / base - 1.0,
    );
    ctx.note("untraced_samples", untraced.len());
    ctx.note("traced_samples", traced.len());
}

/// One request: prepare + full report, timed until the answer is back.
/// The efficiency check runs after the clock stops.
fn request(ctx: &mut Ctx, db: &Database, q: &ConjunctiveQuery) -> Option<f64> {
    let t = Instant::now();
    let answer = ShapleySession::prepare(db, AnyQuery::Cq(q), &ctx.options)
        .and_then(|session| session.report().map(|report| (session, report)));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    // The session is dropped after the clock stops.
    let (_session, report) = ctx.tally.op("prepare + report", answer)?;
    ctx.tally
        .check("report satisfies efficiency", report.efficiency_holds());
    Some(ms)
}

/// The request's work, layer by layer, with the session's inputs and
/// options. Returns the summed layer time.
fn decompose(
    ctx: &mut Ctx,
    kind: Kind,
    db: &Database,
    q: &ConjunctiveQuery,
    exo: &HashSet<String>,
) -> Option<f64> {
    let (copy, clone_ms) = timed(|| db.clone());
    let (_, classify_ms) = timed(|| classify_with_exo(q, exo));
    let mut sum = clone_ms + classify_ms;
    ctx.layers.push("db.clone_ms", clone_ms);
    ctx.layers.push("query.classify_us", classify_ms * 1e3);
    let rewritten;
    let (eff_db, eff_q) = match kind {
        Kind::Hierarchical => {
            ctx.layers.push("exoshap.rewrite_ms", 0.0);
            (&copy, q)
        }
        Kind::ExoShap => {
            let (outcome, ms) = timed(|| exoshap::rewrite(&copy, q, ctx.options.tuple_budget));
            rewritten = ctx.tally.op("exoshap rewrite", outcome)?;
            sum += ms;
            ctx.layers.push("exoshap.rewrite_ms", ms);
            ctx.layers
                .push("db.rewritten_facts", rewritten.db.fact_count() as f64);
            (&rewritten.db, &rewritten.query)
        }
    };
    let (engine, ms) =
        timed(|| CompiledCount::compile_with_threads(eff_db, eff_q, ctx.options.threads));
    let engine = ctx.tally.op("compile", engine)?;
    sum += ms;
    ctx.layers.push("compiled.compile_ms", ms);
    let fan = layers::numerators_and_normalize(eff_db, &engine, db.endo_facts(), ctx.thread_cap);
    let fan = ctx.tally.op("numerators + normalize", fan)?;
    ctx.layers.push("compiled.numerators_ms", fan.numerators_ms);
    ctx.layers.push("compiled.normalize_ms", fan.normalize_ms);
    Some(sum + fan.total_ms())
}

/// Correctness and non-degeneracy guards, outside the timed loop.
fn guards(ctx: &mut Ctx, kind: Kind, db: &Database, q: &ConjunctiveQuery) {
    let session = ctx.tally.op(
        "guard prepare",
        ShapleySession::prepare(db, AnyQuery::Cq(q), &ctx.options),
    );
    if let Some(session) = session {
        ctx.tally.check(
            "the session resolves the workload's strategy",
            session.strategy() == Some(kind.strategy()),
        );
    }
    if kind == Kind::ExoShap {
        if let Some(outcome) = ctx.tally.op(
            "guard rewrite",
            exoshap::rewrite(db, q, ctx.options.tuple_budget),
        ) {
            let grown = outcome.db.fact_count();
            ctx.note("rewritten_facts", grown);
            ctx.tally.check(
                "the rewritten database is larger than its input",
                !outcome.always_false && grown > db.fact_count(),
            );
        }
    }
    // Bit-for-bit agreement with the per-fact oracle path on a small
    // instance from the same generator.
    let seed = ctx.seed;
    let (small, q, _) = setup(|| gen::university(14, 10, seed), kind.query());
    let batched =
        ShapleySession::prepare(&small, AnyQuery::Cq(&q), &ctx.options).and_then(|s| s.report());
    let per_fact = shapley_report_per_fact(&small, &q, &ctx.options);
    if let (Some(a), Some(b)) = (
        ctx.tally.op("guard batched report", batched),
        ctx.tally.op("guard per-fact report", per_fact),
    ) {
        let same = a.entries.len() == b.entries.len()
            && a.entries
                .iter()
                .zip(&b.entries)
                .all(|(x, y)| x.fact == y.fact && x.value == y.value);
        ctx.tally
            .check("batched report equals the per-fact path bit for bit", same);
    }
}
