//! `tiered-hard`: the #P-hard regime. Every request is
//! `prepare_with_fallback` plus `report_tiered` at a fixed ε and δ with
//! its own sampler seed, plus one direct `wsms()` read.

use std::time::Instant;

use cqshap_core::approx::shapley_anytime;
use cqshap_core::wsms::wsms_report;
use cqshap_core::{AnyQuery, AnytimeParams, ShapleySession, TierPolicy, TieredAnswer};
use cqshap_db::{Database, World};
use cqshap_engine::{satisfies_compiled, CompiledQuery};
use cqshap_query::{classify_with_exo, ConjunctiveQuery};

use crate::gen::{self, Rng};
use crate::layers::{self, timed};
use crate::{cold, Ctx};

const QUERY: &str = "q() :- R(x), S(x, y), T(y)";
const HUBS: usize = 4;
const SPOKES: usize = 24;
const EPSILON: f64 = 0.1;
const DELTA: f64 = 0.05;
/// Sampler-shaped worlds evaluated per traced request for
/// `engine.satisfies_us`.
const SATISFIES_PROBES: usize = 2000;

fn policy(seed: u64, request: u64) -> TierPolicy {
    TierPolicy {
        epsilon: EPSILON,
        delta: DELTA,
        seed: gen::derive(seed, 100 + request),
        ..TierPolicy::default()
    }
}

pub fn run(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let (db, q) = crate::repeat_setup(ctx, |_| {
        let (db, q, parse_ms) = cold::setup(|| gen::hub(HUBS, SPOKES, seed), QUERY);
        ((db, q), parse_ms)
    });
    let m = db.endo_count();
    ctx.note("m", m);
    ctx.note("epsilon", EPSILON);
    ctx.note("delta", DELTA);

    let mut requests = 0u64;
    let mut draws = Vec::new();
    if !ctx.trace {
        let end = ctx.deadline(1.0);
        let start = Instant::now();
        while Instant::now() < end {
            if let Some((ms, spent)) = request(ctx, &db, &q, requests) {
                ctx.latencies_ms.push(ms);
                ctx.facts_answered += m as f64;
                draws.push(spent as f64);
            }
            requests += 1;
        }
        ctx.loop_s = start.elapsed().as_secs_f64();
        ctx.note("draws_p50", crate::stats::median(&draws));
        return;
    }

    let mut untraced = Vec::new();
    let end = ctx.deadline(0.3);
    while Instant::now() < end {
        untraced.extend(request(ctx, &db, &q, requests).map(|(ms, _)| ms));
        requests += 1;
    }
    let _trace = cqshap_obs::install_trace().expect("no other recorder is installed");
    let compiled = CompiledQuery::compile(&db, &q);
    let mut rng = Rng::new(gen::derive(seed, 5));
    let mut traced = Vec::new();
    let end = ctx.deadline(0.7);
    while Instant::now() < end || traced.is_empty() {
        let Some((op_ms, spent)) = request(ctx, &db, &q, requests) else {
            requests += 1;
            continue;
        };
        traced.push(op_ms);
        if let Some(layers_ms) = decompose(ctx, &db, &q, requests, spent) {
            ctx.layers.push(
                "session.unattributed_frac.tiered",
                layers::unattributed(op_ms, layers_ms),
            );
        }
        requests += 1;
        // The engine's satisfaction check on sampler-shaped worlds: a
        // uniform coalition size, then a uniform subset of that size.
        let endo = db.endo_facts();
        let worlds: Vec<World> = (0..SATISFIES_PROBES)
            .map(|_| {
                let k = rng.below(endo.len() + 1);
                let mut order: Vec<usize> = (0..endo.len()).collect();
                let mut world = World::empty(&db);
                for i in 0..k {
                    let j = i + rng.below(order.len() - i);
                    order.swap(i, j);
                    world.insert(&db, endo[order[i]]);
                }
                world
            })
            .collect();
        let (hits, ms) = timed(|| {
            worlds
                .iter()
                .filter(|w| satisfies_compiled(&db, w, &compiled))
                .count()
        });
        std::hint::black_box(hits);
        ctx.layers
            .push("engine.satisfies_us", ms * 1e3 / SATISFIES_PROBES as f64);
    }
    ctx.layers.push(
        "trace.overhead_frac",
        crate::stats::median(&traced) / crate::stats::median(&untraced) - 1.0,
    );
    ctx.note("untraced_samples", untraced.len());
    ctx.note("traced_samples", traced.len());
}

/// One request, timed until both answers are back. Returns the latency
/// and the sampler's draw count; the tier and convergence checks run
/// after the clock stops.
fn request(ctx: &mut Ctx, db: &Database, q: &ConjunctiveQuery, i: u64) -> Option<(f64, u64)> {
    let policy = policy(ctx.seed, i);
    let t = Instant::now();
    let answers = ShapleySession::prepare_with_fallback(db, AnyQuery::Cq(q), &ctx.options)
        .and_then(|mut session| {
            let exact_unavailable = session.is_exact_unavailable();
            let tiered = session.report_tiered(&policy)?;
            let wsms = session.wsms(policy.wsms_weight)?;
            Ok((session, exact_unavailable, tiered, wsms))
        });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    // The session is dropped after the clock stops.
    let (_session, exact_unavailable, tiered, wsms) = ctx.tally.op("tiered request", answers)?;
    ctx.tally
        .check("every exact tier rejects the instance", exact_unavailable);
    ctx.tally.check(
        "wsms scores every fact",
        wsms.entries.len() == db.endo_count(),
    );
    match tiered {
        TieredAnswer::Sampled(r) => {
            let within = r.entries.iter().all(|e| e.half_width <= EPSILON);
            ctx.tally
                .check("the sampled answer converged to ±ε", r.converged && within);
            Some((ms, r.spent_samples))
        }
        _ => {
            ctx.tally.check("the sampled tier answers", false);
            None
        }
    }
}

/// The request's work, layer by layer: the two database copies and
/// three classifications `prepare_with_fallback` makes on this
/// instance, the anytime sampler with the request's parameters, and
/// the WSMS read. Returns the summed layer time.
fn decompose(
    ctx: &mut Ctx,
    db: &Database,
    q: &ConjunctiveQuery,
    i: u64,
    session_draws: u64,
) -> Option<f64> {
    let mut sum = 0.0;
    for _ in 0..2 {
        let (copy, ms) = timed(|| db.clone());
        std::hint::black_box(copy);
        sum += ms;
        ctx.layers.push("db.clone_ms", ms);
    }
    let exo = db.exogenous_relation_names().into_iter().collect();
    for _ in 0..3 {
        let (_, ms) = timed(|| classify_with_exo(q, &exo));
        sum += ms;
        ctx.layers.push("query.classify_us", ms * 1e3);
    }
    let policy = policy(ctx.seed, i);
    let params = AnytimeParams {
        epsilon: policy.epsilon,
        delta: policy.delta,
        seed: policy.seed,
        ..AnytimeParams::default()
    };
    let (report, ms) = timed(|| shapley_anytime(db, AnyQuery::Cq(q), &params, None, &mut None));
    let report = ctx.tally.op("direct anytime", report)?;
    sum += ms;
    ctx.tally.check(
        "the direct sampler repeats the session's draws",
        report.spent_samples == session_draws,
    );
    ctx.layers.push("approx.draws", report.spent_samples as f64);
    ctx.layers.push(
        "approx.draw_us",
        ms * 1e3 / report.spent_samples.max(1) as f64,
    );
    let (wsms, ms) = timed(|| wsms_report(db, AnyQuery::Cq(q), policy.wsms_weight, None));
    ctx.tally.op("direct wsms", wsms)?;
    sum += ms;
    ctx.layers.push("wsms.ms", ms);
    Some(sum)
}
