//! Work per session write, read from the trace recorder's deterministic
//! work counters. A one-fact write changes one factor of one root-group
//! product, so the polynomial multiplications it costs must not grow
//! with the number of writes the session has already absorbed.
//!
//! This binary holds a single test on purpose: the recorder is
//! process-wide, and a test running beside it would add to the counters
//! it reads.

use cqshap::obs;
use cqshap::prelude::*;
use cqshap::workloads::{self, queries};

/// Polynomial multiplications so far, over every backend.
fn poly_muls(t: &obs::TraceRecorder) -> u64 {
    [
        obs::phase::CTR_POLY_SCHOOLBOOK,
        obs::phase::CTR_POLY_KARATSUBA,
        obs::phase::CTR_POLY_NTT,
    ]
    .iter()
    .map(|key| t.counter_value(key))
    .sum()
}

#[test]
fn write_work_does_not_grow_with_session_age() {
    let t = obs::install_trace().expect("only the trace recorder is installed in this binary");
    // 64 students, each its own root group of q1 (one TA and three Reg
    // facts), all in one isomorphism class.
    let db = workloads::report_benchmark_db(256);
    let q1 = queries::q1();
    let opts = ShapleyOptions::auto();
    let mut session = ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &opts).expect("hierarchical");

    // 40 single-group writes, each to a different student's group.
    let mut per_write = Vec::new();
    for s in 0..40 {
        let ta = session
            .database()
            .find_fact("TA", &[&format!("s{s}")])
            .expect("every student has a TA fact");
        let before = poly_muls(t);
        session.set_exogenous(ta, true).expect("live fact");
        per_write.push(poly_muls(t) - before);
    }
    assert_eq!(
        session.stats().incremental_updates,
        40,
        "every write is absorbed by the counting engine"
    );
    assert!(per_write[0] > 0, "a write multiplies at least once");
    assert_eq!(
        per_write[39], per_write[0],
        "multiplications per write grew with the session's age: {per_write:?}"
    );

    // The maintained session still answers like a fresh one.
    let fresh = ShapleySession::prepare(session.database(), AnyQuery::Cq(&q1), &opts)
        .expect("hierarchical");
    let (kept, want) = (session.report().unwrap(), fresh.report().unwrap());
    assert!(kept.efficiency_holds());
    assert_eq!(kept.entries.len(), want.entries.len());
    for (a, b) in kept.entries.iter().zip(&want.entries) {
        assert_eq!(a.value, b.value, "{}", a.rendered);
    }
}
