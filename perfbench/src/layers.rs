//! Benchmark-side spans around calls into each layer's public
//! functions, and the obs counters the program already exposes.
//!
//! The traced run repeats a request's work layer by layer, with the
//! same inputs and options the session used, and times each call from
//! outside the program. Nothing here instruments the program itself.

use std::collections::BTreeMap;
use std::time::Instant;

use cqshap_core::{CompiledCount, CoreError};
use cqshap_db::{Database, FactId};
use cqshap_numeric::{BigInt, BigRational};
use cqshap_obs::{phase, TraceRecorder};

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Per-layer samples by metric name; each metric reports the median
/// of its samples.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn medians(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0
            .iter()
            .map(|(&name, xs)| (name, crate::stats::median(xs)))
    }
}

/// Wall time of the numerator + normalization fan-out of a full report,
/// split between the two layers in proportion to their busy time.
pub struct FanOut {
    pub numerators_ms: f64,
    pub normalize_ms: f64,
    pub values: Vec<BigRational>,
}

impl FanOut {
    pub fn total_ms(&self) -> f64 {
        self.numerators_ms + self.normalize_ms
    }
}

/// Every fact's `shapley_numerator` and `normalize_numerator` on
/// `engine`, fanned out the way the session's report does it: facts
/// grouped by recount bucket, whole buckets dealt largest-first to
/// `thread_cap` lanes.
pub fn numerators_and_normalize(
    db: &Database,
    engine: &CompiledCount,
    facts: &[FactId],
    thread_cap: usize,
) -> Result<FanOut, CoreError> {
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); engine.buckets()];
    for (i, &f) in facts.iter().enumerate() {
        buckets[engine.bucket_of(f)].push(i);
    }
    buckets.retain(|b| !b.is_empty());
    buckets.sort_by_key(|b| std::cmp::Reverse(b.len()));
    let lanes = thread_cap.min(buckets.len()).max(1);
    let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); lanes];
    let mut loads = vec![0usize; lanes];
    for bucket in buckets {
        let t = (0..lanes).min_by_key(|&t| loads[t]).unwrap_or(0);
        loads[t] += bucket.len();
        assignments[t].extend(bucket);
    }
    type Lane = Result<(Vec<(usize, BigRational)>, f64, f64), CoreError>;
    let lane = |idx: &[usize]| -> Lane {
        let (mut num_ms, mut norm_ms) = (0.0, 0.0);
        let mut out = Vec::with_capacity(idx.len());
        for &i in idx {
            let (num, ms): (Result<BigInt, CoreError>, f64) =
                timed(|| engine.shapley_numerator(db, facts[i]));
            num_ms += ms;
            let num = num?;
            let (value, ms) = timed(|| engine.normalize_numerator(num));
            norm_ms += ms;
            out.push((i, value));
        }
        Ok((out, num_ms, norm_ms))
    };
    let start = Instant::now();
    let parts: Vec<Lane> = if lanes == 1 {
        vec![lane(&assignments[0])]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = assignments
                .iter()
                .map(|idx| s.spawn(move || lane(idx)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("numerator lane panicked"))
                .collect()
        })
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut values = vec![BigRational::zero(); facts.len()];
    let (mut num_busy, mut norm_busy) = (0.0, 0.0);
    for part in parts {
        let (done, num_ms, norm_ms) = part?;
        num_busy += num_ms;
        norm_busy += norm_ms;
        for (i, v) in done {
            values[i] = v;
        }
    }
    let share = if num_busy + norm_busy > 0.0 {
        num_busy / (num_busy + norm_busy)
    } else {
        1.0
    };
    Ok(FanOut {
        numerators_ms: wall_ms * share,
        normalize_ms: wall_ms * (1.0 - share),
        values,
    })
}

/// The program's own work counters for one traced operation.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub schoolbook: u64,
    pub karatsuba: u64,
    pub ntt: u64,
    pub prime_draws: u64,
    pub memo_hit: u64,
    pub memo_miss: u64,
    pub recount_hit: u64,
    pub recount_miss: u64,
}

impl Counters {
    pub fn read(trace: &TraceRecorder) -> Self {
        Counters {
            schoolbook: trace.counter_value(phase::CTR_POLY_SCHOOLBOOK),
            karatsuba: trace.counter_value(phase::CTR_POLY_KARATSUBA),
            ntt: trace.counter_value(phase::CTR_POLY_NTT),
            prime_draws: trace.counter_value(phase::CTR_NTT_PRIME_DRAWS),
            memo_hit: trace.counter_value(phase::CTR_CLASS_MEMO_HIT),
            memo_miss: trace.counter_value(phase::CTR_CLASS_MEMO_MISS),
            recount_hit: trace.counter_value(phase::CTR_RECOUNT_CACHE_HIT),
            recount_miss: trace.counter_value(phase::CTR_RECOUNT_CACHE_MISS),
        }
    }

    pub fn add(&mut self, o: Counters) {
        self.schoolbook += o.schoolbook;
        self.karatsuba += o.karatsuba;
        self.ntt += o.ntt;
        self.prime_draws += o.prime_draws;
        self.memo_hit += o.memo_hit;
        self.memo_miss += o.memo_miss;
        self.recount_hit += o.recount_hit;
        self.recount_miss += o.recount_miss;
    }

    /// The counter metrics, per operation over `ops` operations.
    pub fn metrics(&self, ops: usize) -> [(&'static str, f64); 6] {
        let per = |x: u64| x as f64 / ops.max(1) as f64;
        let ratio = |hit: u64, miss: u64| {
            if hit + miss == 0 {
                0.0
            } else {
                hit as f64 / (hit + miss) as f64
            }
        };
        [
            (phase::CTR_POLY_SCHOOLBOOK, per(self.schoolbook)),
            (phase::CTR_POLY_KARATSUBA, per(self.karatsuba)),
            (phase::CTR_POLY_NTT, per(self.ntt)),
            (phase::CTR_NTT_PRIME_DRAWS, per(self.prime_draws)),
            (
                "compiled.class-memo.hit_ratio",
                ratio(self.memo_hit, self.memo_miss),
            ),
            (
                "compiled.recount-cache.hit_ratio",
                ratio(self.recount_hit, self.recount_miss),
            ),
        ]
    }
}

/// Share of `op_ms` not covered by the layer calls summing to
/// `layers_ms`.
pub fn unattributed(op_ms: f64, layers_ms: f64) -> f64 {
    if op_ms > 0.0 {
        (op_ms - layers_ms) / op_ms
    } else {
        0.0
    }
}
