//! The cqshap benchmark: one command per workload, end-to-end metrics
//! from an untraced run, per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-hier --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Load is a closed loop with one client: each request is sent when the
//! previous answer is back, as a library caller would. Every request
//! runs with the default `ShapleyOptions`, so the program's own thread
//! fan-out is capped at the host's available parallelism. The last line
//! of standard output is the result object; the line before it records
//! the host, the seed, the input size and the sample counts.

// A benchmark reads the wall clock by design, and its replay of the
// report fan-out spawns its own lanes.
#![allow(clippy::disallowed_methods)]

mod cold;
mod gen;
mod layers;
mod session_rw;
mod stats;
mod tiered;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::{Duration, Instant};

use cqshap_core::ShapleyOptions;
use stats::Metric;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("request_ms.p50", "ms"),
    ("request_ms.tail", "ms"),
    ("facts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A metric whose layer
/// a workload never calls reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("db.parse_ms", "ms"),
    ("db.clone_ms", "ms"),
    ("db.mutate_us", "us"),
    ("db.rewritten_facts", "count"),
    ("query.classify_us", "us"),
    ("exoshap.rewrite_ms", "ms"),
    ("compiled.compile_ms", "ms"),
    ("compiled.numerators_ms", "ms"),
    ("compiled.normalize_ms", "ms"),
    ("compiled.update_ms", "ms"),
    ("session.write_ms", "ms"),
    ("session.read_ms", "ms"),
    ("session.prob_ms", "ms"),
    ("session.unattributed_frac.prepare_report", "frac"),
    ("session.unattributed_frac.write", "frac"),
    ("session.unattributed_frac.read", "frac"),
    ("session.unattributed_frac.prob", "frac"),
    ("session.unattributed_frac.tiered", "frac"),
    ("session.incremental_frac", "frac"),
    ("prob.compile_ms", "ms"),
    ("prob.update_ms", "ms"),
    ("prob.marginal_us", "us"),
    ("approx.draws", "count"),
    ("approx.draw_us", "us"),
    ("wsms.ms", "ms"),
    ("engine.satisfies_us", "us"),
    ("poly.mul.schoolbook", "count"),
    ("poly.mul.karatsuba", "count"),
    ("poly.mul.ntt", "count"),
    ("poly.ntt.prime-pool.draws", "count"),
    ("compiled.class-memo.hit_ratio", "frac"),
    ("compiled.recount-cache.hit_ratio", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Set-up runs at least this many times, and for at least
/// [`SETUP_MIN_TIME`], but at most [`SETUP_MAX_REPS`] times; `setup_s`
/// is the median. Many cheap repetitions also let the host settle
/// before the first request.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MIN_TIME: Duration = Duration::from_millis(500);
const SETUP_MAX_REPS: usize = 5001;

/// Runs a workload's set-up repeatedly, recording each wall time in
/// `setup_s` and the parse time the set-up reports, and returns the
/// last result.
pub fn repeat_setup<T>(ctx: &mut Ctx, setup: impl Fn(&Ctx) -> (T, f64)) -> T {
    let start = Instant::now();
    let mut last = None;
    while ctx.setup_s.len() < SETUP_MIN_REPS
        || (start.elapsed() < SETUP_MIN_TIME && ctx.setup_s.len() < SETUP_MAX_REPS)
    {
        let t = Instant::now();
        let (value, parse_ms) = setup(ctx);
        ctx.setup_s.push(t.elapsed().as_secs_f64());
        ctx.layers.push("db.parse_ms", parse_ms);
        last = Some(value);
    }
    last.expect("set-up ran at least once")
}

/// Operations attempted and failed. A failure is an error returned by
/// the program or a failed correctness or non-degeneracy check; each is
/// reported on standard error and counted, never skipped.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; on error, counts the failure and returns
    /// `None`.
    pub fn op<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    /// Counts one check; counts a failure unless `ok`.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// A run's settings, and what its workload hands back to `main`.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub options: ShapleyOptions,
    pub thread_cap: usize,
    pub tally: Tally,
    /// `setup_s` samples.
    pub setup_s: Vec<f64>,
    /// Request latencies of the untraced loop, in ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the untraced loop.
    pub loop_s: f64,
    /// Endogenous facts answered by the untraced loop.
    pub facts_answered: f64,
    /// Per-layer samples of the traced run.
    pub layers: layers::Samples,
    /// Extra fields of the information line.
    pub info: BTreeMap<&'static str, String>,
}

impl Ctx {
    /// The deadline of a loop given `share` of the run's seconds.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }

    pub fn note(&mut self, key: &'static str, value: impl Display) {
        self.info.insert(key, value.to_string());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload cold-hier|cold-exo|session-rw|tiered-hard \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let options = ShapleyOptions::default();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        options,
        thread_cap: cqshap_numeric::poly::resolve_threads(options.threads),
        tally: Tally::default(),
        setup_s: Vec::new(),
        latencies_ms: Vec::new(),
        loop_s: 0.0,
        facts_answered: 0.0,
        layers: layers::Samples::default(),
        info: BTreeMap::new(),
    };
    match args.workload.as_str() {
        "cold-hier" => cold::run(&mut ctx, cold::Kind::Hierarchical),
        "cold-exo" => cold::run(&mut ctx, cold::Kind::ExoShap),
        "session-rw" => session_rw::run(&mut ctx),
        "tiered-hard" => tiered::run(&mut ctx),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let names: &[(&'static str, &'static str)] = if ctx.trace {
        for (name, v) in ctx.layers.medians() {
            values.insert(name, v);
        }
        &PER_LAYER
    } else {
        let (tail, pct) = stats::tail(&ctx.latencies_ms);
        ctx.note("tail_percentile", format!("{pct:.3}"));
        values.insert("setup_s", stats::median(&ctx.setup_s));
        values.insert("request_ms.p50", stats::median(&ctx.latencies_ms));
        values.insert("request_ms.tail", tail);
        values.insert("facts_per_s", ctx.facts_answered / ctx.loop_s.max(1e-9));
        values.insert("peak_rss_mb", peak_rss_mb());
        &END_TO_END
    };
    let unknown: Vec<&str> = values
        .keys()
        .copied()
        .filter(|k| !names.iter().any(|(n, _)| n == k))
        .collect();
    ctx.tally.check(
        &format!("metric names are declared ({unknown:?})"),
        unknown.is_empty(),
    );
    let metrics: Vec<Metric> = names
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect();

    ctx.note("workload", format!("\"{}\"", args.workload));
    ctx.note("seed", args.seed);
    ctx.note("seconds", args.seconds);
    ctx.note("trace", u8::from(args.trace));
    ctx.note("host_cores", cqshap_numeric::poly::resolve_threads(0));
    ctx.note("thread_cap", ctx.thread_cap);
    ctx.note("clients", 1);
    ctx.note("loop", "\"closed\"");
    ctx.note("samples", ctx.latencies_ms.len());
    ctx.note("setup_reps", ctx.setup_s.len());
    let info: Vec<String> = ctx
        .info
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"info\": {{{}}}}}", info.join(", "));
    println!(
        "{}",
        stats::result_line(ctx.tally.attempted.max(1), ctx.tally.failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` of each entry of one top-level array of
    /// `BENCHMARK.json`, which keeps one entry per line.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let field = |line: &str, key: &str| -> String {
            line.split(&format!("\"{key}\": \""))
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .unwrap_or_default()
                .to_string()
        };
        text.lines()
            .skip_while(|l| !l.trim_start().starts_with(&format!("\"{section}\"")))
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with(']'))
            .map(|l| (field(l, "name"), field(l, "unit")))
            .collect()
    }

    fn emitted(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn emitted_end_to_end_metrics_equal_the_declared_ones() {
        assert_eq!(emitted(&END_TO_END), declared("end_to_end"));
    }

    #[test]
    fn emitted_per_layer_metrics_equal_the_declared_ones() {
        assert_eq!(emitted(&PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn declared_workloads_are_the_ones_dispatched() {
        let names: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            ["cold-hier", "cold-exo", "session-rw", "tiered-hard"]
        );
    }
}
