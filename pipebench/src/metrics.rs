//! Metric names, units and derivations. The names and units here are
//! the ones `BENCHMARK.json` declares.

use crate::trace::PassProfile;
use crate::workloads::Counts;

/// Seeds used while the sizes and bounds were tuned; any other seed is
/// held out.
pub const TUNING_SEEDS: std::ops::RangeInclusive<u64> = 1..=10;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles (medians of the lower and upper halves).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let half = v.len() / 2;
    (median(&v[..half]), median(&v[v.len() - half..]))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn end_to_end(setup_s: f64, pipeline_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        m("setup_s", setup_s, "s"),
        m("pipeline_s", pipeline_s, "s"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// The per-layer metrics of a traced run. Times are medians over the
/// traced passes; counts come from the last traced pass (they repeat
/// exactly). A layer a workload never enters reports 0.
pub fn per_layer(
    profiles: &[PassProfile],
    counts: &Counts,
    untraced_s: f64,
    traced_s: f64,
) -> Vec<Metric> {
    let med = |f: &dyn Fn(&PassProfile) -> f64| median(&profiles.iter().map(f).collect::<Vec<_>>());
    let layer = |name: &str| med(&|p| p.layer_s.get(name).copied().unwrap_or(0.0));
    let side = |name: &str| med(&|p| p.side_s.get(name).copied().unwrap_or(0.0));
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);

    let ingest_s = layer("ingest");
    let bridge_s = layer("bridge");
    // On the certified workload the pipeline chases through
    // `chase_certified` (the certify layer); `chase.s` is then the plain
    // `chase_with` timed beside it on the same input.
    let chase_s = if layer("chase") > 0.0 {
        layer("chase")
    } else {
        side("side:chase")
    };
    let derived = (count("chase.facts_out") - count("solution.facts_out")).max(0.0);
    let certify_s = layer("certify");
    let certify_base = side("side:chase").max(side("side:sweep"));
    let check_s = layer("check");
    let eval_s = layer("eval");
    let enum_s = side("side:enum");
    let sweep_s = side("side:sweep");
    vec![
        m("ingest.s", ingest_s, "s"),
        m("ingest.facts", count("ingest.facts"), "count"),
        m(
            "ingest.facts_per_s",
            ratio(count("ingest.facts"), ingest_s),
            "1/s",
        ),
        m("parse.s", layer("parse"), "s"),
        m("bridge.s", bridge_s, "s"),
        m(
            "bridge.share",
            med(&|p| ratio(p.layer_s.get("bridge").copied().unwrap_or(0.0), p.wall_s)),
            "ratio",
        ),
        m("bridge.facts_copied", count("bridge.facts_copied"), "count"),
        m("solution.s", layer("solution"), "s"),
        m("solution.facts_out", count("solution.facts_out"), "count"),
        m("chase.s", chase_s, "s"),
        m("chase.facts_out", count("chase.facts_out"), "count"),
        m("chase.derived_per_s", ratio(derived, chase_s), "1/s"),
        m("chase.firings", count("chase.firings"), "count"),
        m("chase.merges", count("chase.merges"), "count"),
        m("certify.s", certify_s, "s"),
        m("certify.overhead", ratio(certify_s, certify_base), "ratio"),
        m("certify.certs", count("certify.certs"), "count"),
        m("check.s", check_s, "s"),
        m("check.steps", count("check.steps"), "count"),
        m(
            "check.us_per_step",
            ratio(check_s, count("check.steps")) * 1e6,
            "us",
        ),
        m("check.vs_produce", ratio(check_s, certify_s), "ratio"),
        m("index.s", layer("index"), "s"),
        m("plan.s", layer("plan"), "s"),
        m("eval.s", eval_s, "s"),
        m("eval.enum_s", enum_s, "s"),
        m(
            "eval.materialize_s",
            if enum_s > 0.0 { eval_s - enum_s } else { 0.0 },
            "s",
        ),
        m("eval.bindings", count("eval.bindings"), "count"),
        m("eval.answers", count("eval.answers"), "count"),
        m(
            "eval.bindings_per_answer",
            ratio(count("eval.bindings"), count("eval.answers")),
            "ratio",
        ),
        m("nulls.s", layer("nulls"), "s"),
        m("nulls.dropped", count("nulls.dropped"), "count"),
        m("sweep.s", sweep_s, "s"),
        m("sweep.completions", count("sweep.completions"), "count"),
        m(
            "sweep.us_per_completion",
            ratio(sweep_s, count("sweep.completions")) * 1e6,
            "us",
        ),
        m("trace.coverage", med(&|p| p.coverage), "ratio"),
        m("trace.overhead", ratio(traced_s, untraced_s), "ratio"),
    ]
}

/// Does per-layer metric `metric` apply to `workload`, i.e. must it be
/// non-zero there? The layer × workload table of `README.md`.
pub fn applies(workload: &str, metric: &str) -> bool {
    let layer = metric.split('.').next().unwrap_or("");
    let on = |ws: &[&str]| ws.contains(&workload);
    const XCHG: &[&str] = &["xchg_closure", "xchg_egd_cert"];
    const EVAL: &[&str] = &["xchg_closure", "xchg_egd_cert", "naive_bulk"];
    const CERT: &[&str] = &["xchg_egd_cert", "naive_certify"];
    match metric {
        // Exact zeros by construction: the closure has no egd to merge
        // with, the egd workload has no tgd to fire and shrinks rather
        // than derives, and only naive_bulk has nulls in its answers.
        "chase.firings" | "chase.derived_per_s" => workload == "xchg_closure",
        "chase.merges" => workload == "xchg_egd_cert",
        "nulls.dropped" => workload == "naive_bulk",
        _ => match layer {
            "parse" | "trace" => true,
            "solution" | "chase" => on(XCHG),
            "certify" | "check" => on(CERT),
            "ingest" | "bridge" | "index" | "plan" | "eval" | "nulls" => on(EVAL),
            "sweep" => workload == "naive_certify",
            _ => false,
        },
    }
}
