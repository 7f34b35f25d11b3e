//! End-to-end certain-answer pipeline benchmark.
//!
//! ```text
//! pipebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! pipebench --self-check
//! ```
//!
//! One closed-loop client runs one full pipeline pass at a time, from
//! input bytes to checked certain answers, for `--seconds`, and checks
//! every pass against answers computed at set-up. The untraced run
//! reports the end-to-end metrics; the traced run alternates untraced
//! and traced passes and reports the per-layer metrics. The last line
//! of standard output is one JSON object. See `README.md`.

mod metrics;
mod rng;
mod trace;
mod workloads;

use std::io::{BufRead as _, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use metrics::{median, quartiles, Metric};
use trace::{profile, PassProfile, Tracer};
use workloads::{Counts, Workload};

/// Set-up runs this often in a run; `setup_s` is the median repetition.
/// One repetition generates the inputs, computes the expected answers
/// and makes one gated, untimed warm-up pass, so that one-time
/// initialization inside the library counts as set-up, not as a pass.
const SETUP_REPS: usize = 3;

/// A run makes at least this many passes, whatever `--seconds` says.
const MIN_PASSES: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
}

const USAGE: &str = "usage: pipebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>\n       pipebench --self-check";

fn parse_args(raw: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-check" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            workloads::NAMES.join(", ")
        ));
    }
    if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(Some(args))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&raw) {
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            2
        }
        Ok(None) => self_check(),
        Ok(Some(args)) if args.workload == "all" => run_all(&args),
        Ok(Some(args)) => match run(&args) {
            Ok(run) => {
                report(&args, &run);
                0
            }
            Err(e) => {
                eprintln!("pipebench: {e}");
                1
            }
        },
    };
    std::process::exit(code);
}

/// What one run measured.
struct Run {
    setup_s: Vec<f64>,
    /// Wall times of the untraced passes that passed the gate.
    untraced_s: Vec<f64>,
    /// Wall times (side calls excluded) of the traced passes that passed.
    traced_s: Vec<f64>,
    profiles: Vec<PassProfile>,
    counts: Counts,
    attempted: usize,
    failed: usize,
    tracer: Tracer,
    peak_rss_mb: f64,
}

fn run(args: &Args) -> Result<Run, String> {
    let mut run = Run {
        setup_s: Vec::new(),
        untraced_s: Vec::new(),
        traced_s: Vec::new(),
        profiles: Vec::new(),
        counts: Counts::new(),
        attempted: 0,
        failed: 0,
        tracer: Tracer::new(),
        peak_rss_mb: 0.0,
    };
    let mut prepared: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let w = workloads::prepare(&args.workload, args.seed, args.small)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?;
        run.pass(&*w, &args.workload, None);
        run.setup_s.push(t0.elapsed().as_secs_f64());
        // Dropping the previous repetition's inputs is not set-up work.
        prepared = Some(w);
    }
    let w = prepared.ok_or("no set-up ran")?;
    let window = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut timed = 0;
    while timed < MIN_PASSES || window.elapsed() < budget {
        run.pass(&*w, &args.workload, Some(args.trace && timed % 2 == 1));
        timed += 1;
    }
    run.peak_rss_mb = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(run)
}

impl Run {
    /// One gated pass. `timed` is `None` for a warm-up pass, else whether
    /// the pass is traced; a timed pass that passes the gate is recorded.
    fn pass(&mut self, w: &dyn Workload, name: &str, timed: Option<bool>) {
        let id = self.attempted as u32;
        let traced = timed == Some(true);
        self.tracer.start_pass(id, traced);
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| w.pass(&mut self.tracer)));
        let elapsed = t0.elapsed().as_secs_f64();
        self.tracer.end_pass();
        self.attempted += 1;
        let checked = match result {
            Ok(r) => r.and_then(|out| w.gate(&out.answers).map(|()| out)),
            Err(panic) => Err(format!("panic: {}", panic_message(&*panic))),
        };
        let out = match checked {
            Ok(out) => out,
            Err(e) => {
                self.failed += 1;
                eprintln!("pipebench: {name} pass {id} failed: {e}");
                return;
            }
        };
        match timed {
            None => {}
            Some(false) => self.untraced_s.push(elapsed),
            Some(true) => {
                self.traced_s
                    .push(elapsed - self.tracer.side_ns(id) as f64 * 1e-9);
                self.profiles.extend(profile(self.tracer.spans(), id));
                self.counts = out.counts;
            }
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Peak resident memory of this process (one process runs one
/// workload, so the peak is that workload's alone).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The git revision of the checkout, read from `.git` without running
/// git; "unknown" outside a repository.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{name}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The reproducibility footer: revision, host width, seed, the width
/// each stage ran at, and the environment knobs that can override it.
fn footer(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let env = |var: &str| match std::env::var(var) {
        Ok(v) => format!("\"{}\"", v.escape_default()),
        Err(_) => "null".into(),
    };
    // Stages that honor CA_PART_THREADS over their explicit width, which
    // they clamp to the host's cores.
    let part = ca_core::config::part_threads_set().unwrap_or(workloads::WIDTH.min(nproc));
    format!(
        "{{\"workload\": \"{}\", \"rev\": \"{}\", \"nproc\": {nproc}, \"seed\": {}, \"held_out\": {}, \
         \"widths\": {{\"ingest\": {w}, \"chase\": {part}, \"eval\": {part}, \"sweep\": {w}, \"certify\": {w}}}, \
         \"env\": {{\"CA_EVAL_THREADS\": {}, \"CA_PART_THREADS\": {}, \"CA_HOM_THREADS\": {}}}}}",
        args.workload,
        git_rev(),
        args.seed,
        !metrics::TUNING_SEEDS.contains(&args.seed),
        env("CA_EVAL_THREADS"),
        env("CA_PART_THREADS"),
        env("CA_HOM_THREADS"),
        w = workloads::WIDTH,
    )
}

fn report(args: &Args, run: &Run) {
    let name = &args.workload;
    let line = |m: &Metric, note: String| {
        println!("metric {name} {} = {} {}{note}", m.name, m.value, m.unit);
    };
    let fail_ratio = run.failed as f64 / run.attempted as f64;
    let metrics: Vec<Metric> = if args.trace {
        metrics::per_layer(
            &run.profiles,
            &run.counts,
            median(&run.untraced_s),
            median(&run.traced_s),
        )
    } else {
        let (q1, q3) = quartiles(&run.untraced_s);
        let e2e = metrics::end_to_end(
            median(&run.setup_s),
            median(&run.untraced_s),
            run.peak_rss_mb,
        );
        for m in &e2e {
            let note = match m.name {
                "setup_s" => format!(
                    "  (median of {} set-ups, each with one warm-up pass)",
                    run.setup_s.len()
                ),
                "pipeline_s" => format!(
                    "  (median of {} passes; quartiles {q1:.6} .. {q3:.6})",
                    run.untraced_s.len()
                ),
                _ => String::new(),
            };
            line(m, note);
        }
        println!(
            "metric {name} fail_ratio = {fail_ratio} ratio  ({} of {} passes failed)",
            run.failed, run.attempted
        );
        e2e
    };
    if args.trace {
        metrics.iter().for_each(|m| line(m, String::new()));
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{name}-seed{}.jsonl", args.seed));
        match run.tracer.write_jsonl(&path, &footer(args)) {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => eprintln!("pipebench: writing {}: {e}", path.display()),
        }
    }
    println!("footer {}", footer(args));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        metrics
            .iter()
            .map(|m| format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

/// Run every workload, each in its own process so that peak memory is
/// scoped to it, and collect the `metric` lines into one table.
fn run_all(args: &Args) -> i32 {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("pipebench: cannot locate own executable");
        return 1;
    };
    let mut table: Vec<String> = Vec::new();
    let mut status = 0;
    for name in workloads::NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        let Ok(mut child) = cmd.spawn() else {
            eprintln!("pipebench: cannot start {name}");
            return 1;
        };
        let mut correct = false;
        if let Some(out) = child.stdout.take() {
            for l in BufReader::new(out).lines().map_while(Result::ok) {
                println!("{l}");
                correct = l.starts_with("{\"correct\": true");
                if l.starts_with("metric ") {
                    table.push(l);
                }
            }
        }
        if !child.wait().is_ok_and(|s| s.success()) || !correct {
            status = 1;
        }
    }
    println!("--- all workloads, seed {} ---", args.seed);
    table.iter().for_each(|l| println!("{l}"));
    status
}

/// The least trace coverage the self-check accepts. Small passes last
/// milliseconds, so the glue between spans weighs more than at full
/// size, where coverage is above 0.99.
const SELF_CHECK_COVERAGE: f64 = 0.9;

/// Small sizes: every workload through its gate and its traced layers.
fn self_check() -> i32 {
    let mut problems: Vec<String> = Vec::new();
    for name in workloads::NAMES {
        let args = Args {
            workload: name.to_string(),
            seed: 1,
            seconds: 0.0,
            trace: true,
            small: true,
        };
        let run = match run(&args) {
            Ok(run) => run,
            Err(e) => {
                problems.push(format!("{name}: {e}"));
                continue;
            }
        };
        if run.failed > 0 || run.profiles.is_empty() {
            problems.push(format!(
                "{name}: {} of {} passes failed",
                run.failed, run.attempted
            ));
            continue;
        }
        let layer = metrics::per_layer(&run.profiles, &run.counts, 1.0, 1.0);
        for m in &layer {
            let applies = metrics::applies(name, m.name);
            if applies && m.value <= 0.0 {
                problems.push(format!("{name}: {} is {}, want > 0", m.name, m.value));
            }
        }
        let coverage = median(&run.profiles.iter().map(|p| p.coverage).collect::<Vec<_>>());
        if coverage < SELF_CHECK_COVERAGE {
            problems.push(format!(
                "{name}: trace coverage {coverage:.3} < {SELF_CHECK_COVERAGE}"
            ));
        }
        println!(
            "self-check {name}: {} passes, coverage {coverage:.3}",
            run.attempted
        );
    }
    // The gates must reject what they exist to reject.
    for name in workloads::NAMES {
        let w = workloads::prepare(name, 1, true).expect("known workload");
        let answers = match w.pass(&mut Tracer::new()) {
            Ok(out) => out.answers,
            Err(e) => {
                problems.push(format!("{name}: {e}"));
                continue;
            }
        };
        let mut short = answers.clone();
        short.pop_first();
        if w.gate(&short).is_ok() {
            problems.push(format!("{name}: gate accepted a table with a row missing"));
        }
        let mut long = answers;
        long.insert(vec![ca_core::value::Value::Const(-1); 2]);
        if w.gate(&long).is_ok() {
            problems.push(format!("{name}: gate accepted a table with an extra row"));
        }
    }
    if workloads::expect_size("canonical solution", 100_000, 100_001).is_ok() {
        problems.push("size check accepted a capped canonical solution".into());
    }
    if problems.is_empty() {
        println!("self-check ok");
        0
    } else {
        problems.iter().for_each(|p| eprintln!("self-check: {p}"));
        1
    }
}
