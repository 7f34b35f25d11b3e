//! In-memory spans for the traced run.
//!
//! Every span is opened by the benchmark around a public library call;
//! nothing inside the library is instrumented. A pass is one root span
//! named `pass`; the layers are its children. Spans named `side:*` are
//! calls made beside the pipeline in traced passes only (a counting-only
//! enumeration, a plain chase next to the certified one, a certified
//! chase whose certificate counts the firings, the bare completion
//! sweep): they are left out of the pass's wall time and of coverage.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

fn is_side(name: &str) -> bool {
    name.starts_with("side:")
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
    }

    fn end(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Open the root span of pass `id`; spans are recorded only when
    /// `traced` is set, so an untraced pass pays one branch per span.
    pub fn start_pass(&mut self, id: u32, traced: bool) {
        self.on = traced;
        self.pass = id;
        if traced {
            self.begin("pass");
        }
    }

    /// Close the pass, including any span a panic left open.
    pub fn end_pass(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
        self.on = false;
    }

    /// Time `f` as a span named `name` under the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Total time of the side spans recorded in pass `id`.
    pub fn side_ns(&self, id: u32) -> u64 {
        self.spans
            .iter()
            .rev()
            .take_while(|s| s.pass == id)
            .filter(|s| is_side(s.name))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line after `header`.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"pass\": {}}}",
                s.name, s.start_ns, s.end_ns, s.pass
            )?;
        }
        out.flush()
    }
}

/// One traced pass, reduced: self time per layer and duration per side
/// call, in seconds.
pub struct PassProfile {
    pub layer_s: BTreeMap<&'static str, f64>,
    pub side_s: BTreeMap<&'static str, f64>,
    /// The pass's wall time without its side spans.
    pub wall_s: f64,
    /// Layer self time over `wall_s`.
    pub coverage: f64,
}

/// Reduce the spans of pass `id`. A span's self time is its duration
/// minus the durations of its direct children.
pub fn profile(spans: &[Span], id: u32) -> Option<PassProfile> {
    let first = spans
        .iter()
        .position(|s| s.pass == id && s.name == "pass")?;
    let last = spans[first..]
        .iter()
        .position(|s| s.pass != id)
        .map_or(spans.len(), |n| first + n);
    let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 * 1e-9;
    let mut child_s = vec![0.0; last - first];
    for s in &spans[first..last] {
        if let Some(p) = s.parent {
            child_s[p - first] += dur(s);
        }
    }
    let mut layer_s: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut side_s: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut pass_s = 0.0;
    for (i, s) in spans[first..last].iter().enumerate() {
        if s.name == "pass" {
            pass_s = dur(s);
        } else if is_side(s.name) {
            *side_s.entry(s.name).or_default() += dur(s);
        } else {
            *layer_s.entry(s.name).or_default() += dur(s) - child_s[i];
        }
    }
    let wall_s = pass_s - side_s.values().sum::<f64>();
    let covered: f64 = layer_s.values().sum();
    Some(PassProfile {
        layer_s,
        side_s,
        wall_s,
        coverage: if wall_s > 0.0 { covered / wall_s } else { 0.0 },
    })
}
