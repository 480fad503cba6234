//! `perfbench-trace` — the traced half of the srtw benchmark.
//!
//! It times benchmark inputs through each layer's public functions in
//! process, one span per call, and prints per-layer medians.
//!
//! ```text
//! perfbench-trace --spans OUT --deadline-ms N [multi6:FILE | deadline:FILE]...
//! ```
//!
//! * `multi6:FILE` — an exact system. It is traced through parse, canon,
//!   busy window, per-task rbf and path exploration, the structural
//!   analysis at one thread and at the CLI's default thread count, the RTC
//!   baseline, the served `fifo_report` and its rendering.
//! * `deadline:FILE` — a system that cannot finish exactly. It is traced
//!   through the same analyses under the wall-clock budget the service
//!   derives from `X-Deadline-Ms: N`.
//!
//! Every span (request id, name, parent span, start, end) is kept in
//! memory and written to `OUT` as JSON lines when the run ends. The last
//! line on stdout is one JSON object: the per-layer medians, `ok` and any
//! `errors` found while checking the layers against each other.

use srtw_core::textfmt::parse_system;
use srtw_core::{
    busy_window, fifo_rtc_with, fifo_structural, AnalysisConfig, Budget, BudgetKind, DelayAnalysis,
    Json,
};
use srtw_minplus::{Curve, Q};
use srtw_serve::fifo_report;
use srtw_workload::{explore, DrtTask, ExploreConfig, Rbf};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span; spans of one
/// input share `req`.
struct Span {
    req: usize,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u128 {
        self.origin.elapsed().as_nanos()
    }

    fn open(&mut self, req: usize, parent: Option<usize>, name: &'static str) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    fn time<T>(
        &mut self,
        req: usize,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(req, Some(parent), name);
        let out = black_box(f());
        self.close(span);
        out
    }

    /// Total time of the spans named `name`, per request whose root span
    /// is named `root`, in microseconds.
    fn per_request_us(&self, root: &str, name: &str) -> BTreeMap<usize, f64> {
        let reqs: Vec<usize> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| s.req)
            .collect();
        let mut out = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.name == name && reqs.contains(&s.req))
        {
            *out.entry(s.req).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1_000.0;
        }
        out
    }

    fn median_us(&self, root: &str, name: &str) -> f64 {
        median(self.per_request_us(root, name).into_values().collect())
    }

    /// Median over requests of the summed time of several layers.
    fn median_sum_us(&self, root: &str, names: &[&str]) -> f64 {
        let mut sums: BTreeMap<usize, f64> = BTreeMap::new();
        for name in names {
            for (req, us) in self.per_request_us(root, name) {
                *sums.entry(req).or_insert(0.0) += us;
            }
        }
        median(sums.into_values().collect())
    }

    fn write_spans(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::Int(p as i128));
            let line = Json::object(vec![
                ("id", Json::Int(id as i128)),
                ("req", Json::Int(s.req as i128)),
                ("name", Json::str(s.name)),
                ("parent", parent),
                ("start_ns", Json::Int(s.start_ns as i128)),
                ("end_ns", Json::Int(s.end_ns as i128)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Path counts of one exact analysis, summed over its streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathCounts {
    generated: usize,
    retained: usize,
    pruned: usize,
}

fn path_counts(per: &[DelayAnalysis]) -> PathCounts {
    PathCounts {
        generated: per.iter().map(|a| a.paths_generated).sum(),
        retained: per.iter().map(|a| a.paths_retained).sum(),
        pruned: per.iter().map(|a| a.paths_pruned).sum(),
    }
}

/// The bounds an analysis reports: per stream, every vertex bound and
/// the stream bound.
fn bounds(per: &[DelayAnalysis]) -> Vec<Vec<Q>> {
    per.iter()
        .map(|a| {
            let mut b: Vec<Q> = a.per_vertex.iter().map(|v| v.bound).collect();
            b.push(a.stream_bound);
            b
        })
        .collect()
}

fn parse(
    tr: &mut Tracer,
    req: usize,
    root: usize,
    text: &str,
) -> Result<(Vec<DrtTask>, Curve), String> {
    let sys = tr
        .time(req, root, "textfmt.parse", || parse_system(text))
        .map_err(|e| format!("parse: {e}"))?;
    tr.time(req, root, "canon.form", || {
        (sys.canonical_form().hash(), sys.presentation_digest())
    });
    let beta = sys
        .server
        .ok_or("the system declares no server")?
        .beta_lower()
        .map_err(|e| format!("server: {e}"))?;
    Ok((sys.tasks, beta))
}

fn trace_exact(
    tr: &mut Tracer,
    req: usize,
    text: &str,
    threads: usize,
) -> Result<(PathCounts, usize), String> {
    let root = tr.open(req, None, "request.multi6");
    let (tasks, beta) = parse(tr, req, root, text)?;
    let bw = tr
        .time(req, root, "busy.window", || busy_window(&tasks, &beta))
        .map_err(|e| format!("busy window: {e}"))?;
    for task in &tasks {
        tr.time(req, root, "rbf.compute", || Rbf::compute(task, bw.bound));
    }
    for task in &tasks {
        tr.time(req, root, "paths.explore", || {
            explore(task, &ExploreConfig::new(bw.bound))
        });
    }
    let sequential = AnalysisConfig::default();
    let parallel = AnalysisConfig {
        threads,
        ..Default::default()
    };
    let structural = tr
        .time(req, root, "analysis.structural", || {
            fifo_structural(&tasks, &beta, &sequential)
        })
        .map_err(|e| format!("structural: {e}"))?;
    let threaded = tr
        .time(req, root, "analysis.structural_threads", || {
            fifo_structural(&tasks, &beta, &parallel)
        })
        .map_err(|e| format!("structural at {threads} threads: {e}"))?;
    let rtc = tr
        .time(req, root, "analysis.rtc", || {
            fifo_rtc_with(&tasks, &beta, &Budget::UNLIMITED)
        })
        .map_err(|e| format!("rtc: {e}"))?;
    let report = tr
        .time(req, root, "report.fifo_report", || {
            fifo_report(&tasks, &beta, &sequential)
        })
        .map_err(|e| format!("fifo_report: {e}"))?;
    let body = tr.time(req, root, "report.render", || {
        format!("{}\n", report.to_json())
    });
    tr.close(root);

    if report.degraded() {
        return Err("an exact system came back degraded".into());
    }
    if bw.bound != rtc.busy_window {
        return Err(format!(
            "busy window {} != the RTC's {}",
            bw.bound, rtc.busy_window
        ));
    }
    if bounds(&structural) != bounds(&threaded) {
        return Err(format!("structural bounds differ at {threads} threads"));
    }
    if bounds(&structural) != bounds(&report.per) || rtc.bound != report.rtc.bound {
        return Err("fifo_report disagrees with the separate analyses".into());
    }
    Ok((path_counts(&report.per), body.len()))
}

fn trace_deadline(
    tr: &mut Tracer,
    req: usize,
    text: &str,
    deadline_ms: u64,
) -> Result<bool, String> {
    let root = tr.open(req, None, "request.deadline");
    let (tasks, beta) = parse(tr, req, root, text)?;
    // The budget the service builds from `X-Deadline-Ms`.
    let budget = Budget::default().with_wall_ms(deadline_ms);
    let cfg = AnalysisConfig {
        budget: budget.clone(),
        threads: 1,
        ..Default::default()
    };
    tr.time(req, root, "analysis.budgeted_structural", || {
        fifo_structural(&tasks, &beta, &cfg)
    })
    .map_err(|e| format!("budgeted structural: {e}"))?;
    tr.time(req, root, "analysis.budgeted_rtc", || {
        fifo_rtc_with(&tasks, &beta, &budget)
    })
    .map_err(|e| format!("budgeted rtc: {e}"))?;
    let report = tr
        .time(req, root, "report.budgeted_fifo_report", || {
            fifo_report(&tasks, &beta, &cfg)
        })
        .map_err(|e| format!("budgeted fifo_report: {e}"))?;
    tr.time(req, root, "report.budgeted_render", || {
        format!("{}\n", report.to_json())
    });
    tr.close(root);

    let by_wall_clock = report
        .per
        .iter()
        .flat_map(|a| &a.degradations)
        .any(|d| d.tripped == BudgetKind::WallClock);
    if !report.degraded() || !by_wall_clock {
        return Err(format!(
            "deadline system not degraded by the wall clock: {:?}",
            report.degradation_kinds()
        ));
    }
    Ok(report.per.iter().any(|a| a.stream_bound > report.rtc.bound))
}

struct Args {
    spans: String,
    deadline_ms: u64,
    multi6: Vec<String>,
    deadline: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spans: String::new(),
        deadline_ms: 0,
        multi6: Vec::new(),
        deadline: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spans" => args.spans = it.next().ok_or("--spans needs a path")?,
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms needs a value")?;
                args.deadline_ms = v
                    .parse()
                    .map_err(|e| format!("bad --deadline-ms '{v}': {e}"))?;
            }
            _ => match a.split_once(':') {
                Some(("multi6", path)) => args.multi6.push(path.to_string()),
                Some(("deadline", path)) => args.deadline.push(path.to_string()),
                _ => return Err(format!("unknown argument '{a}'")),
            },
        }
    }
    if args.spans.is_empty()
        || args.deadline_ms == 0
        || args.multi6.is_empty()
        || args.deadline.is_empty()
    {
        return Err(
            "usage: perfbench-trace --spans OUT --deadline-ms N multi6:FILE... deadline:FILE..."
                .into(),
        );
    }
    Ok(args)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &Args) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let multi6: Vec<String> = args
        .multi6
        .iter()
        .map(|p| read(p))
        .collect::<Result<_, _>>()?;
    let deadline: Vec<String> = args
        .deadline
        .iter()
        .map(|p| read(p))
        .collect::<Result<_, _>>()?;
    let mut errors = Vec::new();

    // One untraced pass over the first input of each family, so lazy
    // set-up and cold caches land outside the spans.
    let mut scratch = Tracer::new();
    let _ = trace_exact(&mut scratch, 0, &multi6[0], threads);
    let _ = trace_deadline(&mut scratch, 0, &deadline[0], args.deadline_ms);

    let mut tr = Tracer::new();
    let mut counts = Vec::new();
    let mut body_bytes = Vec::new();
    for (i, text) in multi6.iter().enumerate() {
        match trace_exact(&mut tr, i, text, threads) {
            Ok((c, bytes)) => {
                counts.push(c);
                body_bytes.push(bytes as f64);
            }
            Err(e) => errors.push(format!("{}: {e}", args.multi6[i])),
        }
    }
    // Time-scaled members do equal work: their path counts must agree.
    if counts.windows(2).any(|w| w[0] != w[1]) {
        errors.push(format!(
            "path counts differ across time-scaled members: {counts:?}"
        ));
    }
    let mut above = 0usize;
    for (i, text) in deadline.iter().enumerate() {
        match trace_deadline(&mut tr, multi6.len() + i, text, args.deadline_ms) {
            Ok(true) => above += 1,
            Ok(false) => {}
            Err(e) => errors.push(format!("{}: {e}", args.deadline[i])),
        }
    }
    tr.write_spans(&args.spans)
        .map_err(|e| format!("{}: {e}", args.spans))?;

    let c = counts.first().copied().unwrap_or(PathCounts {
        generated: 0,
        retained: 0,
        pruned: 0,
    });
    let (exact, budgeted) = ("request.multi6", "request.deadline");
    let us = |name: &str| tr.median_us(exact, name);
    let ms = |root: &str, name: &str| tr.median_us(root, name) / 1_000.0;
    let rtc_ceiling_ms = {
        let busy = tr.per_request_us(exact, "busy.window");
        median(
            tr.per_request_us(exact, "analysis.rtc")
                .iter()
                .filter_map(|(req, rtc)| busy.get(req).map(|b| (rtc - b) / 1_000.0))
                .collect(),
        )
    };
    let num = |x: f64| Json::Float(x);
    let doc = Json::object(vec![
        ("ok", Json::Bool(errors.is_empty())),
        (
            "errors",
            Json::Array(errors.iter().map(|e| Json::str(e)).collect()),
        ),
        ("threads", Json::Int(threads as i128)),
        ("textfmt.parse_us", num(us("textfmt.parse"))),
        ("canon.form_us", num(us("canon.form"))),
        ("busy.window_ms", num(ms(exact, "busy.window"))),
        ("rbf.compute_ms", num(ms(exact, "rbf.compute"))),
        ("paths.explore_ms", num(ms(exact, "paths.explore"))),
        ("paths.generated", Json::Int(c.generated as i128)),
        ("paths.retained", Json::Int(c.retained as i128)),
        (
            "paths.pruned_ratio",
            num(c.pruned as f64 / c.generated.max(1) as f64),
        ),
        (
            "analysis.structural_ms",
            num(ms(exact, "analysis.structural")),
        ),
        ("analysis.rtc_ms", num(ms(exact, "analysis.rtc"))),
        ("analysis.rtc_ceiling_ms", num(rtc_ceiling_ms)),
        (
            "analysis.structural_threads_ms",
            num(ms(exact, "analysis.structural_threads")),
        ),
        (
            "analysis.budgeted_structural_ms",
            num(ms(budgeted, "analysis.budgeted_structural")),
        ),
        (
            "analysis.budgeted_rtc_ms",
            num(ms(budgeted, "analysis.budgeted_rtc")),
        ),
        (
            "analysis.stream_above_rtc_ratio",
            num(above as f64 / deadline.len() as f64),
        ),
        (
            "report.fifo_report_ms",
            num(ms(exact, "report.fifo_report")),
        ),
        ("report.render_us", num(us("report.render"))),
        ("report.body_bytes", num(median(body_bytes))),
        // Layer time of one request along each served path, for the
        // caller's `serve.overhead_us`.
        (
            "path.cold_us",
            num(tr.median_sum_us(
                exact,
                &[
                    "textfmt.parse",
                    "canon.form",
                    "report.fifo_report",
                    "report.render",
                ],
            )),
        ),
        (
            "path.hit_us",
            num(tr.median_sum_us(exact, &["textfmt.parse", "canon.form"])),
        ),
        (
            "path.deadline_us",
            num(tr.median_sum_us(
                budgeted,
                &[
                    "textfmt.parse",
                    "canon.form",
                    "report.budgeted_fifo_report",
                    "report.budgeted_render",
                ],
            )),
        ),
    ]);
    println!("{doc}");
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            ExitCode::FAILURE
        }
    }
}
