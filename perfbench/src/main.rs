//! The fxrz benchmark: one command, three workloads (`snapshot`,
//! `stream`, `serve`), a correctness gate, and a traced run that breaks
//! the end-to-end numbers down by layer. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload snapshot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every line but the last is a human-readable report; the last line is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod inputs;
mod serve;
mod snapshot;
mod stream;
mod util;

use fxrz_core::train::TrainedModel;
use std::time::{Duration, Instant};
use util::{median, Gate, Metric, Recorder};

/// Set-ups per untraced run; `setup_s` is their median. The stream
/// set-up is only datagen, a few tens of milliseconds, so it is timed
/// once here and again throughout the measured loop.
fn setup_reps(workload: &str) -> usize {
    if workload == "stream" {
        1
    } else {
        3
    }
}

const WORKLOADS: [&str; 3] = ["snapshot", "stream", "serve"];

/// End-to-end metrics printed in the report but left out of the result
/// line, whose metrics are exactly those `BENCHMARK.json` bounds:
/// `fail_pct` is 0 whenever the run is correct, and `ratio_err_pct` is
/// exact for a seed but spreads too widely across seeds to bound.
const REPORT_ONLY: [&str; 2] = ["fail_pct", "ratio_err_pct"];

/// Everything one workload section measured.
pub struct Outcome {
    pub gate: Gate,
    /// Per-operation latencies in ms.
    pub op_ms: Vec<f64>,
    /// The latency percentile reported as `op_tail_ms`.
    pub tail_q: f64,
    pub metrics: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Report-only lines (reference rates, sizes).
    pub info: Vec<Metric>,
    /// Extra set-up timings taken during the run.
    pub setup_s: Vec<f64>,
}

impl Outcome {
    pub fn new(gate: Gate, op_ms: Vec<f64>, tail_q: f64) -> Self {
        Self {
            gate,
            op_ms,
            tail_q,
            metrics: Vec::new(),
            layers: Vec::new(),
            info: Vec::new(),
            setup_s: Vec::new(),
        }
    }

    /// The end-to-end metrics every workload reports: write and read
    /// rates with their sample counts, per-output accuracy samples, and
    /// the time the operations took.
    pub fn e2e_common(
        &mut self,
        write: (f64, usize),
        read: (f64, usize),
        ratio_errs: &[f64],
        psnrs: &[f64],
        busy_secs: f64,
    ) {
        let n = self.op_ms.len();
        let m = &mut self.metrics;
        m.push(Metric::new("write_mibps", write.0, "MiB/s", write.1));
        m.push(Metric::new("read_mibps", read.0, "MiB/s", read.1));
        m.push(
            Metric::new(
                "ratio_err_pct",
                util::mean(ratio_errs),
                "%",
                ratio_errs.len(),
            )
            .note("mean |TCR-MCR|/TCR"),
        );
        m.push(
            Metric::new("psnr_db", util::mean(psnrs), "dB", psnrs.len())
                .note("mean over decoded outputs"),
        );
        m.push(Metric::new("op_p50_ms", median(&self.op_ms), "ms", n));
        let beyond = (n as f64 * (1.0 - self.tail_q)).floor();
        m.push(
            Metric::new(
                "op_tail_ms",
                util::quantile(&self.op_ms, self.tail_q),
                "ms",
                n,
            )
            .note(format!(
                "p{:.0}, {beyond} samples beyond it",
                self.tail_q * 100.0
            )),
        );
        m.push(Metric::new("ops_per_s", n as f64 / busy_secs, "1/s", n));
        let g = &self.gate;
        m.push(Metric::new(
            "fail_pct",
            g.failed as f64 / g.attempted.max(1) as f64 * 100.0,
            "%",
            g.attempted as usize,
        ));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Trains one model per (application, codec) for every application.
fn train_all(
    rec: &Recorder,
    apps: &[inputs::AppFields],
    codecs: &[&str],
) -> Result<Vec<Vec<TrainedModel>>, String> {
    apps.iter()
        .map(|a| {
            codecs
                .iter()
                .map(|c| inputs::train(rec, c, &a.train))
                .collect()
        })
        .collect()
}

/// Sum of every pool worker's busy nanoseconds so far.
pub fn pool_busy_ns() -> u64 {
    fxrz_telemetry::global()
        .snapshot()
        .histograms
        .iter()
        .filter(|h| h.name.starts_with("parallel.worker.") && h.name.ends_with(".busy_ns"))
        .map(|h| h.sum)
        .sum()
}

/// Builds a set-up `reps` times, timing each build, and keeps the last.
/// The earlier ones are dropped (daemons stopped) only after the last
/// build, outside every timed region.
fn timed_setups<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let (mut built, mut secs) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        let t0 = Instant::now();
        built.push(build()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    let last = built.pop().ok_or("no set-up")?;
    drop(built);
    Ok((last, secs))
}

/// The untraced run: repeated set-ups, then the measured loop.
fn run_e2e(args: &Args) -> Result<Outcome, String> {
    let off = Recorder::new(false);
    let budget = Duration::from_secs_f64(args.seconds);
    let reps = setup_reps(&args.workload);
    let (mut out, mut setup_s) = match args.workload.as_str() {
        "snapshot" => {
            let (setup, secs) = timed_setups(reps, || {
                let apps = inputs::fields(args.seed);
                let models = train_all(&off, &apps, &inputs::CODECS)?;
                snapshot::Setup::new(&apps, &models)
            })?;
            let out = snapshot::run(&setup, args.seed, budget, snapshot::MIN_PASSES, &off);
            (out, secs)
        }
        "stream" => {
            let (setup, secs) = timed_setups(reps, || Ok(stream::setup(args.seed)))?;
            (stream::run(&setup, args.seed, budget, 1, true, &off), secs)
        }
        _ => {
            let (mut setup, secs) = timed_setups(reps, || {
                let apps = inputs::fields(args.seed);
                let models = train_all(&off, &apps, &serve::CODECS)?;
                serve::Setup::start(args.seed, &apps, &models)
            })?;
            let out = serve::run(&setup, args.seed, budget, &off);
            setup.stop();
            (out, secs)
        }
    };
    setup_s.append(&mut out.setup_s);
    out.metrics.insert(
        0,
        Metric::new("setup_s", median(&setup_s), "s", setup_s.len())
            .note("median of the set-ups in this run"),
    );
    Ok(out)
}

/// The traced run: one shared set-up, then the named workload untraced
/// and traced (for the tracing overhead) and the other two traced, one
/// after another so the daemon's counters see only serve traffic.
fn run_traced(args: &Args) -> Result<(Outcome, Recorder), String> {
    let rec = Recorder::new(true);
    let apps = inputs::fields(args.seed);
    let models = train_all(&rec, &apps, &inputs::CODECS)?;
    let (train_ns, rows) = rec.total("core.train");
    let snap = snapshot::Setup::new(&apps, &models)?;
    let serve_cols: Vec<usize> = serve::CODECS
        .iter()
        .map(|c| {
            inputs::CODECS
                .iter()
                .position(|k| k == c)
                .expect("serve codec is a row")
        })
        .collect();
    let serve_models: Vec<Vec<TrainedModel>> = models
        .iter()
        .map(|row| serve_cols.iter().map(|&i| row[i].clone()).collect())
        .collect();
    let mut daemon = serve::Setup::start(args.seed, &apps, &serve_models)?;
    let strm = stream::setup(args.seed);
    drop(apps);

    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let section = |name: &str, budget: Duration, rec: &Recorder| match name {
        "snapshot" => snapshot::run(&snap, args.seed, budget, 1, rec),
        "stream" => stream::run(&strm, args.seed, budget, 1, false, rec),
        _ => serve::run(&daemon, args.seed, budget, rec),
    };
    let untraced = section(&args.workload, quarter, &Recorder::new(false));
    let mut total = Outcome::new(Gate::default(), Vec::new(), 0.5);
    let mut overhead = f64::NAN;
    for name in WORKLOADS {
        let budget = if name == args.workload {
            quarter * 2
        } else {
            quarter
        };
        let out = section(name, budget, &rec);
        if name == args.workload {
            let (a, b) = (median(&untraced.op_ms), median(&out.op_ms));
            overhead = (b - a) / a * 100.0;
        }
        total.gate.merge(out.gate);
        total.layers.extend(out.layers);
        total.info.extend(out.info);
    }
    daemon.stop();
    total.gate.merge(untraced.gate);
    total.layers.push(
        Metric::new("core.train_s", train_ns as f64 * 1e-9, "s", rows)
            .note("Trainer::train over every (application, codec) row"),
    );
    total.layers.push(
        Metric::new("telemetry.overhead_pct", overhead, "%", 2)
            .note(format!("{} op p50, traced against untraced", args.workload)),
    );
    Ok((total, rec))
}

/// Machine and build facts recorded with every result.
fn facts() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu_model()),
        ("pool_threads", fxrz_parallel::current_threads().to_string()),
        (
            "threads_note",
            "thread counts are facts of this machine, not scaling results".into(),
        ),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("commit", commit()),
        ("source_digest", source_digest()),
    ]
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports the highest extended leaf; the brand
    // string leaves 0x8000_0002..=4 are read only when it says they exist.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for w in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_owned()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// The checked-out commit when the directory is a git work tree.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h,
        Err(_) => return "none (not a git checkout)".into(),
    };
    match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| format!("{r} (packed)"), |s| s.trim().to_owned()),
        None => head.trim().to_owned(),
    }
}

/// FNV-1a over the path and bytes of every source and manifest file the
/// benchmark builds from, so results from a tree without git history
/// still name the code they measured.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.toml")];
    for dir in ["crates", "vendor", "perfbench/src"] {
        walk(std::path::Path::new(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("fnv64:{h:016x} over {} files", files.len())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values print as 0 and are flagged
/// in the report).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn metric_lines(kind: &str, metrics: &[Metric]) -> String {
    let mut s = String::new();
    for m in metrics {
        let flag = if m.value.is_finite() {
            ""
        } else {
            "  [not finite]"
        };
        s.push_str(&format!(
            "{kind:<6} {:<36} {:>14.6} {:<6} n={:<7} {}{flag}\n",
            m.name, m.value, m.unit, m.samples, m.note
        ));
    }
    s
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Writes the full report (facts, every metric with its sample count,
/// failures) and, for a traced run, every span.
fn write_out(args: &Args, report: &str, spans: Option<&Recorder>) {
    let dir = std::path::Path::new("perfbench/out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let result = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.txt")), report))
        .and_then(|()| match spans {
            Some(rec) => std::fs::write(dir.join(format!("{stem}.spans.jsonl")), rec.to_jsonl()),
            None => Ok(()),
        });
    if let Err(e) = result {
        eprintln!("perfbench: could not write {}: {e}", dir.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <snapshot|stream|serve> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let facts = facts();
    let result = if args.trace {
        run_traced(&args).map(|(o, r)| (o, Some(r)))
    } else {
        run_e2e(&args).map(|o| (o, None))
    };
    let (out, rec) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut report = format!(
        "perfbench workload={} seed={} seconds={} trace={}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &facts {
        report.push_str(&format!("fact   {k:<14} {v}\n"));
    }
    report.push_str(&metric_lines("e2e", &out.metrics));
    report.push_str(&metric_lines("layer", &out.layers));
    report.push_str(&metric_lines("info", &out.info));
    for msg in &out.gate.messages {
        report.push_str(&format!("FAIL   {msg}\n"));
    }
    let correct = out.gate.failed == 0 && out.gate.attempted > 0;
    report.push_str(&format!(
        "gate   attempted={} failed={} correct={correct}\n",
        out.gate.attempted, out.gate.failed
    ));
    write_out(&args, &report, rec.as_ref());
    print!("{report}");
    let reported: Vec<Metric> = if args.trace {
        out.layers
    } else {
        out.metrics
            .into_iter()
            .filter(|m| !REPORT_ONLY.contains(&m.name.as_str()))
            .collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.gate.attempted.max(1),
        out.gate.failed,
        metrics_json(&reported)
    );
    if !correct {
        std::process::exit(1);
    }
}
