//! `fxrz` — command-line fixed-ratio lossy compression.
//!
//! Works on raw little-endian `f32` dumps (the format SDRBench uses) with
//! out-of-band dimensions:
//!
//! ```text
//! fxrz gen        --app nyx --dims 64x64x64 --seed 7 --out snap.f32
//! fxrz train      --compressor sz --dims 64x64x64 --model model.json a.f32 b.f32 …
//! fxrz compress   --model model.json --ratio 30 --dims 64x64x64 --input x.f32 --output x.fxrz
//! fxrz decompress --input x.fxrz --output x.f32
//! fxrz search     --compressor sz --ratio 30 --dims 64x64x64 --input x.f32   (FRaZ baseline)
//! fxrz info       --input x.fxrz
//! fxrz stats      --input snap.fxrza
//! fxrz stream     compress --ratio 12 --frame 4096 --input x.f32 --output x.fxrzs
//! fxrz serve      --listen 127.0.0.1:7557 nyx=model.json
//! fxrz client     --connect 127.0.0.1:7557 ping
//! ```
//!
//! Every subcommand accepts `--metrics <text|json>` to dump the process
//! telemetry snapshot (span timings, codec byte counters, histograms) on
//! exit, and `--metrics-out FILE` to write it to a file instead of stderr.

use fxrz::archive::{Archive, ArchiveWriter};
use fxrz::compressors::{by_name, detect};
use fxrz::core::infer::FixedRatioCompressor;
use fxrz::core::train::{TrainedModel, Trainer};
use fxrz::datagen::{hurricane, nyx, qmcpack, rtm, Dims, Field};
use fxrz::fraz::FrazSearcher;
use std::collections::HashMap;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "usage:\n  fxrz gen --app <nyx|hurricane|rtm|qmcpack> --dims ZxYxX [--seed N] [--timestep N] --out FILE\n  fxrz train --compressor <sz|zfp|mgard|fpzip|szi|sz2|sz-fse> --dims ZxYxX --model FILE <f32-files…>\n  fxrz compress --model FILE --ratio R --dims ZxYxX --input FILE --output FILE\n  fxrz decompress --input FILE --output FILE\n  fxrz search --compressor NAME --ratio R --dims ZxYxX --input FILE [--iters N]\n  fxrz info --input FILE\n  fxrz pack --model FILE --ratio R --dims ZxYxX --output ARCHIVE <f32-files…>\n  fxrz ls --input ARCHIVE\n  fxrz unpack --input ARCHIVE --field NAME --output FILE\n  fxrz stats --input ARCHIVE\n  fxrz stream compress --ratio R [--frame N] [--window N] [--tolerance F]\n              [--models a.json,b.json] [--input FILE|-] --output FILE\n  fxrz stream decompress --input FILE --output FILE\n  fxrz stream inspect --input FILE\n  fxrz serve [--listen HOST:PORT] [--socket PATH] [--queue N] [--deadline-ms N]\n             [--drain-ms N] [--max-frame BYTES] [--audit-log FILE]\n             [--trace-seed N] [--cr-tolerance F] [id=]model.json …\n  fxrz top (--connect HOST:PORT | --socket PATH) [--interval-ms N] [--once]\n  fxrz client (--connect HOST:PORT | --socket PATH) [--deadline-ms N] <action>\n      actions: ping | stats\n               features   --dims ZxYxX --input FILE\n               predict    --model REF --ratio R --dims ZxYxX --input FILE\n               compress   --model REF --ratio R --dims ZxYxX --input FILE --output FILE\n               decompress --input FILE --output FILE\n               decompress-range --input FILE --start N --end N --output FILE\n               stream     --ratio R [--frame N] [--window N] [--models id1,id2]\n                          [--input FILE|-] --output FILE\n               load-model --id NAME [--version N] --model FILE\nglobal flags:\n  --metrics <text|json>   dump the telemetry snapshot on exit\n  --metrics-out FILE      write the snapshot to FILE instead of stderr\n  --threads N             worker-pool size for parallel kernels, and how many\n                          requests `fxrz serve` runs at once\n                          (default: FXRZ_THREADS env, then all cores)"
    );
    ExitCode::FAILURE
}

/// Splits args into (positional, flags).
fn parse_args(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut pos = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if i + 1 < args.len() {
                flags.insert(name.to_owned(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(name.to_owned(), String::new());
                i += 1;
            }
        } else {
            pos.push(args[i].clone());
            i += 1;
        }
    }
    (pos, flags)
}

fn parse_dims(s: &str) -> Option<Dims> {
    let parts: Result<Vec<usize>, _> = s.split('x').map(str::parse).collect();
    let parts = parts.ok()?;
    if parts.is_empty() || parts.len() > 4 || parts.contains(&0) {
        return None;
    }
    Some(Dims::new(&parts))
}

fn read_field(path: &str, dims: Dims) -> Result<Field, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.len() != dims.len() * 4 {
        return Err(format!(
            "{path}: {} bytes but dims {dims} need {}",
            bytes.len(),
            dims.len() * 4
        ));
    }
    let data: Vec<f32> = bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4")))
        .collect();
    Ok(Field::new(path.to_owned(), dims, data))
}

/// Opens the streaming-input source: a file path, or stdin for `-` /
/// no `--input` flag.
fn open_stream_input(flags: &HashMap<String, String>) -> Result<Box<dyn std::io::Read>, String> {
    match flags.get("input").map(String::as_str) {
        None | Some("-") => Ok(Box::new(std::io::stdin())),
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
            Ok(Box::new(std::io::BufReader::new(file)))
        }
    }
}

/// Reads up to `samples` little-endian `f32`s into `buf` (cleared
/// first). Returns the number of samples read; `0` means clean EOF.
/// Input ending mid-sample is an error.
fn read_stream_chunk(
    reader: &mut dyn std::io::Read,
    samples: usize,
    buf: &mut Vec<f32>,
) -> Result<usize, String> {
    let mut raw = vec![0u8; samples * 4];
    let mut filled = 0;
    while filled < raw.len() {
        match reader.read(&mut raw[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.to_string()),
        }
    }
    if filled % 4 != 0 {
        return Err("input truncated mid-sample (length not a multiple of 4)".into());
    }
    buf.clear();
    buf.extend(
        raw[..filled]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4"))),
    );
    Ok(filled / 4)
}

fn write_field(path: &str, field: &Field) -> Result<(), String> {
    let mut out = Vec::with_capacity(field.nbytes());
    for v in field.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

/// Emits the process telemetry snapshot as requested by `--metrics` /
/// `--metrics-out` (no-op when the flag is absent).
fn emit_metrics(flags: &HashMap<String, String>) -> Result<(), String> {
    let Some(format) = flags.get("metrics") else {
        return Ok(());
    };
    let snapshot = fxrz::telemetry::global().snapshot();
    let rendered = match format.as_str() {
        "json" => snapshot.to_json(),
        "text" | "" => snapshot.to_string(),
        other => return Err(format!("bad --metrics format `{other}` (text|json)")),
    };
    match flags.get("metrics-out") {
        Some(path) => std::fs::write(path, rendered.as_bytes()).map_err(|e| format!("{path}: {e}")),
        None => {
            eprint!("{rendered}");
            if !rendered.ends_with('\n') {
                eprintln!();
            }
            Ok(())
        }
    }
}

/// Connects a serve client from `--socket PATH` or `--connect HOST:PORT`.
fn connect_client(flags: &HashMap<String, String>) -> Result<fxrz::serve::Client, String> {
    match flags.get("socket") {
        Some(path) => {
            #[cfg(unix)]
            {
                fxrz::serve::Client::connect_unix(std::path::Path::new(path))
                    .map_err(|e| e.to_string())
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Err("--socket needs a unix platform".into())
            }
        }
        None => {
            let addr = flags
                .get("connect")
                .cloned()
                .ok_or("missing --connect or --socket")?;
            fxrz::serve::Client::connect_tcp(&addr).map_err(|e| e.to_string())
        }
    }
}

/// Field lookup in a parsed JSON object (the vendored `Value` keeps
/// objects as ordered key/value slices).
fn jget<'a>(v: &'a serde_json::Value, key: &str) -> Option<&'a serde_json::Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn jf64(v: &serde_json::Value, key: &str) -> f64 {
    jget(v, key)
        .and_then(serde_json::Value::as_f64)
        .unwrap_or(0.0)
}

/// `fxrz top`: poll a daemon's `Stats` op and render a live per-op
/// QPS / latency / shed-rate / accuracy table. `--once` prints a single
/// snapshot (no screen clearing, no rates) and exits — the
/// machine-checkable mode the smoke test uses.
fn run_top(flags: &HashMap<String, String>) -> Result<(), String> {
    let mut client = connect_client(flags)?;
    let interval_ms: u64 = flags
        .get("interval-ms")
        .map_or(Ok(1000), |s| s.parse())
        .map_err(|_| "bad --interval-ms")?;
    let once = flags.contains_key("once");
    // (uptime_ms, per-op counts, admitted, shed) from the previous poll;
    // rates come from server-side deltas so no local clock is involved.
    let mut prev: Option<(f64, HashMap<String, f64>, f64, f64)> = None;
    loop {
        let json = client.stats().map_err(|e| e.to_string())?;
        let stats = serde_json::parse_value(&json).map_err(|e| e.to_string())?;
        let uptime_ms = jf64(&stats, "uptime_ms");
        let sched = jget(&stats, "scheduler");
        let (admitted, shed, queued, inflight, executors) =
            sched.map_or((0.0, 0.0, 0.0, 0.0, 0.0), |s| {
                (
                    jf64(s, "admitted"),
                    jf64(s, "shed"),
                    jf64(s, "queue_depth"),
                    jf64(s, "inflight"),
                    jf64(s, "executors"),
                )
            });
        let mut counts: HashMap<String, f64> = HashMap::new();
        let mut rows = Vec::new();
        if let Some(ops) = jget(&stats, "ops").and_then(serde_json::Value::as_array) {
            for op in ops {
                let name = jget(op, "op")
                    .and_then(serde_json::Value::as_str)
                    .unwrap_or("?")
                    .to_owned();
                let count = jf64(op, "count");
                let qps = prev.as_ref().map_or(f64::NAN, |(t0, c0, _, _)| {
                    let dt = (uptime_ms - t0) / 1e3;
                    let dc = count - c0.get(&name).copied().unwrap_or(0.0);
                    // dt <= 0 is the first poll after a daemon restart
                    // (uptime went backward) or a duplicate sample; dc < 0
                    // means the counters reset under us. Either way there
                    // is no meaningful rate this round — render a dash
                    // rather than a division artifact.
                    if dt > 0.0 && dc >= 0.0 {
                        dc / dt
                    } else {
                        f64::NAN
                    }
                });
                rows.push(format!(
                    "  {:<12} {:>10} {:>8} {:>10.2} {:>10.2} {:>10.2}",
                    name,
                    count as u64,
                    if qps.is_finite() {
                        format!("{qps:.1}")
                    } else {
                        "—".to_owned()
                    },
                    jf64(op, "p50_ns") / 1e6,
                    jf64(op, "p99_ns") / 1e6,
                    jf64(op, "max_ns") / 1e6,
                ));
                counts.insert(name, count);
            }
        }
        let shed_rate = prev.as_ref().map_or_else(
            || {
                if admitted + shed > 0.0 {
                    shed / (admitted + shed)
                } else {
                    0.0
                }
            },
            |(_, _, a0, s0)| {
                let da = admitted - a0;
                let ds = shed - s0;
                if da >= 0.0 && ds >= 0.0 && da + ds > 0.0 {
                    ds / (da + ds)
                } else if admitted + shed > 0.0 {
                    // Counters went backward (daemon restart mid-watch):
                    // the interval rate is meaningless, fall back to the
                    // new daemon's lifetime ratio.
                    shed / (admitted + shed)
                } else {
                    0.0
                }
            },
        );
        if !once {
            // Clear screen + home, terminal-top style.
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "fxrz top — uptime {:.1}s  running {}/{}  queued {}  shed_rate {:.1}%  (shed {} / admitted {})",
            uptime_ms / 1e3,
            (inflight - queued).max(0.0) as u64,
            executors as u64,
            queued as u64,
            shed_rate * 100.0,
            shed as u64,
            admitted as u64,
        );
        println!(
            "  {:<12} {:>10} {:>8} {:>10} {:>10} {:>10}",
            "op", "count", "qps", "p50_ms", "p99_ms", "max_ms"
        );
        for row in &rows {
            println!("{row}");
        }
        if let Some(acc) = jget(&stats, "accuracy").and_then(serde_json::Value::as_array) {
            if !acc.is_empty() {
                println!(
                    "  {:<16} {:>10} {:>14} {:>14} {:>14}",
                    "model", "requests", "in_tolerance", "mean_rel_err", "mean_exec_ms"
                );
                for m in acc {
                    let requests = jf64(m, "requests");
                    let in_tol = jf64(m, "in_tolerance");
                    println!(
                        "  {:<16} {:>10} {:>13.1}% {:>14.4} {:>14.3}",
                        jget(m, "model")
                            .and_then(serde_json::Value::as_str)
                            .unwrap_or("?"),
                        requests as u64,
                        if requests > 0.0 {
                            in_tol / requests * 100.0
                        } else {
                            100.0
                        },
                        jf64(m, "mean_rel_err"),
                        jf64(m, "mean_exec_ns") / 1e6,
                    );
                }
            }
        }
        if once {
            return Ok(());
        }
        prev = Some((uptime_ms, counts, admitted, shed));
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return Err("missing subcommand".into());
    };
    let (pos, flags) = parse_args(&args[1..]);
    let flag = |k: &str| -> Result<String, String> {
        flags.get(k).cloned().ok_or(format!("missing --{k}"))
    };

    // Worker-pool sizing must happen before any parallel kernel runs
    // (the pool is created lazily on first use and then fixed for the
    // process). `--threads` beats the FXRZ_THREADS environment variable.
    if let Some(t) = flags.get("threads") {
        let n: usize = t
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or("bad --threads (want a positive integer)")?;
        fxrz::parallel::configure_threads(n);
    }

    // The command body runs inside a closure so that early `?` returns
    // still fall through to the metrics emission below.
    let run_cmd = || -> Result<(), String> {
        match cmd.as_str() {
            "gen" => {
                let dims = parse_dims(&flag("dims")?).ok_or("bad --dims (e.g. 64x64x64)")?;
                let seed: u64 = flags
                    .get("seed")
                    .map_or(Ok(7), |s| s.parse())
                    .map_err(|_| "bad --seed")?;
                let t: u32 = flags
                    .get("timestep")
                    .map_or(Ok(0), |s| s.parse())
                    .map_err(|_| "bad --timestep")?;
                let app = flag("app")?;
                let field = match app.as_str() {
                    "nyx" => nyx::baryon_density(
                        dims,
                        nyx::NyxConfig::default().with_seed(seed).with_timestep(t),
                    ),
                    "hurricane" => hurricane::tc(
                        dims,
                        hurricane::HurricaneConfig::default()
                            .with_seed(seed)
                            .with_timestep(t.max(1)),
                    ),
                    "rtm" => {
                        let mut sim =
                            rtm::RtmSimulator::new(dims, rtm::RtmConfig::default().with_seed(seed));
                        sim.run_to(t.max(30));
                        sim.snapshot()
                    }
                    "qmcpack" => {
                        qmcpack::orbitals(dims, qmcpack::QmcPackConfig::default().with_seed(seed))
                    }
                    other => return Err(format!("unknown --app {other}")),
                };
                write_field(&flag("out")?, &field)?;
                let s = field.stats();
                println!(
                    "wrote {} ({dims}, range {:.4e}, mean {:.4e})",
                    flag("out")?,
                    s.range,
                    s.mean
                );
                Ok(())
            }
            "train" => {
                let dims = parse_dims(&flag("dims")?).ok_or("bad --dims")?;
                let comp = by_name(&flag("compressor")?).ok_or("unknown --compressor")?;
                if pos.is_empty() {
                    return Err("no training files given".into());
                }
                let fields: Result<Vec<Field>, String> =
                    pos.iter().map(|p| read_field(p, dims)).collect();
                let fields = fields?;
                let model = Trainer::new()
                    .train(comp.as_ref(), &fields)
                    .map_err(|e| e.to_string())?;
                println!(
                    "trained {} on {} fields in {:.2}s; valid CR range {:.1}..{:.1}",
                    comp.name(),
                    fields.len(),
                    model.timings.total().as_secs_f64(),
                    model.valid_ratio_range.0,
                    model.valid_ratio_range.1
                );
                let json = serde_json::to_string(&model).map_err(|e| e.to_string())?;
                std::fs::write(flag("model")?, json).map_err(|e| e.to_string())?;
                Ok(())
            }
            "compress" => {
                let dims = parse_dims(&flag("dims")?).ok_or("bad --dims")?;
                let ratio: f64 = flag("ratio")?.parse().map_err(|_| "bad --ratio")?;
                let json = std::fs::read_to_string(flag("model")?).map_err(|e| e.to_string())?;
                let model: TrainedModel = serde_json::from_str(&json).map_err(|e| e.to_string())?;
                let comp = by_name(&model.compressor).ok_or("model names unknown compressor")?;
                let frc = FixedRatioCompressor::new(model, comp).map_err(|e| e.to_string())?;
                let field = read_field(&flag("input")?, dims)?;
                let out = frc.compress(&field, ratio).map_err(|e| e.to_string())?;
                std::fs::write(flag("output")?, &out.bytes).map_err(|e| e.to_string())?;
                println!(
                "target CR {ratio}: measured {:.2} (error {:.1}%), config {}, analysis {:.2} ms",
                out.measured_ratio,
                out.estimation_error(ratio) * 100.0,
                out.estimate.config,
                out.estimate.analysis_time.as_secs_f64() * 1e3
            );
                Ok(())
            }
            "decompress" => {
                let bytes = std::fs::read(flag("input")?).map_err(|e| e.to_string())?;
                let comp = detect(&bytes).ok_or("unrecognized stream magic")?;
                let field = comp.decompress(&bytes).map_err(|e| e.to_string())?;
                write_field(&flag("output")?, &field)?;
                println!(
                    "decompressed {} ({}) with {}",
                    field.name(),
                    field.dims(),
                    comp.name()
                );
                Ok(())
            }
            "search" => {
                let dims = parse_dims(&flag("dims")?).ok_or("bad --dims")?;
                let ratio: f64 = flag("ratio")?.parse().map_err(|_| "bad --ratio")?;
                let iters: usize = flags
                    .get("iters")
                    .map_or(Ok(15), |s| s.parse())
                    .map_err(|_| "bad --iters")?;
                let comp = by_name(&flag("compressor")?).ok_or("unknown --compressor")?;
                let field = read_field(&flag("input")?, dims)?;
                let res = FrazSearcher::with_total_iters(iters)
                    .search(comp.as_ref(), &field, ratio)
                    .map_err(|e| e.to_string())?;
                println!(
                "FRaZ-{iters}: config {}, measured CR {:.2} (error {:.1}%), {} compressor runs in {:.2}s",
                res.config,
                res.measured_ratio,
                res.estimation_error(ratio) * 100.0,
                res.compressor_runs,
                res.search_time.as_secs_f64()
            );
                Ok(())
            }
            "info" => {
                let bytes = std::fs::read(flag("input")?).map_err(|e| e.to_string())?;
                let comp = detect(&bytes).ok_or("unrecognized stream magic")?;
                let field = comp.decompress(&bytes).map_err(|e| e.to_string())?;
                let s = field.stats();
                println!("compressor : {}", comp.name());
                println!("field      : {}", field.name());
                println!("dims       : {}", field.dims());
                println!(
                    "ratio      : {:.2}",
                    field.nbytes() as f64 / bytes.len() as f64
                );
                println!("range/mean : {:.4e} / {:.4e}", s.range, s.mean);
                Ok(())
            }
            "pack" => {
                let dims = parse_dims(&flag("dims")?).ok_or("bad --dims")?;
                let ratio: f64 = flag("ratio")?.parse().map_err(|_| "bad --ratio")?;
                let json = std::fs::read_to_string(flag("model")?).map_err(|e| e.to_string())?;
                let model: TrainedModel = serde_json::from_str(&json).map_err(|e| e.to_string())?;
                let comp = by_name(&model.compressor).ok_or("model names unknown compressor")?;
                let frc = FixedRatioCompressor::new(model, comp).map_err(|e| e.to_string())?;
                if pos.is_empty() {
                    return Err("no input files given".into());
                }
                let mut writer = ArchiveWriter::new();
                for path in &pos {
                    let field = read_field(path, dims)?;
                    let mcr = writer
                        .add_fixed_ratio(&frc, &field, ratio)
                        .map_err(|e| e.to_string())?;
                    println!("packed {path} at CR {mcr:.2} (target {ratio})");
                }
                let bytes = writer.finish();
                std::fs::write(flag("output")?, &bytes).map_err(|e| e.to_string())?;
                println!("archive: {} fields, {} bytes", pos.len(), bytes.len());
                Ok(())
            }
            "ls" => {
                let bytes = std::fs::read(flag("input")?).map_err(|e| e.to_string())?;
                let archive = Archive::open(&bytes).map_err(|e| e.to_string())?;
                println!("{:<40} {:>12} {:>8}", "field", "compressed", "codec");
                for e in archive.entries() {
                    let codec = archive.compressor_of(&e.name).unwrap_or("?");
                    println!("{:<40} {:>12} {:>8}", e.name, e.compressed_len, codec);
                }
                Ok(())
            }
            "unpack" => {
                let bytes = std::fs::read(flag("input")?).map_err(|e| e.to_string())?;
                let archive = Archive::open(&bytes).map_err(|e| e.to_string())?;
                let field = archive.get(&flag("field")?).map_err(|e| e.to_string())?;
                write_field(&flag("output")?, &field)?;
                println!("unpacked {} ({})", field.name(), field.dims());
                Ok(())
            }
            "stats" => {
                let bytes = std::fs::read(flag("input")?).map_err(|e| e.to_string())?;
                let archive = Archive::open(&bytes).map_err(|e| e.to_string())?;
                println!(
                    "{:<32} {:>8} {:>12} {:>12} {:>8} {:>12} {:>12}",
                    "field", "codec", "compressed", "raw", "ratio", "min", "max"
                );
                let mut total_raw = 0u64;
                let mut total_compressed = 0u64;
                for e in archive.entries() {
                    total_compressed += e.compressed_len as u64;
                    match archive.get(&e.name) {
                        Ok(field) => {
                            let codec = archive.compressor_of(&e.name).unwrap_or("?");
                            let s = field.stats();
                            total_raw += field.nbytes() as u64;
                            println!(
                                "{:<32} {:>8} {:>12} {:>12} {:>8.2} {:>12.4e} {:>12.4e}",
                                e.name,
                                codec,
                                e.compressed_len,
                                field.nbytes(),
                                field.nbytes() as f64 / e.compressed_len.max(1) as f64,
                                s.min,
                                s.max
                            );
                        }
                        Err(err) => {
                            println!(
                                "{:<32} {:>8} {:>12} {:>12} {:>8} (unreadable: {err})",
                                e.name, "?", e.compressed_len, "-", "-"
                            );
                        }
                    }
                }
                println!(
                    "total: {} fields, {} -> {} bytes (ratio {:.2})",
                    archive.len(),
                    total_raw,
                    total_compressed,
                    total_raw as f64 / total_compressed.max(1) as f64
                );
                Ok(())
            }
            "stream" => {
                let action = pos
                    .first()
                    .cloned()
                    .ok_or("missing stream action (compress|decompress|inspect)")?;
                match action.as_str() {
                    "compress" => {
                        let ratio: f64 = flag("ratio")?.parse().map_err(|_| "bad --ratio")?;
                        let frame: usize = flags
                            .get("frame")
                            .map_or(Ok(4096), |s| s.parse())
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or("bad --frame (want a positive sample count)")?;
                        let mut config = fxrz::stream::StreamConfig::new(ratio);
                        if let Some(w) = flags.get("window") {
                            config.window = w
                                .parse()
                                .ok()
                                .filter(|&w| w > 0)
                                .ok_or("bad --window (want a positive frame count)")?;
                        }
                        if let Some(t) = flags.get("tolerance") {
                            config.frame_tolerance = t.parse().map_err(|_| "bad --tolerance")?;
                        }
                        let mut encoder = match flags.get("models") {
                            Some(list) => {
                                let mut models = Vec::new();
                                for path in list.split(',').filter(|s| !s.is_empty()) {
                                    let json = std::fs::read_to_string(path)
                                        .map_err(|e| format!("{path}: {e}"))?;
                                    let model: TrainedModel = serde_json::from_str(&json)
                                        .map_err(|e| format!("{path}: {e}"))?;
                                    models.push(model);
                                }
                                fxrz::stream::StreamEncoder::with_models(config, models)
                            }
                            None => fxrz::stream::StreamEncoder::new(config),
                        }
                        .map_err(|e| e.to_string())?;
                        let mut reader = open_stream_input(&flags)?;
                        let out_path = flag("output")?;
                        let mut out = std::io::BufWriter::new(
                            std::fs::File::create(&out_path)
                                .map_err(|e| format!("{out_path}: {e}"))?,
                        );
                        use std::io::Write as _;
                        out.write_all(&encoder.header())
                            .map_err(|e| format!("{out_path}: {e}"))?;
                        let mut buf = Vec::with_capacity(frame);
                        loop {
                            let n = read_stream_chunk(reader.as_mut(), frame, &mut buf)?;
                            if n == 0 {
                                break;
                            }
                            let outcome = encoder.push(&buf).map_err(|e| e.to_string())?;
                            out.write_all(&outcome.bytes)
                                .map_err(|e| format!("{out_path}: {e}"))?;
                        }
                        out.write_all(&encoder.finish())
                            .map_err(|e| format!("{out_path}: {e}"))?;
                        out.flush().map_err(|e| format!("{out_path}: {e}"))?;
                        let s = encoder.summary();
                        println!(
                            "streamed {} frames ({} samples): {} -> {} bytes, cumulative CR {:.2} (target {:.2}, {:+.1}%), {} retries",
                            s.frames,
                            s.samples,
                            s.raw_bytes,
                            s.comp_bytes,
                            s.cumulative_ratio,
                            s.target_ratio,
                            (s.cumulative_ratio / s.target_ratio - 1.0) * 100.0,
                            s.retries
                        );
                        for (codec, frames) in &s.codecs {
                            if *frames > 0 {
                                println!("  codec {codec:<8} {frames} frames");
                            }
                        }
                        Ok(())
                    }
                    "decompress" => {
                        let bytes = std::fs::read(flag("input")?).map_err(|e| e.to_string())?;
                        let decoded = fxrz::stream::StreamDecoder::decode(&bytes)
                            .map_err(|e| e.to_string())?;
                        let out_path = flag("output")?;
                        let mut raw = Vec::with_capacity(decoded.samples.len() * 4);
                        for v in &decoded.samples {
                            raw.extend_from_slice(&v.to_le_bytes());
                        }
                        std::fs::write(&out_path, raw).map_err(|e| format!("{out_path}: {e}"))?;
                        println!(
                            "decoded {} frames ({} samples) at target CR {:.2}",
                            decoded.trailer.frames,
                            decoded.trailer.samples,
                            decoded.header.target_ratio
                        );
                        Ok(())
                    }
                    "inspect" => {
                        let bytes = std::fs::read(flag("input")?).map_err(|e| e.to_string())?;
                        let scan = fxrz::stream::StreamDecoder::inspect(&bytes)
                            .map_err(|e| e.to_string())?;
                        println!(
                            "FXRZS1: target CR {:.2}, controller window {}",
                            scan.header.target_ratio, scan.header.window
                        );
                        println!(
                            "{:>6} {:>8} {:>10} {:>12} {:>10}",
                            "frame", "codec", "samples", "eb", "payload"
                        );
                        for f in &scan.frames {
                            println!(
                                "{:>6} {:>8} {:>10} {:>12.4e} {:>10}",
                                f.index,
                                fxrz::stream::frame::codec_name(f.codec).unwrap_or("?"),
                                f.samples,
                                f.eb,
                                f.payload_len
                            );
                        }
                        println!(
                            "trailer: {} frames, {} samples, {} stream bytes",
                            scan.trailer.frames,
                            scan.trailer.samples,
                            bytes.len()
                        );
                        Ok(())
                    }
                    other => Err(format!("unknown stream action {other}")),
                }
            }
            "serve" => {
                fxrz::serve::signal::install();
                let mut config = fxrz::serve::ServerConfig::default();
                if let Some(q) = flags.get("queue") {
                    config.scheduler.queue_bound = q.parse().map_err(|_| "bad --queue")?;
                }
                if let Some(d) = flags.get("deadline-ms") {
                    let ms: u64 = d.parse().map_err(|_| "bad --deadline-ms")?;
                    config.scheduler.default_deadline = std::time::Duration::from_millis(ms);
                }
                if let Some(d) = flags.get("drain-ms") {
                    let ms: u64 = d.parse().map_err(|_| "bad --drain-ms")?;
                    config.drain_timeout = std::time::Duration::from_millis(ms);
                }
                if let Some(m) = flags.get("max-frame") {
                    config.max_frame = m.parse().map_err(|_| "bad --max-frame")?;
                }
                if let Some(s) = flags.get("trace-seed") {
                    config.trace_seed = s.parse().map_err(|_| "bad --trace-seed")?;
                }
                if let Some(t) = flags.get("cr-tolerance") {
                    config.cr_tolerance = t.parse().map_err(|_| "bad --cr-tolerance")?;
                }
                let server = fxrz::serve::Server::new(config);
                if let Some(path) = flags.get("audit-log") {
                    server
                        .set_audit_log(std::path::Path::new(path))
                        .map_err(|e| e.to_string())?;
                    println!("audit log: {path}");
                }
                // Positional args preload the registry: `id=model.json`, or
                // a bare path whose file stem becomes the id.
                for spec in &pos {
                    let (id, path) = match spec.split_once('=') {
                        Some((id, path)) if !id.is_empty() => (id.to_owned(), path),
                        _ => {
                            let stem = std::path::Path::new(spec)
                                .file_stem()
                                .and_then(|s| s.to_str())
                                .unwrap_or("model")
                                .to_owned();
                            (stem, spec.as_str())
                        }
                    };
                    let v = server
                        .registry()
                        .load_file(&id, 0, std::path::Path::new(path))
                        .map_err(|e| e.to_string())?;
                    println!("loaded {path} as {id}@{v}");
                }
                let mut handles = Vec::new();
                if let Some(path) = flags.get("socket") {
                    #[cfg(unix)]
                    {
                        let h = server
                            .serve_unix(std::path::Path::new(path))
                            .map_err(|e| e.to_string())?;
                        println!("listening on unix:{path}");
                        handles.push(h);
                    }
                    #[cfg(not(unix))]
                    {
                        let _ = path;
                        return Err("--socket needs a unix platform".into());
                    }
                }
                if flags.contains_key("listen") || handles.is_empty() {
                    let addr = flags
                        .get("listen")
                        .cloned()
                        .unwrap_or_else(|| "127.0.0.1:7557".to_owned());
                    let h = server.serve_tcp(&addr).map_err(|e| e.to_string())?;
                    let bound = h.local_addr().ok_or("listener has no local address")?;
                    // Scripts parse this line to discover an ephemeral port.
                    println!("listening on {bound}");
                    handles.push(h);
                }
                use std::io::Write as _;
                std::io::stdout().flush().ok();
                for h in handles {
                    let report = h.join();
                    eprintln!(
                        "shutdown: drained={} connections_at_stop={} drain_ms={:.1}",
                        report.drained,
                        report.connections_at_stop,
                        report.drain_time.as_secs_f64() * 1e3
                    );
                }
                // The final telemetry snapshots always land on stderr so a
                // SIGTERM'd daemon leaves its request counters behind even
                // without `--metrics`: the daemon's own `serve.*` series,
                // then the process's spans and codec series.
                for snapshot in [
                    server.metrics().snapshot(),
                    fxrz::telemetry::global().snapshot(),
                ] {
                    let rendered = snapshot.to_string();
                    eprint!("{rendered}");
                    if !rendered.ends_with('\n') {
                        eprintln!();
                    }
                }
                // Flight-recorder tail: the last spans/events before the
                // drain, each tagged with its request trace id.
                let recorder = fxrz::telemetry::flight_recorder();
                let records = recorder.dump();
                if !records.is_empty() {
                    let tail = records.len().saturating_sub(64);
                    eprintln!(
                        "flight recorder ({} recorded, {} overwritten, showing last {}):",
                        recorder.recorded(),
                        recorder.overwritten(),
                        records.len() - tail
                    );
                    eprint!("{}", fxrz::telemetry::render_records(&records[tail..]));
                }
                Ok(())
            }
            "top" => run_top(&flags),
            "client" => {
                let mut client = connect_client(&flags)?;
                if let Some(d) = flags.get("deadline-ms") {
                    client.deadline_ms = d.parse().map_err(|_| "bad --deadline-ms")?;
                }
                let action = pos.first().cloned().ok_or(
                    "missing client action (ping|features|predict|compress|decompress|decompress-range|stream|load-model|stats)",
                )?;
                match action.as_str() {
                    "ping" => {
                        let rtt = client.ping().map_err(|e| e.to_string())?;
                        println!("pong in {:.2} ms", rtt.as_secs_f64() * 1e3);
                    }
                    "features" => {
                        let dims = parse_dims(&flag("dims")?).ok_or("bad --dims")?;
                        let field = read_field(&flag("input")?, dims)?;
                        println!("{}", client.features(&field).map_err(|e| e.to_string())?);
                    }
                    "predict" => {
                        let dims = parse_dims(&flag("dims")?).ok_or("bad --dims")?;
                        let ratio: f64 = flag("ratio")?.parse().map_err(|_| "bad --ratio")?;
                        let field = read_field(&flag("input")?, dims)?;
                        println!(
                            "{}",
                            client
                                .predict(&flag("model")?, ratio, &field)
                                .map_err(|e| e.to_string())?
                        );
                    }
                    "compress" => {
                        let dims = parse_dims(&flag("dims")?).ok_or("bad --dims")?;
                        let ratio: f64 = flag("ratio")?.parse().map_err(|_| "bad --ratio")?;
                        let field = read_field(&flag("input")?, dims)?;
                        let (info, stream) = client
                            .compress(&flag("model")?, ratio, &field)
                            .map_err(|e| e.to_string())?;
                        std::fs::write(flag("output")?, &stream).map_err(|e| e.to_string())?;
                        println!("{info}");
                    }
                    "decompress" => {
                        let bytes = std::fs::read(flag("input")?).map_err(|e| e.to_string())?;
                        let field = client.decompress(&bytes).map_err(|e| e.to_string())?;
                        write_field(&flag("output")?, &field)?;
                        println!("decompressed {} ({})", field.name(), field.dims());
                    }
                    "decompress-range" => {
                        let bytes = std::fs::read(flag("input")?).map_err(|e| e.to_string())?;
                        let start: u64 = flag("start")?.parse().map_err(|_| "bad --start")?;
                        let end: u64 = flag("end")?.parse().map_err(|_| "bad --end")?;
                        let values = client
                            .decompress_range(&bytes, start, end)
                            .map_err(|e| e.to_string())?;
                        let mut raw = Vec::with_capacity(values.len() * 4);
                        for v in &values {
                            raw.extend_from_slice(&v.to_le_bytes());
                        }
                        std::fs::write(flag("output")?, &raw).map_err(|e| e.to_string())?;
                        println!(
                            "decompressed elements {start}..{end} ({} values)",
                            values.len()
                        );
                    }
                    "stream" => {
                        let ratio: f64 = flag("ratio")?.parse().map_err(|_| "bad --ratio")?;
                        let frame: usize = flags
                            .get("frame")
                            .map_or(Ok(4096), |s| s.parse())
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or("bad --frame (want a positive sample count)")?;
                        let window: u32 = flags
                            .get("window")
                            .map_or(Ok(0), |s| s.parse())
                            .map_err(|_| "bad --window")?;
                        let models: Vec<String> = flags
                            .get("models")
                            .map(|s| {
                                s.split(',')
                                    .filter(|x| !x.is_empty())
                                    .map(str::to_owned)
                                    .collect()
                            })
                            .unwrap_or_default();
                        let (info, header) = client
                            .stream_open(ratio, window, &models)
                            .map_err(|e| e.to_string())?;
                        let parsed = serde_json::parse_value(&info).map_err(|e| e.to_string())?;
                        let stream_id = jget(&parsed, "stream_id")
                            .and_then(serde_json::Value::as_u64)
                            .ok_or("open reply info lacks stream_id")?
                            as u32;
                        println!("{info}");
                        let mut reader = open_stream_input(&flags)?;
                        let out_path = flag("output")?;
                        let mut out = std::io::BufWriter::new(
                            std::fs::File::create(&out_path)
                                .map_err(|e| format!("{out_path}: {e}"))?,
                        );
                        use std::io::Write as _;
                        out.write_all(&header)
                            .map_err(|e| format!("{out_path}: {e}"))?;
                        let mut buf = Vec::with_capacity(frame);
                        loop {
                            let n = read_stream_chunk(reader.as_mut(), frame, &mut buf)?;
                            if n == 0 {
                                break;
                            }
                            let field = Field::new("stream/frame", Dims::d1(n), buf.clone());
                            let (info, record) = client
                                .stream_frame(stream_id, &field)
                                .map_err(|e| e.to_string())?;
                            out.write_all(&record)
                                .map_err(|e| format!("{out_path}: {e}"))?;
                            println!("{info}");
                        }
                        let (summary, trailer) =
                            client.stream_close(stream_id).map_err(|e| e.to_string())?;
                        out.write_all(&trailer)
                            .map_err(|e| format!("{out_path}: {e}"))?;
                        out.flush().map_err(|e| format!("{out_path}: {e}"))?;
                        println!("{summary}");
                    }
                    "load-model" => {
                        let json =
                            std::fs::read_to_string(flag("model")?).map_err(|e| e.to_string())?;
                        let version: u32 = flags
                            .get("version")
                            .map_or(Ok(0), |s| s.parse())
                            .map_err(|_| "bad --version")?;
                        println!(
                            "{}",
                            client
                                .load_model(&flag("id")?, version, &json)
                                .map_err(|e| e.to_string())?
                        );
                    }
                    "stats" => println!("{}", client.stats().map_err(|e| e.to_string())?),
                    other => return Err(format!("unknown client action {other}")),
                }
                Ok(())
            }
            other => Err(format!("unknown subcommand {other}")),
        }
    };
    let result = run_cmd();
    // Metrics are emitted even when the command failed — a partial
    // snapshot is exactly what post-mortem debugging wants.
    let metrics = emit_metrics(&flags);
    result.and(metrics)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => usage(&msg),
    }
}
