//! `snapshot`: the paper's use case. Medium-scale fields from four
//! applications run through every codec row at seeded target ratios,
//! are packed into one FXRZA2 archive, then read back and decoded in
//! full. Large fields make the quantize/entropy layers dominate.

use crate::check;
use crate::inputs::{self, AppFields, CODECS};
use crate::util::{median, per_call, psnr, Gate, Metric, Recorder, Rng, MIB};
use crate::Outcome;
use fxrz_archive::{Archive, ArchiveWriter};
use fxrz_codec::{fse, huffman, lz77};
use fxrz_compressors::{by_name, ErrorConfig};
use fxrz_core::features;
use fxrz_core::sampling::StridedSampler;
use fxrz_core::train::TrainedModel;
use fxrz_core::FixedRatioCompressor;
use fxrz_datagen::Field;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Passes every untraced run makes, whatever its budget: the faster
/// halves of 7 passes give 112 latencies, ten of them beyond the p90.
pub const MIN_PASSES: usize = 7;
/// Operation-latency tail percentile.
const TAIL_Q: f64 = 0.90;

/// Elements in one `decompress_range` check window.
const WINDOW: usize = 4096;

pub struct Setup {
    /// One Medium field per application, with its entry-name tag.
    fields: Vec<(&'static str, Field)>,
    /// `engines[app][codec]`, in [`CODECS`] order.
    engines: Vec<Vec<FixedRatioCompressor>>,
}

impl Setup {
    pub fn new(apps: &[AppFields], models: &[Vec<TrainedModel>]) -> Result<Self, String> {
        let engines = models
            .iter()
            .map(|row| row.iter().map(inputs::bind).collect::<Result<Vec<_>, _>>())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            fields: apps
                .iter()
                .map(|a| (inputs::tag(a.app), a.medium.clone()))
                .collect(),
            engines,
        })
    }

    fn raw_bytes(&self) -> usize {
        self.fields.iter().map(|(_, f)| f.nbytes()).sum::<usize>() * CODECS.len()
    }
}

/// What one pass measured: per-(field, codec) write and read times
/// (index `field * CODECS.len() + codec`) and the per-archive costs.
struct Pass {
    write: Vec<Duration>,
    read: Vec<Duration>,
    finish: Duration,
    open: Duration,
    /// Checksum of the archive bytes: identical passes must match.
    digest: u32,
}

/// Traced stand-in for `FixedRatioCompressor::compress`, made of the
/// calls it is built from: features, CA, the model's prediction, the
/// whole estimate, and the codec alone, each a child span of the measured
/// call `parent`. Returns the codec's bytes so the caller can check the
/// engine produced the same.
fn replay_stages(
    rec: &Recorder,
    frc: &FixedRatioCompressor,
    field: &Field,
    tcr: f64,
    (op, parent): (u64, u64),
    codec: &str,
) -> Result<Vec<u8>, String> {
    let model = frc.model();
    let (fv, _) = rec.span("core.features", parent, op, || {
        features::extract(field, StridedSampler::new(model.stride))
    });
    let (r, _) = rec.span("core.ca", parent, op, || {
        model
            .ca
            .map(|ca| ca.non_constant_ratio(field))
            .unwrap_or(1.0)
    });
    let acr = (tcr * r).max(1.0);
    let (cfg, _) = rec.span("ml.predict", parent, op, || {
        let x = model.predict_coordinate(&fv, acr);
        model.config_space.from_coordinate(x, fv.value_range)
    });
    let (est, _) = rec.span("core.estimate", parent, op, || frc.estimate(field, tcr));
    let est = est.map_err(|e| format!("estimate: {e}"))?;
    if est.config != cfg {
        return Err(format!(
            "outside replay predicted {cfg}, engine {}",
            est.config
        ));
    }
    let name = format!("compressors.{}.compress", inputs::label(codec));
    let (bytes, _) = rec.span(&name, parent, op, || {
        frc.compressor().compress(field, &est.config)
    });
    bytes.map_err(|e| format!("codec replay: {e}"))
}

/// One write-then-read pass over every (field, codec) pair.
fn pass(
    s: &Setup,
    seed: u64,
    index: usize,
    rec: &Recorder,
    gate: &mut Gate,
    quality: Option<(&mut Vec<f64>, &mut Vec<f64>)>,
) -> Option<Pass> {
    // Every pass repeats the same work (the ladder rung varies by pair,
    // not by pass), so each operation's samples across passes can be
    // compared.
    let mut rng = Rng::fork(seed, 0x5A50);
    let mut writer = ArchiveWriter::new();
    let ops = s.fields.len() * CODECS.len();
    let (mut write, mut read) = (vec![Duration::ZERO; ops], vec![Duration::ZERO; ops]);
    // (field index, codec index, entry name, target, op id, outcome)
    let mut written = Vec::new();
    for (a, (tag, field)) in s.fields.iter().enumerate() {
        for (c, frc) in s.engines[a].iter().enumerate() {
            let codec = CODECS[c];
            let tcr = inputs::target(&mut rng, frc.model(), a + c);
            let op = rec.id();
            let name = format!("{tag}.{}", inputs::label(codec));
            let span = rec.id();
            let (out, d_compress) =
                rec.span_with_id(span, "core.compress", 0, op, || frc.compress(field, tcr));
            let outcome = match out {
                Ok(out) => {
                    // Replays run after the measured call so they cannot
                    // warm its caches.
                    let replayed = rec
                        .enabled()
                        .then(|| replay_stages(rec, frc, field, tcr, (op, span), codec));
                    let same = match &replayed {
                        Some(Ok(bytes)) if *bytes != out.bytes => {
                            Err(format!("{name}: engine and codec replay bytes differ"))
                        }
                        Some(Err(e)) => Err(format!("{name}: {e}")),
                        _ => Ok(()),
                    };
                    let cfg = out.estimate.config;
                    let mcr = out.measured_ratio;
                    let (added, d_add) =
                        rec.span("archive.add", 0, op, || writer.add_raw(&name, out.bytes));
                    write[a * CODECS.len() + c] = d_compress + d_add;
                    added
                        .map_err(|e| format!("{name}: archive add: {e}"))
                        .and(same)
                        .map(|()| (cfg, mcr))
                }
                Err(e) => Err(format!("{name}: compress: {e}")),
            };
            written.push((a, c, name, tcr, op, outcome));
        }
    }
    let (buf, finish) = rec.span("archive.finish", 0, 0, || writer.finish());
    let (archive, open) = rec.span("archive.open", 0, 0, || Archive::open(&buf));
    let archive = match archive {
        Ok(a) => a,
        Err(e) => {
            for _ in &written {
                gate.record(Err(format!("archive open: {e}")));
            }
            return None;
        }
    };
    let mut quality = quality;
    for (a, c, name, tcr, op, outcome) in written {
        let field = &s.fields[a].1;
        let checked = outcome.and_then(|(cfg, mcr)| {
            let (decoded, d) = rec.span("archive.get", 0, op, || archive.get(&name));
            read[a * CODECS.len() + c] = d;
            let decoded = decoded.map_err(|e| format!("{name}: get: {e}"))?;
            check::field(&cfg, field, &decoded)?;
            let mut window = Rng::fork(seed ^ index as u64, (a * CODECS.len() + c) as u64);
            check_range(&archive, &name, &cfg, field, &decoded, &mut window)?;
            if rec.enabled() {
                replay_decode(rec, &archive, &name, CODECS[c], op, &decoded)?;
            }
            if let Some((errs, psnrs)) = quality.as_mut() {
                errs.push((tcr - mcr).abs() / tcr * 100.0);
                psnrs.push(psnr(field.data(), decoded.data()));
            }
            Ok(())
        });
        gate.record(checked);
    }
    Some(Pass {
        write,
        read,
        finish,
        open,
        digest: fxrz_compressors::slab::checksum(&buf),
    })
}

/// `decompress_range` over a seeded window must equal the same slice of
/// the full decode (slabbed entries decode only the covering slabs).
fn check_range(
    archive: &Archive<'_>,
    name: &str,
    cfg: &ErrorConfig,
    field: &Field,
    decoded: &Field,
    rng: &mut Rng,
) -> Result<(), String> {
    if archive
        .entry(name)
        .map_err(|e| e.to_string())?
        .slabs
        .is_empty()
    {
        return Ok(());
    }
    let n = field.len();
    let start = rng.below(n.saturating_sub(WINDOW) + 1);
    let end = (start + WINDOW).min(n);
    let got = archive
        .decompress_range(name, start..end)
        .map_err(|e| format!("{name}: range: {e}"))?;
    if got != decoded.data()[start..end] {
        return Err(format!(
            "{name}: range {start}..{end} differs from full decode"
        ));
    }
    check::values(cfg, &field.data()[start..end], &got)
}

fn replay_decode(
    rec: &Recorder,
    archive: &Archive<'_>,
    name: &str,
    codec: &str,
    op: u64,
    decoded: &Field,
) -> Result<(), String> {
    let blob = archive.raw(name).map_err(|e| e.to_string())?;
    let comp = by_name(codec).ok_or("unknown codec")?;
    let span = format!("compressors.{}.decompress", inputs::label(codec));
    let (again, _) = rec.span(&span, 0, op, || comp.decompress(blob));
    let again = again.map_err(|e| format!("{name}: codec decode: {e}"))?;
    if again.data() != decoded.data() {
        return Err(format!("{name}: codec and archive decode differ"));
    }
    Ok(())
}

/// The faster half of each (field, codec) operation's times over passes,
/// in seconds. Passes repeat identical work and slowdowns from other
/// tenants of a shared machine only ever add time, so the faster half of
/// each operation's samples is the steady part.
fn faster_halves(passes: &[Pass], ops: impl Fn(&Pass) -> &[Duration]) -> Vec<Vec<f64>> {
    let n = passes.first().map_or(0, |p| ops(p).len());
    (0..n)
        .map(|i| {
            let mut t: Vec<f64> = passes.iter().map(|p| ops(p)[i].as_secs_f64()).collect();
            t.sort_by(f64::total_cmp);
            t.truncate(t.len().div_ceil(2));
            t
        })
        .collect()
}

/// One pass's typical time: each operation's faster-half median, summed,
/// plus the median per-archive cost.
fn typical(
    passes: &[Pass],
    ops: impl Fn(&Pass) -> &[Duration],
    fixed: impl Fn(&Pass) -> Duration,
) -> f64 {
    let per_op: f64 = faster_halves(passes, ops).iter().map(|t| median(t)).sum();
    per_op
        + median(
            &passes
                .iter()
                .map(|p| fixed(p).as_secs_f64())
                .collect::<Vec<_>>(),
        )
}

/// Runs passes until `budget` is spent (at least `min_passes`).
pub fn run(s: &Setup, seed: u64, budget: Duration, min_passes: usize, rec: &Recorder) -> Outcome {
    let raw_mib = s.raw_bytes() as f64 / MIB;
    let mut gate = Gate::default();
    let (mut errs, mut psnrs) = (Vec::new(), Vec::new());
    let mut passes = Vec::new();
    let t0 = Instant::now();
    let busy0 = crate::pool_busy_ns();
    let reuse0 = scratch_reuse();
    let mut index = 0;
    while index < min_passes || t0.elapsed() < budget {
        let quality = (index == 0).then_some((&mut errs, &mut psnrs));
        passes.extend(pass(s, seed, index, rec, &mut gate, quality));
        index += 1;
    }
    let wall = t0.elapsed();
    if passes.iter().any(|p| p.digest != passes[0].digest) {
        gate.fail("archive bytes differ between passes of one input".into());
    }
    let write = typical(&passes, |p| &p.write, |p| p.finish);
    let read = typical(&passes, |p| &p.read, |p| p.open);
    let op_ms: Vec<f64> = faster_halves(&passes, |p| &p.write)
        .concat()
        .into_iter()
        .map(|s| s * 1e3)
        .collect();
    // `ops_per_s` is one pass's operations over one typical pass's time.
    let per_pass = (s.fields.len() * CODECS.len()) as f64;
    let busy = (write + read) * op_ms.len() as f64 / per_pass;
    let mut out = Outcome::new(gate, op_ms, TAIL_Q);
    out.e2e_common(
        (raw_mib / write, passes.len()),
        (raw_mib / read, passes.len()),
        &errs,
        &psnrs,
        busy,
    );
    if rec.enabled() {
        (out.layers, out.info) = layers(s, rec, wall, crate::pool_busy_ns() - busy0, &mut out.gate);
        out.layers.push(
            Metric::new(
                "codec.scratch_reuse",
                (scratch_reuse() - reuse0) as f64,
                "count",
                1,
            )
            .note("codec.scratch.reuse counter delta over the traced passes"),
        );
    }
    out
}

fn scratch_reuse() -> u64 {
    fxrz_telemetry::global()
        .snapshot()
        .counter("codec.scratch.reuse")
        .unwrap_or(0)
}

/// Per-layer metrics of the traced passes.
fn layers(
    s: &Setup,
    rec: &Recorder,
    wall: Duration,
    busy_ns: u64,
    gate: &mut Gate,
) -> (Vec<Metric>, Vec<Metric>) {
    let mut m = Vec::new();
    let (feat, n) = rec.total("core.features");
    m.push(Metric::new(
        "core.features_ms",
        per_call(feat, n, 1e-6),
        "ms",
        n,
    ));
    let (ca, n) = rec.total("core.ca");
    m.push(Metric::new("core.ca_ms", per_call(ca, n, 1e-6), "ms", n));
    let (est, n_est) = rec.total("core.estimate");
    m.push(Metric::new(
        "core.estimate_ms",
        per_call(est, n_est, 1e-6),
        "ms",
        n_est,
    ));
    let (pred, n) = rec.total("ml.predict");
    m.push(Metric::new(
        "ml.predict_us",
        per_call(pred, n, 1e-3),
        "us",
        n,
    ));
    let codec = codec_total(rec, "compress");
    let (whole, n_whole) = rec.total("core.compress");
    m.push(
        Metric::new(
            "core.analysis_share_pct",
            est as f64 / (est + codec) as f64 * 100.0,
            "%",
            n_est,
        )
        .note("estimate / (estimate + codec compress), the paper's Table VII ratio"),
    );
    m.push(
        Metric::new(
            "core.leftover_pct",
            (whole as f64 - est as f64 - codec as f64) / whole as f64 * 100.0,
            "%",
            n_whole,
        )
        .note("FixedRatioCompressor::compress minus (estimate + Compressor::compress), as a share of it"),
    );
    let field_bytes: Vec<usize> = s.fields.iter().map(|(_, f)| f.nbytes()).collect();
    for codec in CODECS {
        let l = inputs::label(codec);
        for dir in ["compress", "decompress"] {
            let (ns, n) = rec.total(&format!("compressors.{l}.{dir}"));
            // Every call of one codec row covers each field once per pass.
            let passes = n / field_bytes.len().max(1);
            let bytes = field_bytes.iter().sum::<usize>() * passes;
            m.push(Metric::new(
                format!("compressors.{l}.{dir}_mibps"),
                bytes as f64 / MIB / (ns as f64 * 1e-9),
                "MiB/s",
                n,
            ));
        }
    }
    let (add, _) = rec.total("archive.add");
    let (finish, n_pass) = rec.total("archive.finish");
    m.push(
        Metric::new(
            "archive.write_ms",
            per_call(add + finish, n_pass, 1e-6),
            "ms",
            n_pass,
        )
        .note("per archive: every add_raw plus finish"),
    );
    let (open, n) = rec.total("archive.open");
    m.push(Metric::new(
        "archive.open_ms",
        per_call(open, n, 1e-6),
        "ms",
        n,
    ));
    let (get, n) = rec.total("archive.get");
    m.push(Metric::new(
        "archive.get_mibps",
        (s.raw_bytes() * n_pass) as f64 / MIB / (get as f64 * 1e-9),
        "MiB/s",
        n,
    ));
    let threads = fxrz_parallel::current_threads();
    m.push(
        Metric::new("parallel.threads", threads as f64, "count", 1)
            .note("a fact of this machine, not a scaling result"),
    );
    m.push(
        Metric::new(
            "parallel.busy_pct",
            busy_ns as f64 / (threads as f64 * wall.as_nanos() as f64) * 100.0,
            "%",
            1,
        )
        .note("pool worker busy time over threads x traced snapshot wall time"),
    );
    let (replay, info) = codec_replay(s, rec, gate);
    m.extend(replay);
    (m, info)
}

/// Nanoseconds in every codec row's `compress` or `decompress` spans.
fn codec_total(rec: &Recorder, dir: &str) -> u64 {
    CODECS
        .iter()
        .map(|c| {
            rec.total(&format!("compressors.{}.{dir}", inputs::label(c)))
                .0
        })
        .sum()
}

/// SZ-style quantization codes of a field: first-order deltas over the
/// flattened values at 1e-4 of the value range — the `codec_throughput`
/// bench's input rule.
fn delta_codes(field: &Field) -> Vec<u32> {
    let eb = field.stats().range * 1e-4;
    let mut prev = 0f64;
    field
        .data()
        .iter()
        .map(|&v| {
            let q = ((f64::from(v) - prev) / (2.0 * eb)).round();
            prev = f64::from(v);
            (q.clamp(-32_000.0, 32_000.0) as i64 + 32_768) as u32
        })
        .collect()
}

/// The replayed stages: span name, and whether its throughput counts
/// symbol bytes (4 per code) or Huffman-output bytes.
const STAGES: [(&str, bool); 6] = [
    ("codec.huffman.encode", true),
    ("codec.huffman.decode", true),
    ("codec.fse.encode", true),
    ("codec.fse.decode", true),
    ("codec.lz77.compress", false),
    ("codec.lz77.decompress", false),
];

/// Replays the entropy and dictionary stages from outside on code
/// streams derived from this workload's own fields. Returns the ledger
/// rows over all fields and, as report-only lines, the Nyx field's own
/// rates and sizes (the `codec_throughput` bench's input at seed 777).
fn codec_replay(s: &Setup, rec: &Recorder, gate: &mut Gate) -> (Vec<Metric>, Vec<Metric>) {
    const REPS: usize = 5;
    let (mut sym_bytes, mut huff_bytes, mut lz_bytes) = (0usize, 0usize, 0usize);
    let mut info = Vec::new();
    for (tag, field) in &s.fields {
        let codes = delta_codes(field);
        let mut times = vec![Vec::new(); STAGES.len()];
        let mut sizes = (0, 0, 0);
        for _ in 0..REPS {
            let mut t = |i: usize, d: Duration| times[i].push(d.as_secs_f64());
            let (huff, d) = rec.span(STAGES[0].0, 0, 0, || huffman::encode(black_box(&codes)));
            t(0, d);
            let (back, d) = rec.span(STAGES[1].0, 0, 0, || huffman::decode(black_box(&huff)));
            t(1, d);
            let (fse_buf, d) = rec.span(STAGES[2].0, 0, 0, || fse::encode(black_box(&codes)));
            t(2, d);
            let fse_back = fse_buf.as_ref().map(|b| {
                let (r, d) = rec.span(STAGES[3].0, 0, 0, || fse::decode(black_box(b)));
                t(3, d);
                r
            });
            let (lz, d) = rec.span(STAGES[4].0, 0, 0, || lz77::compress(black_box(&huff)));
            t(4, d);
            let (lz_back, d) = rec.span(STAGES[5].0, 0, 0, || lz77::decompress(black_box(&lz)));
            t(5, d);
            let ok = back.as_ref().is_ok_and(|b| *b == codes)
                && fse_back.is_some_and(|r| r.is_ok_and(|b| b == codes))
                && lz_back.is_ok_and(|b| b == huff);
            gate.record(if ok {
                Ok(())
            } else {
                Err(format!(
                    "{}: entropy replay did not round-trip",
                    field.name()
                ))
            });
            sizes = (huff.len(), fse_buf.map_or(0, |b| b.len()), lz.len());
            sym_bytes += codes.len() * 4;
            huff_bytes += huff.len();
            lz_bytes += lz.len();
        }
        if *tag == "nyx" {
            for ((stage, symbols), t) in STAGES.iter().zip(&times) {
                let bytes = if *symbols { codes.len() * 4 } else { sizes.0 };
                let name = stage.replacen("codec.", "codec.nyx.", 1) + "_mibps";
                info.push(
                    Metric::new(name, bytes as f64 / MIB / median(t), "MiB/s", t.len())
                        .note("median call"),
                );
            }
            for (name, v) in [
                ("codec.nyx.symbols", codes.len()),
                ("codec.nyx.huffman_bytes", sizes.0),
                ("codec.nyx.fse_bytes", sizes.1),
                ("codec.nyx.lz77_bytes", sizes.2),
            ] {
                info.push(Metric::new(name, v as f64, "count", 1));
            }
        }
    }
    let mut layers: Vec<Metric> = STAGES
        .iter()
        .map(|(stage, symbols)| {
            let (ns, n) = rec.total(stage);
            let bytes = if *symbols { sym_bytes } else { huff_bytes };
            Metric::new(
                format!("{stage}_mibps"),
                bytes as f64 / MIB / (ns as f64 * 1e-9),
                "MiB/s",
                n,
            )
        })
        .collect();
    layers.push(
        Metric::new(
            "codec.lz77.saved_pct",
            (huff_bytes as f64 - lz_bytes as f64) / huff_bytes as f64 * 100.0,
            "%",
            s.fields.len() * REPS,
        )
        .note("bytes LZ77 removes from Huffman-coded quantization codes"),
    );
    (layers, info)
}
