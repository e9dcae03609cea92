//! fxrz-stream — self-describing `FXRZS1` frame streams for unbounded
//! f32 timestep data (Capability Level 2 beyond static snapshots).
//!
//! The snapshot path compresses one complete in-memory field per call; a
//! stream arrives as an unbounded sequence of timestep chunks whose
//! statistics drift. [`StreamEncoder`] chunks that sequence into frames
//! and, per frame, runs the FXRZ recipe end to end:
//!
//! 1. cheap feature extraction ([`fxrz_core::features::extract`]) on the
//!    frame's samples;
//! 2. codec selection across the sz / szi / sz2 / sz-fse rows — by
//!    forest-model ratio-range fit when trained models are attached, by a
//!    smoothness heuristic otherwise;
//! 3. error-bound prediction for the frame's *individual* target ratio,
//!    which a deterministic sliding-window [`RatioController`] derives by
//!    redistributing the byte budget so the cumulative ratio tracks the
//!    global target;
//! 4. one compression — with a FRaZ-style single-retry fallback when the
//!    frame lands outside the per-frame tolerance.
//!
//! Each frame is an independent, self-describing record (codec tag,
//! sample count, error bound, FNV-1a checksum, payload), so
//! [`StreamDecoder`] fans frame decodes over [`fxrz_parallel::par_map`]
//! and reassembles output that is bit-identical at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod frame;
pub mod names;

pub use controller::{Calibration, RatioController};
pub use frame::{FrameView, StreamError, StreamHeader, StreamScan, Trailer};

use fxrz_compressors::header::varint_len;
use fxrz_compressors::{by_name, Compressor, ErrorConfig};
use fxrz_core::features::{self, FeatureVector};
use fxrz_core::sampling::StridedSampler;
use fxrz_core::train::TrainedModel;
use fxrz_datagen::{Dims, Field};
use fxrz_telemetry::{Counter, Name, Resolved};
use std::sync::Arc;

// A trailer tag equal to a codec magic or frame tag fails every build.
const _: () = assert!(
    fxrz_compressors::tag_is_free(frame::TRAILER_TAG),
    "TRAILER_TAG collides with a codec tag"
);

/// Default controller window, in frames.
pub const DEFAULT_WINDOW: usize = 32;
/// Default per-frame tolerance before the single-retry fallback fires.
pub const DEFAULT_FRAME_TOLERANCE: f64 = 0.25;

/// Encoder configuration.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Global target compression ratio to hold over the stream.
    pub target_ratio: f64,
    /// Sliding-window length of the ratio controller, in frames.
    pub window: usize,
    /// Relative deviation of a frame's achieved ratio from its target
    /// beyond which the encoder recompresses once with the freshly
    /// recalibrated bound.
    pub frame_tolerance: f64,
    /// Codec roster, by registry name. Every entry must be one of the
    /// frame-taggable codecs (`sz`, `szi`, `sz2`, `sz-fse`).
    pub codecs: Vec<String>,
}

impl StreamConfig {
    /// A default-roster config for `target_ratio`.
    pub fn new(target_ratio: f64) -> Self {
        Self {
            target_ratio,
            window: DEFAULT_WINDOW,
            frame_tolerance: DEFAULT_FRAME_TOLERANCE,
            codecs: ["sz", "szi", "sz2", "sz-fse"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
        }
    }
}

/// Reusable per-stream staging buffers: the frame field buffer that
/// feeds feature extraction and compression is recycled across `push`
/// calls instead of being reallocated per frame.
#[derive(Debug, Default)]
pub struct StreamScratch {
    field_buf: Vec<f32>,
}

impl StreamScratch {
    /// A cold scratch (first use allocates).
    pub fn new() -> Self {
        Self::default()
    }
}

/// One codec row available to the encoder.
struct Row {
    name: String,
    /// This codec's `stream.codec.{codec}.frames` counter.
    frames_counter: Resolved<Name, Arc<Counter>>,
    tag: u8,
    comp: Box<dyn Compressor>,
    model: Option<TrainedModel>,
    calib: Calibration,
    frames: u64,
}

/// Everything the encoder learned about one pushed frame.
#[derive(Clone, Debug)]
pub struct FrameOutcome {
    /// Zero-based frame index within the stream.
    pub index: u64,
    /// Registry name of the codec that produced the frame.
    pub codec: String,
    /// Error bound actually applied.
    pub eb: f64,
    /// The controller's target ratio for this frame.
    pub target_ratio: f64,
    /// Achieved ratio of this frame (raw bytes / frame record bytes).
    pub achieved_ratio: f64,
    /// Cumulative stream ratio after this frame.
    pub cumulative_ratio: f64,
    /// Whether the FRaZ-style single retry fired.
    pub retried: bool,
    /// Whether the frame landed within the per-frame tolerance.
    pub in_tolerance: bool,
    /// The complete frame record (header + checksum + payload).
    pub bytes: Vec<u8>,
    /// Features extracted from the frame's samples.
    pub features: FeatureVector,
}

/// Aggregate encoder statistics (mirrors the `stream.*` telemetry).
#[derive(Clone, Debug)]
pub struct StreamSummary {
    /// Frames encoded so far.
    pub frames: u64,
    /// Samples encoded so far.
    pub samples: u64,
    /// Raw input bytes accepted.
    pub raw_bytes: u64,
    /// Frame-record bytes produced.
    pub comp_bytes: u64,
    /// Global target ratio.
    pub target_ratio: f64,
    /// Cumulative achieved ratio (target before any frame).
    pub cumulative_ratio: f64,
    /// Frames that went through the single-retry fallback.
    pub retries: u64,
    /// Per-codec frame counts, in roster order.
    pub codecs: Vec<(String, u64)>,
}

/// Smoothness classes the selection heuristic distinguishes, by the
/// frame's mean-neighbour-difference relative to its value range.
const RHO_SMOOTH: f64 = 1e-4;
const RHO_MID: f64 = 1e-2;
const RHO_ROUGH: f64 = 8e-2;

/// Preference order per smoothness class: first roster hit wins.
fn preference(fv: &FeatureVector) -> [&'static str; 4] {
    let vr = fv.value_range;
    if !(vr.is_finite() && vr > 0.0) {
        // Constant or non-finite-dominated frame: plain SZ handles the
        // degenerate cases most robustly.
        return ["sz", "sz2", "szi", "sz-fse"];
    }
    let rho = fv.mnd / vr;
    if rho < RHO_SMOOTH {
        // Very smooth: the interpolation predictor shines.
        ["szi", "sz2", "sz", "sz-fse"]
    } else if rho < RHO_MID {
        // Mildly structured: hybrid Lorenzo + regression.
        ["sz2", "szi", "sz", "sz-fse"]
    } else if rho < RHO_ROUGH {
        ["sz", "sz2", "sz-fse", "szi"]
    } else {
        // Noisy: quantizer output is entropy-dominated, pin FSE.
        ["sz-fse", "sz", "sz2", "szi"]
    }
}

/// Distance of `target` from a model's valid ratio range (0 inside).
fn range_distance(model: &TrainedModel, target: f64) -> f64 {
    let (lo, hi) = model.valid_ratio_range;
    if target < lo {
        lo - target
    } else if target > hi {
        target - hi
    } else {
        0.0
    }
}

/// Streaming fixed-ratio encoder: feeds frames through feature
/// extraction, codec selection, controller-targeted bound prediction,
/// and single-retry compression. See the crate docs for the pipeline.
pub struct StreamEncoder {
    target_ratio: f64,
    window: usize,
    frame_tolerance: f64,
    controller: RatioController,
    rows: Vec<Row>,
    scratch: StreamScratch,
    frames: u64,
    samples: u64,
    retries: u64,
}

impl StreamEncoder {
    /// An encoder using the heuristic codec selector (no trained models).
    ///
    /// # Errors
    /// Rejects non-finite or sub-1 target ratios, out-of-range windows
    /// and tolerances, and unknown or untaggable codec names.
    pub fn new(config: StreamConfig) -> Result<Self, StreamError> {
        if !(config.target_ratio.is_finite() && config.target_ratio >= 1.0) {
            return Err(StreamError::BadConfig(format!(
                "target ratio must be finite and >= 1, got {}",
                config.target_ratio
            )));
        }
        if config.window == 0 || config.window as u64 > frame::MAX_WINDOW {
            return Err(StreamError::BadConfig(format!(
                "window must be in 1..={}, got {}",
                frame::MAX_WINDOW,
                config.window
            )));
        }
        if !(config.frame_tolerance.is_finite() && config.frame_tolerance > 0.0) {
            return Err(StreamError::BadConfig(format!(
                "frame tolerance must be finite and > 0, got {}",
                config.frame_tolerance
            )));
        }
        if config.codecs.is_empty() {
            return Err(StreamError::BadConfig("empty codec roster".to_owned()));
        }
        let mut rows = Vec::with_capacity(config.codecs.len());
        for name in &config.codecs {
            let tag = frame::tag_for(name).ok_or_else(|| {
                StreamError::BadConfig(format!("codec {name:?} has no frame tag"))
            })?;
            let comp = by_name(name)
                .ok_or_else(|| StreamError::BadConfig(format!("unknown codec {name:?}")))?;
            if rows.iter().any(|r: &Row| r.tag == tag) {
                return Err(StreamError::BadConfig(format!(
                    "codec {name:?} listed twice"
                )));
            }
            rows.push(Row {
                name: name.clone(),
                frames_counter: Resolved::counter(
                    names::CODEC_FRAMES.fill(&[&fxrz_compressors::instrument::label(name)]),
                ),
                tag,
                comp,
                model: None,
                calib: Calibration::default(),
                frames: 0,
            });
        }
        let controller = RatioController::new(config.target_ratio, config.window);
        Ok(Self {
            target_ratio: config.target_ratio,
            window: config.window,
            frame_tolerance: config.frame_tolerance,
            controller,
            rows,
            scratch: StreamScratch::new(),
            frames: 0,
            samples: 0,
            retries: 0,
        })
    }

    /// An encoder whose rows are seeded with trained forest models:
    /// each model attaches to the roster row named by its `compressor`
    /// field and supplies the initial error-bound predictions (the
    /// online calibration takes over once it has observed the stream).
    ///
    /// # Errors
    /// As [`StreamEncoder::new`], plus a model naming a compressor
    /// outside the roster.
    pub fn with_models(
        config: StreamConfig,
        models: Vec<TrainedModel>,
    ) -> Result<Self, StreamError> {
        let mut enc = Self::new(config)?;
        for model in models {
            let row = enc
                .rows
                .iter_mut()
                .find(|r| r.name == model.compressor)
                .ok_or_else(|| {
                    StreamError::BadConfig(format!(
                        "model for {:?} matches no roster codec",
                        model.compressor
                    ))
                })?;
            row.model = Some(model);
        }
        Ok(enc)
    }

    /// Serialized `FXRZS1` stream header for this encoder.
    pub fn header(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(frame::MAGIC.len() + 10);
        frame::write_header(
            &mut out,
            &StreamHeader {
                target_ratio: self.target_ratio,
                window: self.window as u64,
            },
        );
        out
    }

    /// Serialized trailer pinning the totals of all pushed frames.
    pub fn finish(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        frame::write_trailer(
            &mut out,
            &Trailer {
                frames: self.frames,
                samples: self.samples,
            },
        );
        out
    }

    /// Global target ratio.
    pub fn target_ratio(&self) -> f64 {
        self.target_ratio
    }

    /// Cumulative achieved ratio over all pushed frames.
    pub fn cumulative_ratio(&self) -> f64 {
        self.controller.cumulative_ratio()
    }

    /// Frames pushed so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Samples pushed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Aggregate statistics (per-codec histogram, byte totals, ratios).
    pub fn summary(&self) -> StreamSummary {
        StreamSummary {
            frames: self.frames,
            samples: self.samples,
            raw_bytes: self.controller.total_raw(),
            comp_bytes: self.controller.total_comp(),
            target_ratio: self.target_ratio,
            cumulative_ratio: self.controller.cumulative_ratio(),
            retries: self.retries,
            codecs: self
                .rows
                .iter()
                .map(|r| (r.name.clone(), r.frames))
                .collect(),
        }
    }

    /// Index of the row that should encode a frame with features `fv`
    /// at `target`: rows whose model covers the target beat rows whose
    /// model does not; ties (including the all-heuristic case) fall to
    /// the smoothness preference order.
    fn select_row(&self, fv: &FeatureVector, target: f64) -> usize {
        let prefs = preference(fv);
        let rank = |row: &Row| {
            prefs
                .iter()
                .position(|p| *p == row.name)
                .unwrap_or(prefs.len())
        };
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, usize::MAX);
        for (i, row) in self.rows.iter().enumerate() {
            let dist = row
                .model
                .as_ref()
                .map(|m| range_distance(m, target))
                .unwrap_or(0.0);
            let key = (dist, rank(row));
            if key.0 < best_key.0 || (key.0 == best_key.0 && key.1 < best_key.1) {
                best = i;
                best_key = key;
            }
        }
        best
    }

    /// The error bound a row predicts for `target` on features `fv`:
    /// the attached forest model until the online calibration is warm,
    /// the calibration's secant afterwards.
    fn predict_eb(row: &Row, fv: &FeatureVector, target: f64) -> f64 {
        if let Some(model) = &row.model {
            if !row.calib.is_warm() {
                let (lo, hi) = model.valid_ratio_range;
                let acr = if lo < hi {
                    target.clamp(lo, hi)
                } else {
                    target
                };
                let coord = model.predict_coordinate(fv, acr);
                let vr = if fv.value_range.is_finite() && fv.value_range > 0.0 {
                    fv.value_range
                } else {
                    1.0
                };
                if let ErrorConfig::Abs(eb) = model.config_space.from_coordinate(coord, vr) {
                    if eb.is_finite() && eb > 0.0 {
                        return eb;
                    }
                }
            }
        }
        row.calib.predict_eb(fv.value_range, target)
    }

    /// Encodes one frame and returns its record plus everything the
    /// encoder learned about it. Frames must be pushed in stream order;
    /// the caller writes `header() + each outcome's bytes + finish()`.
    ///
    /// # Errors
    /// Empty or oversized frames and compressor failures.
    pub fn push(&mut self, samples: &[f32]) -> Result<FrameOutcome, StreamError> {
        let n = samples.len();
        if n == 0 {
            return Err(StreamError::BadConfig("empty frame".to_owned()));
        }
        if n > frame::MAX_FRAME_SAMPLES {
            return Err(StreamError::BadConfig(format!(
                "frame of {n} samples exceeds the {} cap",
                frame::MAX_FRAME_SAMPLES
            )));
        }
        let telemetry = fxrz_telemetry::global();
        let mut buf = std::mem::take(&mut self.scratch.field_buf);
        if buf.capacity() >= n {
            telemetry.incr(names::SCRATCH_REUSE);
        } else {
            telemetry.incr(names::SCRATCH_CREATE);
        }
        buf.clear();
        buf.extend_from_slice(samples);
        let field = Field::new("frame", Dims::d1(n), buf);
        let raw_bytes = field.nbytes() as u64;
        let fv = features::extract(&field, StridedSampler::full());
        let target = self.controller.frame_target(raw_bytes);
        let index = self.frames;
        let row_idx = self.select_row(&fv, target);

        let eb = Self::predict_eb(&self.rows[row_idx], &fv, target);
        let row = &mut self.rows[row_idx];
        let result = Self::compress_frame(row, &field, index, eb)?;
        let (mut eb, mut payload) = result;
        let mut achieved = Self::frame_ratio(raw_bytes, n as u64, &payload);
        row.calib.observe(eb, achieved);

        // FRaZ-style corrective loop: one recompression with the
        // freshly recalibrated bound when the frame missed its target.
        let mut retried = false;
        if ((achieved - target) / target).abs() > self.frame_tolerance {
            let eb2 = row.calib.predict_eb(fv.value_range, target);
            if eb2.is_finite() && eb2 > 0.0 && ((eb2 - eb) / eb).abs() > 1e-6 {
                retried = true;
                let (eb_r, payload_r) = Self::compress_frame(row, &field, index, eb2)?;
                let achieved_r = Self::frame_ratio(raw_bytes, n as u64, &payload_r);
                row.calib.observe(eb_r, achieved_r);
                // Keep whichever attempt landed closer to the target.
                if (achieved_r - target).abs() < (achieved - target).abs() {
                    eb = eb_r;
                    payload = payload_r;
                    achieved = achieved_r;
                }
            }
        }

        let mut record = Vec::with_capacity(payload.len() + 32);
        frame::write_frame(&mut record, row.tag, n as u64, eb, &payload);
        let in_tolerance = ((achieved - target) / target).abs() <= self.frame_tolerance;
        let codec = row.name.clone();
        row.frames += 1;
        row.frames_counter.get().incr();

        self.controller.record(raw_bytes, record.len() as u64);
        self.frames += 1;
        self.samples += n as u64;
        if retried {
            self.retries += 1;
            telemetry.incr(names::FRAMES_RETRIED);
        }
        telemetry.incr(names::FRAMES_ENCODED);
        telemetry.add(names::BYTES_RAW, raw_bytes);
        telemetry.add(names::BYTES_COMP, record.len() as u64);
        let cumulative = self.controller.cumulative_ratio();
        let err_bp = ((cumulative - self.target_ratio) / self.target_ratio).abs() * 1e4;
        telemetry.observe(names::CONTROLLER_ERR_BP, err_bp as u64);

        self.scratch.field_buf = field.into_data();
        Ok(FrameOutcome {
            index,
            codec,
            eb,
            target_ratio: target,
            achieved_ratio: achieved,
            cumulative_ratio: cumulative,
            retried,
            in_tolerance,
            bytes: record,
            features: fv,
        })
    }

    /// One compression attempt on `row` at bound `eb`.
    fn compress_frame(
        row: &Row,
        field: &Field,
        index: u64,
        eb: f64,
    ) -> Result<(f64, Vec<u8>), StreamError> {
        let payload = row
            .comp
            .compress(field, &ErrorConfig::Abs(eb))
            .map_err(|source| StreamError::Codec { index, source })?;
        Ok((eb, payload))
    }

    /// Achieved ratio of a frame, accounted against the *record* size
    /// (tag + varints + eb + checksum + payload) so the cumulative ratio
    /// the controller steers matches what actually lands on the wire.
    fn frame_ratio(raw_bytes: u64, samples: u64, payload: &[u8]) -> f64 {
        let payload_len = payload.len() as u64;
        let record_len = 1 + varint_len(samples) + 8 + varint_len(payload_len) + 4 + payload_len;
        raw_bytes as f64 / record_len as f64
    }
}

impl std::fmt::Debug for StreamEncoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamEncoder")
            .field("target_ratio", &self.target_ratio)
            .field("window", &self.window)
            .field("frames", &self.frames)
            .field("samples", &self.samples)
            .finish_non_exhaustive()
    }
}

/// A fully decoded stream.
#[derive(Debug)]
pub struct DecodedStream {
    /// The stream header.
    pub header: StreamHeader,
    /// The verified trailer.
    pub trailer: Trailer,
    /// Per-frame directory, in stream order.
    pub frames: Vec<FrameView>,
    /// All decoded samples, concatenated in frame order.
    pub samples: Vec<f32>,
}

/// Streaming decoder: scan, then frame-parallel independent decode.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamDecoder;

impl StreamDecoder {
    /// Walks the stream structure without touching payload bytes.
    ///
    /// # Errors
    /// Typed [`StreamError`]s for any malformation.
    pub fn inspect(bytes: &[u8]) -> Result<StreamScan, StreamError> {
        frame::scan(bytes)
    }

    /// Decodes the whole stream. Frames decode independently, fanned
    /// over [`fxrz_parallel::par_map`]; chunk boundaries (one frame per
    /// chunk) and reassembly order are fixed, so the output is
    /// bit-identical at any thread count.
    ///
    /// # Errors
    /// Typed [`StreamError`]s: structural, checksum, or codec failures.
    pub fn decode(bytes: &[u8]) -> Result<DecodedStream, StreamError> {
        let scan = frame::scan(bytes)?;
        let decoded = fxrz_parallel::par_map(scan.frames.len(), 1, |range| {
            range
                .map(|i| frame::decode_frame(bytes, &scan.frames[i]))
                .collect::<Vec<_>>()
        });
        let mut samples = Vec::new();
        let mut ok_frames = 0u64;
        for chunk in decoded {
            for result in chunk {
                samples.extend(result?);
                ok_frames += 1;
            }
        }
        fxrz_telemetry::global().add(names::FRAMES_DECODED, ok_frames);
        Ok(DecodedStream {
            header: scan.header,
            trailer: scan.trailer,
            frames: scan.frames,
            samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_signal(
        config: StreamConfig,
        frames: usize,
        frame_len: usize,
        mut gen: impl FnMut(usize, usize) -> f32,
    ) -> (StreamEncoder, Vec<u8>, Vec<f32>) {
        let mut enc = StreamEncoder::new(config).expect("encoder");
        let mut stream = enc.header();
        let mut raw = Vec::new();
        for f in 0..frames {
            let chunk: Vec<f32> = (0..frame_len).map(|i| gen(f, i)).collect();
            let outcome = enc.push(&chunk).expect("push");
            stream.extend_from_slice(&outcome.bytes);
            raw.extend_from_slice(&chunk);
        }
        stream.extend_from_slice(&enc.finish());
        (enc, stream, raw)
    }

    #[test]
    fn encode_decode_roundtrip_within_bound() {
        let (enc, stream, raw) = encode_signal(StreamConfig::new(8.0), 8, 512, |f, i| {
            ((f * 512 + i) as f32 * 0.01).sin()
        });
        assert_eq!(enc.frames(), 8);
        let out = StreamDecoder::decode(&stream).expect("decode");
        assert_eq!(out.samples.len(), raw.len());
        assert_eq!(out.trailer.frames, 8);
        // Frames carry their applied eb; reconstruction must honour it.
        let mut offset = 0usize;
        for view in &out.frames {
            for (a, b) in raw[offset..offset + view.samples]
                .iter()
                .zip(&out.samples[offset..offset + view.samples])
            {
                assert!((a - b).abs() as f64 <= view.eb * 1.0001, "eb violated");
            }
            offset += view.samples;
        }
    }

    #[test]
    fn controller_holds_target_on_drifting_signal() {
        // Noise amplitude ramps across frames: codec selection and the
        // per-frame targets both have to adapt.
        let frames = 64;
        let (enc, _stream, _raw) = encode_signal(StreamConfig::new(10.0), frames, 1024, |f, i| {
            let t = (f * 1024 + i) as f32 * 0.001;
            let noise_amp = f as f32 / frames as f32;
            let pseudo = ((i as u32).wrapping_mul(2654435761) >> 16) as f32 / 65536.0 - 0.5;
            t.sin() + noise_amp * pseudo
        });
        let cum = enc.cumulative_ratio();
        assert!(
            (cum - 10.0).abs() / 10.0 < 0.10,
            "cumulative ratio {cum} drifted more than 10% from target"
        );
        let selected: Vec<_> = enc
            .summary()
            .codecs
            .into_iter()
            .filter(|(_, n)| *n > 0)
            .collect();
        assert!(
            selected.len() >= 2,
            "expected at least two codecs, got {selected:?}"
        );
    }

    #[test]
    fn bad_configs_are_rejected() {
        assert!(StreamEncoder::new(StreamConfig::new(0.5)).is_err());
        assert!(StreamEncoder::new(StreamConfig::new(f64::NAN)).is_err());
        let mut c = StreamConfig::new(10.0);
        c.window = 0;
        assert!(StreamEncoder::new(c).is_err());
        let mut c = StreamConfig::new(10.0);
        c.codecs = vec!["zfp".to_owned()];
        assert!(StreamEncoder::new(c).is_err());
        let mut c = StreamConfig::new(10.0);
        c.codecs = vec!["sz".to_owned(), "sz".to_owned()];
        assert!(StreamEncoder::new(c).is_err());
        let mut enc = StreamEncoder::new(StreamConfig::new(10.0)).expect("encoder");
        assert!(enc.push(&[]).is_err());
    }

    #[test]
    fn scratch_buffer_is_reused_across_frames() {
        let telemetry = fxrz_telemetry::global();
        let before = telemetry
            .snapshot()
            .counter(names::SCRATCH_REUSE.as_str())
            .unwrap_or(0);
        let mut enc = StreamEncoder::new(StreamConfig::new(6.0)).expect("encoder");
        let chunk: Vec<f32> = (0..256).map(|i| (i as f32 * 0.1).cos()).collect();
        for _ in 0..5 {
            enc.push(&chunk).expect("push");
        }
        let after = telemetry
            .snapshot()
            .counter(names::SCRATCH_REUSE.as_str())
            .unwrap_or(0);
        // First push allocates; the other four must reuse the buffer.
        assert!(
            after - before >= 4,
            "scratch reuse counter moved only {} across 5 frames",
            after - before
        );
    }

    #[test]
    fn heuristic_prefers_distinct_codecs_by_smoothness() {
        let smooth = FeatureVector {
            value_range: 2.0,
            mean_value: 0.0,
            mnd: 1e-5,
            mld: 1e-5,
            msd: 1e-5,
            mean_gradient: 1e-5,
            min_gradient: 0.0,
            max_gradient: 1e-4,
        };
        let noisy = FeatureVector {
            mnd: 0.5,
            mld: 0.5,
            msd: 0.5,
            mean_gradient: 0.5,
            max_gradient: 1.0,
            ..smooth
        };
        assert_eq!(preference(&smooth)[0], "szi");
        assert_eq!(preference(&noisy)[0], "sz-fse");
    }
}
