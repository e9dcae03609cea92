//! `serve`: an in-process daemon on TCP loopback under a closed loop of
//! blocking clients. Mostly `decompress_range` windows over
//! pre-compressed Medium streams (slabbed and monolithic), plus
//! `predict` and `compress` of Small fields. Read-heavy, with the
//! protocol, scheduler and connection handling on the critical path.

use crate::inputs::{self, AppFields};
use crate::util::{mean, ms, per_call, Gate, Metric, Recorder, Rng, MIB};
use crate::Outcome;
use fxrz_compressors::header::magic;
use fxrz_compressors::{by_name, slab, ErrorConfig};
use fxrz_core::train::TrainedModel;
use fxrz_datagen::Field;
use fxrz_serve::protocol::Op;
use fxrz_serve::{Client, ClientError, Reply, Request, Server, ServerConfig, ServerHandle};
use fxrz_telemetry::MetricsSnapshot;
use std::time::{Duration, Instant};

/// Codec rows registered with the daemon for `predict` and `compress`.
pub const CODECS: [&str; 2] = ["sz", "zfp"];
/// Closed-loop clients, one per core of the reference machine.
pub const CLIENTS: usize = 2;
/// Round-trip tail percentile.
const TAIL_Q: f64 = 0.95;
/// Elements in one `decompress_range` window.
pub const WINDOW: usize = 4096;
/// One client's repeating request mix: 14 ranges, 3 predicts and 3
/// compresses in a seeded order.
const MIX: [(Kind, usize); 3] = [(Kind::Range, 14), (Kind::Predict, 3), (Kind::Compress, 3)];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Range,
    Predict,
    Compress,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Compress, Kind::Predict, Kind::Range];

    /// Name in this benchmark's metrics.
    fn name(self) -> &'static str {
        match self {
            Kind::Range => "range",
            Kind::Predict => "predict",
            Kind::Compress => "compress",
        }
    }

    fn op(self) -> Op {
        match self {
            Kind::Range => Op::DecompressRange,
            Kind::Predict => Op::Predict,
            Kind::Compress => Op::Compress,
        }
    }
}

/// A pre-compressed Medium stream that range requests read.
struct RangeSource {
    stream: Vec<u8>,
    /// The library's full decode, which every range reply must slice.
    full: Vec<f32>,
    /// Mean elements per slab; 0 for a monolithic stream.
    slab_elems: f64,
}

/// One (model, field, ratio) request with the library's answer to it.
struct Call {
    model: String,
    field: Field,
    ratio: f64,
    stream: Vec<u8>,
    config: String,
    ratio_err_pct: f64,
    psnr_db: f64,
}

pub struct Setup {
    server: Server,
    handle: Option<ServerHandle>,
    addr: String,
    ranges: Vec<RangeSource>,
    calls: Vec<Call>,
}

impl Setup {
    /// Registers one model per (application, [`CODECS`] row), computes
    /// the library's reply to every request the mix can send, then
    /// starts the daemon on an ephemeral loopback port.
    pub fn start(
        seed: u64,
        apps: &[AppFields],
        models: &[Vec<TrainedModel>],
    ) -> Result<Self, String> {
        let server = Server::new(ServerConfig::default());
        let mut rng = Rng::fork(seed, 0x5345);
        let mut calls = Vec::new();
        for (app, row) in apps.iter().zip(models) {
            for model in row {
                let id = format!("{}-{}", inputs::tag(app.app), model.compressor);
                server
                    .registry()
                    .insert(&id, 1, model.clone())
                    .map_err(|e| format!("register {id}: {e}"))?;
                let frc = inputs::bind(model)?;
                let ratio = inputs::target(&mut rng, model, calls.len());
                let out = frc
                    .compress(&app.small, ratio)
                    .map_err(|e| format!("{id}: {e}"))?;
                let back = frc.decompress(&out.bytes).map_err(|e| e.to_string())?;
                calls.push(Call {
                    model: id,
                    field: app.small.clone(),
                    ratio,
                    config: out.estimate.config.to_string(),
                    ratio_err_pct: out.estimation_error(ratio) * 100.0,
                    psnr_db: crate::util::psnr(app.small.data(), back.data()),
                    stream: out.bytes,
                });
            }
        }
        let sz = by_name("sz").ok_or("sz is not registered")?;
        let mut ranges = Vec::new();
        for app in apps {
            let cfg = ErrorConfig::Abs(app.medium.stats().range * 1e-3);
            let stream = sz.compress(&app.medium, &cfg).map_err(|e| e.to_string())?;
            let full = sz
                .decompress(&stream)
                .map_err(|e| e.to_string())?
                .into_data();
            let slab_elems = match slab::table(&stream, magic::SZ, "sz") {
                Ok(Some((_, _, rows))) => {
                    rows.iter().map(|r| r.raw_elems).sum::<usize>() as f64 / rows.len() as f64
                }
                _ => 0.0,
            };
            ranges.push(RangeSource {
                stream,
                full,
                slab_elems,
            });
        }
        let handle = server
            .serve_tcp("127.0.0.1:0")
            .map_err(|e| format!("bind: {e}"))?;
        let addr = handle
            .local_addr()
            .ok_or("listener has no address")?
            .to_string();
        Ok(Self {
            server,
            handle: Some(handle),
            addr,
            ranges,
            calls,
        })
    }

    /// Stops the daemon and waits for its threads.
    pub fn stop(&mut self) {
        self.server.stop();
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One completed request as the client saw it.
struct Done {
    kind: Kind,
    rtt: Duration,
    /// Raw field bytes the request wrote (compress) or read (range).
    bytes: usize,
    outcome: Result<(), String>,
}

fn stats(addr: &str) -> Result<MetricsSnapshot, String> {
    let mut c = Client::connect_tcp(addr).map_err(|e| e.to_string())?;
    let json = c.stats().map_err(|e| e.to_string())?;
    let doc = serde_json::parse_value(&json).map_err(|e| e.to_string())?;
    let metrics = doc
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "metrics"))
        .map(|(_, v)| v)
        .ok_or("stats reply has no metrics")?;
    <MetricsSnapshot as serde::Deserialize>::from_value(metrics).map_err(|e| e.0)
}

fn call(
    s: &Setup,
    c: &mut Client,
    kind: Kind,
    rng: &mut Rng,
    turn: usize,
) -> (usize, Result<(), String>) {
    let check = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_owned()) };
    let err = |e: ClientError| match e {
        ClientError::Busy => "refused: server busy".to_owned(),
        e => e.to_string(),
    };
    match kind {
        Kind::Range => {
            let src = &s.ranges[turn % s.ranges.len()];
            let start = rng.below(src.full.len() - WINDOW + 1);
            let end = start + WINDOW;
            let got = c.decompress_range(&src.stream, start as u64, end as u64);
            let outcome = got.map_err(err).and_then(|v| {
                check(
                    v == src.full[start..end],
                    "range reply differs from the full decode",
                )
            });
            (WINDOW * 4, outcome)
        }
        Kind::Predict => {
            let call = &s.calls[turn % s.calls.len()];
            let got = c.predict(&call.model, call.ratio, &call.field);
            let outcome = got.map_err(err).and_then(|json| {
                let doc = serde_json::parse_value(&json).map_err(|e| e.to_string())?;
                let config = doc
                    .as_object()
                    .and_then(|o| o.iter().find(|(k, _)| k == "config"))
                    .and_then(|(_, v)| v.as_str().map(str::to_owned));
                check(
                    config.as_deref() == Some(call.config.as_str()),
                    "predicted config differs from the library estimate",
                )
            });
            (0, outcome)
        }
        Kind::Compress => {
            let call = &s.calls[turn % s.calls.len()];
            let got = c.compress(&call.model, call.ratio, &call.field);
            let outcome = got.map_err(err).and_then(|(_, stream)| {
                check(
                    stream == call.stream,
                    "compress reply differs from library FixedRatioCompressor::compress",
                )
            });
            (call.field.nbytes(), outcome)
        }
    }
}

/// One client's closed loop until `deadline`.
fn client_loop(s: &Setup, seed: u64, id: usize, deadline: Instant, rec: &Recorder) -> Vec<Done> {
    let mut rng = Rng::fork(seed, 0xC1 + id as u64);
    let mut cycle: Vec<Kind> = MIX
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    rng.shuffle(&mut cycle);
    let mut client = match Client::connect_tcp(&s.addr) {
        Ok(c) => c,
        Err(e) => {
            return vec![Done {
                kind: Kind::Range,
                rtt: Duration::ZERO,
                bytes: 0,
                outcome: Err(format!("connect: {e}")),
            }]
        }
    };
    let mut done = Vec::new();
    let mut turns = [0usize; 3];
    while Instant::now() < deadline {
        let kind = cycle[done.len() % cycle.len()];
        let slot = Kind::ALL.iter().position(|&k| k == kind).unwrap_or(0);
        let turn = turns[slot] + id;
        turns[slot] += 1;
        let span = format!("serve.{}.rtt", kind.name());
        let ((bytes, outcome), rtt) = rec.span(&span, 0, rec.id(), || {
            call(s, &mut client, kind, &mut rng, turn)
        });
        done.push(Done {
            kind,
            rtt,
            bytes,
            outcome,
        });
    }
    done
}

fn counter_delta(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> u64 {
    b.counter(name).unwrap_or(0) - a.counter(name).unwrap_or(0)
}

/// `(count, sum)` growth of an HDR series between two snapshots.
fn hdr_delta(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> (u64, u64) {
    let get = |s: &MetricsSnapshot| s.hdr(name).map_or((0, 0), |h| (h.count, h.sum));
    let (c0, s0) = get(a);
    let (c1, s1) = get(b);
    (c1 - c0, s1 - s0)
}

pub fn run(s: &Setup, seed: u64, budget: Duration, rec: &Recorder) -> Outcome {
    let mut gate = Gate::default();
    let before = stats(&s.addr);
    let t0 = Instant::now();
    let deadline = t0 + budget;
    let done: Vec<Done> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|id| scope.spawn(move || client_loop(s, seed, id, deadline, rec)))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    let after = stats(&s.addr);

    let mut op_ms = Vec::with_capacity(done.len());
    for d in &done {
        op_ms.push(ms(d.rtt));
        gate.record(
            d.outcome
                .clone()
                .map_err(|e| format!("{}: {e}", d.kind.name())),
        );
    }
    // Raw MiB per second of round trip, as one client sees it.
    let rate = |kind: Kind| {
        let (bytes, secs, n) = done
            .iter()
            .filter(|d| d.kind == kind && d.outcome.is_ok())
            .fold((0usize, 0f64, 0usize), |(b, t, n), d| {
                (b + d.bytes, t + d.rtt.as_secs_f64(), n + 1)
            });
        (bytes as f64 / MIB / secs, n)
    };
    let errs: Vec<f64> = s.calls.iter().map(|c| c.ratio_err_pct).collect();
    let psnrs: Vec<f64> = s.calls.iter().map(|c| c.psnr_db).collect();
    let mut out = Outcome::new(gate, op_ms, TAIL_Q);
    out.e2e_common(
        rate(Kind::Compress),
        rate(Kind::Range),
        &errs,
        &psnrs,
        wall.as_secs_f64(),
    );
    match (before, after) {
        (Ok(a), Ok(b)) => {
            let refused = counter_delta(&a, &b, "serve.sched.shed")
                + counter_delta(&a, &b, "serve.sched.deadline_exceeded");
            if refused > 0 {
                out.gate
                    .fail(format!("{refused} requests shed or past deadline"));
            }
            if rec.enabled() {
                out.layers = layers(s, &done, &a, &b, rec, &mut out.gate);
            }
        }
        (Err(e), _) | (_, Err(e)) => out.gate.fail(format!("stats: {e}")),
    }
    out
}

fn layers(
    s: &Setup,
    done: &[Done],
    a: &MetricsSnapshot,
    b: &MetricsSnapshot,
    rec: &Recorder,
    gate: &mut Gate,
) -> Vec<Metric> {
    let mut m = Vec::new();
    let (q_count, q_sum) = hdr_delta(a, b, "serve.sched.queue_ns");
    let queue_ms = per_call(q_sum, q_count as usize, 1e-6);
    let (mut rtt_total, mut hdr_total) = (0f64, 0f64);
    for kind in Kind::ALL {
        let rtts: Vec<f64> = done
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| ms(d.rtt))
            .collect();
        let (count, sum) = hdr_delta(a, b, &format!("serve.op.{}.hdr_ns", kind.op().name()));
        if count as usize != rtts.len() {
            gate.fail(format!(
                "serve {} count {} != {} requests sent: daemon stats polluted",
                kind.name(),
                count,
                rtts.len()
            ));
        }
        let rtt = mean(&rtts);
        let dispatch = per_call(sum, count as usize, 1e-6);
        rtt_total += rtts.iter().sum::<f64>();
        hdr_total += sum as f64 * 1e-6;
        let k = kind.name();
        m.push(
            Metric::new(format!("serve.{k}.rtt_ms"), rtt, "ms", rtts.len())
                .note("client-timed mean round trip"),
        );
        m.push(
            Metric::new(
                format!("serve.{k}.exec_ms"),
                dispatch - queue_ms,
                "ms",
                count as usize,
            )
            .note("serve.op.<op>.hdr_ns mean minus the queue mean"),
        );
        m.push(
            Metric::new(
                format!("serve.{k}.wire_ms"),
                rtt - dispatch,
                "ms",
                rtts.len(),
            )
            .note("round trip minus queue and exec"),
        );
    }
    m.push(Metric::new(
        "serve.queue_ms",
        queue_ms,
        "ms",
        q_count as usize,
    ));
    m.push(Metric::new(
        "serve.sched_shed",
        counter_delta(a, b, "serve.sched.shed") as f64,
        "count",
        1,
    ));
    m.push(Metric::new(
        "serve.deadline_exceeded",
        counter_delta(a, b, "serve.sched.deadline_exceeded") as f64,
        "count",
        1,
    ));
    let codec_us = codec_replay(s, done, rec);
    m.push(
        Metric::new("serve.codec_us", codec_us, "us", done.len())
            .note("client Request::encode + Reply::decode per request of the mix"),
    );
    let codec_total = codec_us * 1e-3 * done.len() as f64;
    m.push(
        Metric::new(
            "serve.leftover_pct",
            (rtt_total - hdr_total - codec_total) / rtt_total * 100.0,
            "%",
            done.len(),
        )
        .note(
            "round-trip time no span covers (kernel, loopback, socket waits) over total round trip",
        ),
    );
    m.extend(range_replay(s, rec, gate));
    m
}

/// Times the client's protocol work for each request kind on the
/// payloads the mix sent, and weights it by the mix.
fn codec_replay(s: &Setup, done: &[Done], rec: &Recorder) -> f64 {
    const REPS: usize = 20;
    let src = &s.ranges[0];
    let call = &s.calls[0];
    let mut total = 0f64;
    for kind in Kind::ALL {
        let (request, reply) = match kind {
            Kind::Range => (
                Request::DecompressRange {
                    start: 0,
                    end: WINDOW as u64,
                    stream: src.stream.clone(),
                },
                Reply::Range(src.full[..WINDOW].to_vec()),
            ),
            Kind::Predict => (
                Request::Predict {
                    model: call.model.clone(),
                    ratio: call.ratio,
                    field: call.field.clone(),
                },
                Reply::Json(format!(
                    "{{\"model\":\"{}@1\",\"config\":\"{}\"}}",
                    call.model, call.config
                )),
            ),
            Kind::Compress => (
                Request::Compress {
                    model: call.model.clone(),
                    ratio: call.ratio,
                    field: call.field.clone(),
                },
                Reply::Compress {
                    info: String::new(),
                    stream: call.stream.clone(),
                },
            ),
        };
        let payload = reply.encode();
        let name = format!("serve.codec.{}", kind.name());
        for _ in 0..REPS {
            rec.span(&name, 0, 0, || {
                std::hint::black_box(request.encode());
                std::hint::black_box(Reply::decode(kind.op(), &payload).is_ok());
            });
        }
        let (ns, n) = rec.total(&name);
        let count = done.iter().filter(|d| d.kind == kind).count();
        total += per_call(ns, n, 1e-3) * count as f64;
    }
    total / done.len().max(1) as f64
}

/// Library `decompress_range` on the same streams, outside the daemon,
/// with slab-decode counts from the global registry.
fn range_replay(s: &Setup, rec: &Recorder, gate: &mut Gate) -> Vec<Metric> {
    const PER_SOURCE: usize = 8;
    let sz = by_name("sz").expect("sz is registered");
    let registry = fxrz_telemetry::global();
    let mut rng = Rng::new(0x52414E);
    let (mut decoded, mut requested) = (0f64, 0f64);
    let slabs0 = registry
        .snapshot()
        .counter("archive.slab.decoded")
        .unwrap_or(0);
    for src in &s.ranges {
        for _ in 0..PER_SOURCE {
            let start = rng.below(src.full.len() - WINDOW + 1);
            let before = registry
                .snapshot()
                .counter("archive.slab.decoded")
                .unwrap_or(0);
            let (got, _) = rec.span("compressors.range", 0, 0, || {
                sz.decompress_range(&src.stream, start..start + WINDOW)
            });
            let slabs = registry
                .snapshot()
                .counter("archive.slab.decoded")
                .unwrap_or(0)
                - before;
            gate.record(match got {
                Ok(v) if v == src.full[start..start + WINDOW] => Ok(()),
                Ok(_) => Err("library range differs from full decode".into()),
                Err(e) => Err(format!("library range: {e}")),
            });
            decoded += if slabs > 0 {
                slabs as f64 * src.slab_elems
            } else {
                src.full.len() as f64
            };
            requested += WINDOW as f64;
        }
    }
    let slabs = registry
        .snapshot()
        .counter("archive.slab.decoded")
        .unwrap_or(0)
        - slabs0;
    let (ns, n) = rec.total("compressors.range");
    vec![
        Metric::new("compressors.range_ms", per_call(ns, n, 1e-6), "ms", n),
        Metric::new("compressors.range_amplification", decoded / requested, "ratio", n)
            .note("elements decoded per element requested; slabbed from archive.slab.decoded deltas, monolithic decode whole"),
        Metric::new("compressors.slabs_decoded", slabs as f64, "count", n),
    ]
}
