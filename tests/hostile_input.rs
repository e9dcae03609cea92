//! Hostile-input harness: every decoder of untrusted bytes, one
//! mutation schedule, three assertions.
//!
//! Each row of [`rows`] is one decoder entry point with one small valid
//! input and the offsets of that input's header and directory fields.
//! Every row goes through the same schedule:
//!
//! * every strict prefix of the input;
//! * [`FLIPS`] seeded single-bit flips;
//! * at each field, every byte set to `0x00` and to `0xFF`, and the whole
//!   field replaced by each of [`FORGED`] (re-encoded as a varint for
//!   varint fields, saturated to the width of fixed-width fields).
//!
//! For every mutation the harness asserts:
//!
//! 1. the decoder does not panic;
//! 2. a strict prefix is rejected with a typed error or decodes to exactly
//!    the unmutated result (raw codec-layer rows, which cannot know their
//!    own length, are exempt from this one);
//! 3. the peak bytes the decode allocates stay within `K × input + C`,
//!    one `K` and one `C` for every row (see their derivations), as
//!    measured by the counting global allocator below;
//! 4. a forgery a row lists as one it must reject (the `sz` access
//!    index's fields) is rejected with a typed error.
//!
//! The harness is one `#[test]` in its own binary, so the allocator counts
//! nothing but this test, and it runs every decode on the calling thread
//! (`with_threads(1)`) so a panic surfaces where `catch_unwind` sees it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use fxrz_archive::{Archive, ArchiveWriter};
use fxrz_codec::bitstream::{read_varint, write_varint};
use fxrz_codec::{huffman, lz77};
use fxrz_compressors::entropy::{decode_codes, encode_codes};
use fxrz_compressors::{slab, Codec, Compressor, ErrorConfig, CODECS};
use fxrz_datagen::{Dims, Field};
use fxrz_serve::protocol::{
    read_request, read_response, write_request, write_response, FrameError, Op, Reply, Request,
    RequestFrame, ResponseFrame, DEFAULT_MAX_FRAME,
};
use fxrz_stream::{StreamConfig, StreamDecoder, StreamEncoder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Output bytes one input byte may justify. Only zfp and fpzip size
/// their output from a header count before decoding it, each after
/// checking that count against what the payload can encode. The densest
/// valid stream is zfp's: an all-zero `4³` block costs one flag bit, so
/// one byte carries 8 blocks × 64 values × 4 bytes = 2048 output bytes.
/// fpzip stays below it: at most 61 values per payload byte, each
/// needing an `i64` residual and an `f32` output, is 732 bytes.
const K: usize = 8 * 64 * 4;

/// The largest fixed capacity a decoder reserves before its input vouches
/// for it: lz77 reserves up to 1 MiB of output for a plausible length
/// prefix.
const C: usize = 1 << 20;

/// Seeded single-bit flips per row.
const FLIPS: usize = 256;

/// Values forged into every header and directory field.
const FORGED: [u64; 3] = [1 << 30, u32::MAX as u64, u64::MAX];

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// Forwards to [`System`], tracking live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Requests that would take live bytes past this are refused, so a
/// runaway decoder aborts the test instead of exhausting the host.
const CEILING: usize = 1 << 30;

/// Books `size` more live bytes, or refuses them past [`CEILING`].
fn grow(size: usize) -> bool {
    let live = LIVE.fetch_add(size, Ordering::SeqCst) + size;
    if live > CEILING {
        LIVE.fetch_sub(size, Ordering::SeqCst);
        return false;
    }
    PEAK.fetch_max(live, Ordering::SeqCst);
    true
}

fn shrink(size: usize) {
    LIVE.fetch_sub(size, Ordering::SeqCst);
}

#[expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait; this one only counts and forwards to System"
)]
// SAFETY: both methods forward the caller's pointer and layout unchanged
// to `System`, which upholds the `GlobalAlloc` contract; a refused
// request returns null, which the contract permits. The provided
// `alloc_zeroed` and `realloc` go through these two, so they count too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !grow(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        let p = unsafe { System.alloc(layout) };
        if p.is_null() {
            shrink(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the most bytes it held at once
/// beyond what was live when it started.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst).saturating_sub(base))
}

// ---------------------------------------------------------------------------
// Rows
// ---------------------------------------------------------------------------

/// A header or directory field of a row's input.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Slot {
    /// A little-endian integer (or byte string) of this many bytes.
    Fixed { at: usize, width: usize },
    /// An LEB128 varint.
    Varint { at: usize },
}

/// A decode's canonical byte image, or its typed error's text.
type Outcome = Result<Vec<u8>, String>;

/// Decodes, returning the outcome and the decode's peak allocation.
type Run = dyn Fn(&[u8]) -> (Outcome, usize);

/// One decoder of untrusted bytes.
struct Row {
    name: String,
    input: Vec<u8>,
    slots: Vec<Slot>,
    /// Whether strict prefixes must be rejected or decode to the full
    /// result (raw codec-layer rows are exempt).
    prefix_contract: bool,
    /// Forged field values the decoder must reject with a typed error.
    rejects: Vec<(Slot, u64)>,
    run: Box<Run>,
}

/// Builds a row from a typed decoder and the canonical image of its
/// result. Only the decoder is measured; the image is taken afterwards.
fn row<T, E: Display>(
    name: impl Into<String>,
    input: Vec<u8>,
    slots: Vec<Slot>,
    prefix_contract: bool,
    decode: impl Fn(&[u8]) -> Result<T, E> + 'static,
    image: impl Fn(&T) -> Vec<u8> + 'static,
) -> Row {
    Row {
        name: name.into(),
        input,
        slots,
        prefix_contract,
        rejects: Vec::new(),
        run: Box::new(move |bytes| {
            let (out, peak) = measure(|| decode(bytes));
            (out.map(|v| image(&v)).map_err(|e| e.to_string()), peak)
        }),
    }
}

/// Records the fields of an input as it is walked front to back.
struct Walk<'a> {
    bytes: &'a [u8],
    pos: usize,
    slots: Vec<Slot>,
}

impl<'a> Walk<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            slots: Vec::new(),
        }
    }

    fn fixed(&mut self, width: usize) -> u64 {
        self.slots.push(Slot::Fixed {
            at: self.pos,
            width,
        });
        let field = &self.bytes[self.pos..self.pos + width];
        self.pos += width;
        field
            .iter()
            .rev()
            .take(8)
            .fold(0, |acc, &b| (acc << 8) | u64::from(b))
    }

    fn varint(&mut self) -> u64 {
        self.slots.push(Slot::Varint { at: self.pos });
        read_varint(self.bytes, &mut self.pos).expect("valid input")
    }

    fn skip(&mut self, n: usize) {
        self.pos += n;
    }

    /// `u16` length-prefixed string of the serve protocol.
    fn str16(&mut self) {
        let n = self.fixed(2) as usize;
        self.skip(n);
    }

    /// A serve-protocol field: name, ndim, axes (the samples follow).
    fn serve_field(&mut self) {
        self.str16();
        let ndim = self.fixed(1);
        for _ in 0..ndim {
            self.fixed(4);
        }
    }

    /// The common compressor header: magic, name, ndim, axes.
    fn codec_header(&mut self) {
        self.fixed(1);
        let n = self.varint() as usize;
        self.skip(n);
        for _ in 0..self.varint() {
            self.varint();
        }
    }

    /// A compressor stream starting here: its header, then the fields
    /// its codec adds (the slab directory and each slab's own header for
    /// slabbed streams); the walk ends at the stream's end.
    fn codec_stream(&mut self, len: usize) {
        let end = self.pos + len;
        let magic = self.bytes[self.pos];
        self.codec_header();
        let row = fxrz_compressors::codec_for_magic(magic).expect("known magic");
        if self.bytes[self.pos] == slab::SLAB_TAG && self.bytes[self.pos + 1] != 0 {
            self.fixed(1);
            let n = self.varint();
            let mut lens = Vec::new();
            for _ in 0..n {
                self.varint();
                lens.push(self.varint() as usize);
                self.fixed(4);
                self.fixed(1);
            }
            for len in lens {
                self.codec_stream(len);
            }
        } else {
            match row.name {
                "zfp" => {
                    self.fixed(1);
                    self.fixed(8);
                }
                "fpzip" => {
                    self.fixed(1);
                }
                // The SZ family and mgard lead with their LZ77 length.
                _ => {
                    self.varint();
                }
            }
        }
        self.pos = end;
    }
}

/// The bytes of a field, its name and shape, bit-exact.
fn field_image(f: &Field) -> Vec<u8> {
    let mut out = f.name().as_bytes().to_vec();
    for &n in f.dims().shape() {
        out.extend_from_slice(&(n as u64).to_le_bytes());
    }
    out.extend(values_image(f.data()));
    out
}

fn values_image(values: &[f32]) -> Vec<u8> {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect()
}

/// The codec rows' input field: 512 values, non-cubic so that forging
/// the last axis to 2^30 lands exactly on the header's 2^34-element cap.
fn codec_field() -> Field {
    Field::from_fn("hostile/codec", Dims::d3(4, 4, 32), |c| {
        let t = (c[0] * 128 + c[1] * 32 + c[2]) as f32;
        (t * 0.05).sin() + 0.3 * (t * 0.013).cos()
    })
}

/// Plane budget that splits [`codec_field`] into four slabs.
const SLAB_BUDGET: usize = 128;

fn config(codec: &Codec) -> ErrorConfig {
    match codec.name {
        "fpzip" => ErrorConfig::Precision(16),
        _ => ErrorConfig::Abs(1e-3),
    }
}

/// A valid stream of `codec`, slabbed so the slab directory is reached.
fn codec_stream(codec: &Codec, field: &Field) -> Vec<u8> {
    let comp = (codec.make)();
    let cfg = config(codec);
    slab::compress_slabbed(codec.magic, field, SLAB_BUDGET, |sub| {
        comp.compress(sub, &cfg)
    })
    .expect("slab compress")
    .expect("field fills four slabs")
}

fn codec_rows(out: &mut Vec<Row>) {
    let field = codec_field();
    for codec in CODECS {
        let input = codec_stream(codec, &field);
        let mut w = Walk::new(&input);
        w.codec_stream(input.len());
        let slots = w.slots;
        let comp: Box<dyn Compressor> = (codec.make)();
        out.push(row(
            format!("{}::decompress", codec.name),
            input.clone(),
            slots.clone(),
            true,
            move |b| comp.decompress(b),
            field_image,
        ));
        let comp: Box<dyn Compressor> = (codec.make)();
        out.push(row(
            format!("{}::decompress_range", codec.name),
            input,
            slots,
            true,
            move |b| comp.decompress_range(b, 100..300),
            |v: &Vec<f32>| values_image(v),
        ));
        // The range decode of a v1 stream, which for `sz` and `sz-fse`
        // stops at the window's last row.
        let comp: Box<dyn Compressor> = (codec.make)();
        let input = comp.compress(&field, &config(codec)).expect("compress");
        let mut w = Walk::new(&input);
        w.codec_stream(input.len());
        let slots = w.slots;
        out.push(row(
            format!("{}::decompress_range/monolithic", codec.name),
            input,
            slots,
            true,
            move |b| comp.decompress_range(b, 100..300),
            |v: &Vec<f32>| values_image(v),
        ));
    }
}

/// The LZ77 payload of `field`'s `sz` stream, a row that range-decodes
/// `window` from such a payload (wrapped in the stream's header and a
/// literal-only LZ77 stream, so that every payload field is a slot), and
/// a walk of the payload up to its entropy blocks' contents.
fn sz_payload_row(
    name: &str,
    field: &Field,
    window: std::ops::Range<usize>,
) -> (Row, Vec<u8>, usize) {
    use fxrz_compressors::header::{self, magic};
    use fxrz_compressors::sz::Sz;
    let stream = Sz
        .compress(field, &ErrorConfig::Abs(1e-3))
        .expect("compress");
    let (field_name, dims, off) = header::read(&stream, magic::SZ, "sz").expect("header");
    let input = lz77::decompress(&stream[off..]).expect("payload");
    let mut head = Vec::new();
    header::write(&mut head, magic::SZ, &field_name, dims);
    let row = row(
        name,
        input.clone(),
        Vec::new(),
        true,
        move |payload| {
            let mut bytes = head.clone();
            for _ in 0..2 {
                write_varint(&mut bytes, payload.len() as u64);
            }
            bytes.extend_from_slice(payload);
            write_varint(&mut bytes, 0);
            Sz.decompress_range(&bytes, window.clone())
        },
        |v: &Vec<f32>| values_image(v),
    );
    (row, input, dims.axis(0).div_ceil(8))
}

/// Walks an `sz` payload with plane flags up to its first entropy block's
/// contents: the bound, the flags mark, the flags, the section header and
/// block 0's tag and length.
fn sz_planes_head(w: &mut Walk<'_>, flag_bytes: usize) -> usize {
    w.fixed(8); // error bound
    w.fixed(1); // plane-flags mark
    w.fixed(flag_bytes);
    w.varint(); // tagged-block sentinel
    w.varint(); // symbol count
    let blocks = w.varint() as usize;
    w.fixed(1);
    blocks
}

/// `sz` payloads whose range decodes seek. The first has access-index
/// entries; its decode starts at the last one, and each forged index
/// field, and each entry forged out of order, must be rejected. The
/// second is all zeros: its one entropy block codes one value, so its
/// decode starts at a flagged plane with no entry.
fn sz_seek_rows(out: &mut Vec<Row>) {
    // Every 8th row is noise, the rest zero: the per-plane choice reads
    // every 8th row, so it flags every plane, and at 2^11 elements a
    // plane the index holds entries at planes 8 and 16.
    let field = Field::from_fn("hostile/index", Dims::d3(18, 32, 64), |c| {
        if c[1] % 8 != 0 {
            return 0.0;
        }
        let mut h = (((c[0] * 32 + c[1]) * 64 + c[2]) as u64) ^ 0x9E37_79B9_7F4A_7C15;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 31;
        (h >> 40) as f32 / (1u64 << 24) as f32
    });
    let window = 17 * 2048 + 100..17 * 2048 + 300;
    let (mut r, input, flag_bytes) = sz_payload_row("sz::decompress_range/indexed", &field, window);
    let mut w = Walk::new(&input);
    let blocks = sz_planes_head(&mut w, flag_bytes);
    for b in 0..blocks {
        if b > 0 {
            w.fixed(1);
        }
        let len = w.varint() as usize;
        w.skip(len);
    }
    let index = w.slots.len();
    let entries = w.varint();
    assert!(entries >= 2, "the index holds {entries} entries");
    let mut planes = Vec::new();
    for _ in 0..entries {
        planes.push((w.slots.len(), w.varint()));
        for _ in 0..4 {
            w.varint();
        }
    }
    r.rejects = w.slots[index..]
        .iter()
        .flat_map(|&slot| FORGED.map(|v| (slot, v)))
        .collect();
    r.rejects.push((w.slots[planes[0].0], 0));
    r.rejects.push((w.slots[planes[1].0], planes[0].1));
    r.slots = w.slots;
    out.push(r);

    let zeros = Field::new("hostile/zeros", Dims::d3(24, 32, 64), vec![0.0; 24 * 2048]);
    let window = 9 * 2048 + 5..9 * 2048 + 100;
    let (mut r, input, flag_bytes) = sz_payload_row("sz::decompress_range/uniform", &zeros, window);
    let mut w = Walk::new(&input);
    assert_eq!(sz_planes_head(&mut w, flag_bytes), 1, "one entropy block");
    w.varint(); // block length
    w.varint(); // FSE: symbol count
    assert_eq!(w.varint(), 1, "one distinct code");
    w.varint(); // the code
    w.varint(); // index entry count
    r.slots = w.slots;
    out.push(r);
}

/// `sz` streams of long rows (4,097 points) and of many short rows.
/// Their header fields forged claim rows longer still and a huge row
/// count; no claim may size a decode's allocation.
fn sz_row_claim_rows(out: &mut Vec<Row>) {
    use fxrz_compressors::sz::Sz;
    let long = Field::from_fn("hostile/long", Dims::d2(3, 4_097), |c| {
        (c[0] * 2 + c[1] % 5) as f32 * 0.25
    });
    let many = Field::from_fn("hostile/many", Dims::d3(2, 201, 3), |c| {
        (c[0] + c[1] * 3 + c[2] % 2) as f32 * 0.5
    });
    for (name, field) in [("long_rows", long), ("many_rows", many)] {
        let input = Sz
            .compress(&field, &ErrorConfig::Abs(1e-3))
            .expect("compress");
        let mut w = Walk::new(&input);
        w.codec_stream(input.len());
        let slots = w.slots;
        out.push(row(
            format!("sz::decompress/{name}"),
            input,
            slots,
            true,
            |b| Sz.decompress(b),
            field_image,
        ));
    }
}

/// A small field for the serve frames.
fn serve_field() -> Field {
    Field::from_fn("hostile/serve", Dims::d3(2, 2, 4), |c| {
        (c[0] * 8 + c[1] * 4 + c[2]) as f32 * 0.5 - 3.0
    })
}

/// A valid request for every op; the exhaustive match makes a new op a
/// compile error here.
fn request_for(op: Op, field: &Field, stream: &[u8]) -> Request {
    match op {
        Op::Ping => Request::Ping,
        Op::Features => Request::Features {
            field: field.clone(),
        },
        Op::Predict => Request::Predict {
            model: "nyx@2".into(),
            ratio: 20.0,
            field: field.clone(),
        },
        Op::Compress => Request::Compress {
            model: "nyx".into(),
            ratio: 30.0,
            field: field.clone(),
        },
        Op::Decompress => Request::Decompress {
            stream: stream.to_vec(),
        },
        Op::DecompressRange => Request::DecompressRange {
            start: 2,
            end: 9,
            stream: stream.to_vec(),
        },
        Op::LoadModel => Request::LoadModel {
            id: "nyx".into(),
            version: 3,
            json: "{\"k\":1}".into(),
        },
        Op::Stats => Request::Stats,
        Op::StreamOpen => Request::StreamOpen {
            target_ratio: 12.0,
            window: 16,
            models: vec!["nyx".into(), "rtm@1".into()],
        },
        Op::StreamFrame => Request::StreamFrame {
            stream_id: 1,
            field: field.clone(),
        },
        Op::StreamClose => Request::StreamClose { stream_id: 1 },
    }
}

/// The fields of `op`'s request payload, walked after the header.
fn request_payload_slots(w: &mut Walk<'_>, op: Op) {
    match op {
        Op::Ping | Op::Stats | Op::Decompress => {}
        Op::Features => w.serve_field(),
        Op::Predict | Op::Compress => {
            w.str16();
            w.fixed(8);
            w.serve_field();
        }
        Op::DecompressRange => {
            w.fixed(8);
            w.fixed(8);
        }
        Op::LoadModel => {
            w.str16();
            w.fixed(4);
        }
        Op::StreamOpen => {
            w.fixed(8);
            w.fixed(4);
            for _ in 0..w.fixed(1) {
                w.str16();
            }
        }
        Op::StreamFrame => {
            w.fixed(4);
            w.serve_field();
        }
        Op::StreamClose => {
            w.fixed(4);
        }
    }
}

/// The reply each op promises.
fn reply_for(op: Op, field: &Field, stream: &[u8]) -> Reply {
    match op {
        Op::Ping => Reply::Pong,
        Op::Features | Op::Predict | Op::LoadModel | Op::Stats => {
            Reply::Json("{\"ok\":true}".into())
        }
        Op::Compress => Reply::Compress {
            info: "{\"measured_ratio\":30.0}".into(),
            stream: stream.to_vec(),
        },
        Op::Decompress => Reply::Field(field.clone()),
        Op::DecompressRange => Reply::Range(field.data()[2..9].to_vec()),
        Op::StreamOpen | Op::StreamFrame | Op::StreamClose => Reply::Stream {
            info: "{\"stream_id\":1}".into(),
            bytes: stream.to_vec(),
        },
    }
}

fn reply_payload_slots(w: &mut Walk<'_>, op: Op) {
    match op {
        Op::Compress | Op::StreamOpen | Op::StreamFrame | Op::StreamClose => {
            w.fixed(4);
        }
        Op::Decompress => w.serve_field(),
        Op::Ping | Op::Features | Op::Predict | Op::LoadModel | Op::Stats | Op::DecompressRange => {
        }
    }
}

fn serve_rows(out: &mut Vec<Row>) {
    let field = serve_field();
    let stream = fxrz_compressors::fpzip::Fpzip
        .compress(&field, &ErrorConfig::Precision(16))
        .expect("compress");
    for op in Op::ALL {
        let req = request_for(op, &field, &stream);
        let mut input = Vec::new();
        let frame = RequestFrame {
            op,
            req_id: 0x0102_0304_0506_0708,
            deadline_ms: 500,
            payload: req.encode(),
        };
        write_request(&mut input, &frame).expect("in-memory write");
        let mut w = Walk::new(&input);
        for width in [4, 1, 1, 8, 4, 4] {
            w.fixed(width);
        }
        request_payload_slots(&mut w, op);
        let slots = w.slots;
        out.push(row(
            format!("read_request+Request::decode/{}", op.name()),
            input,
            slots,
            true,
            |b| {
                let frame = read_request(&mut &*b, DEFAULT_MAX_FRAME)?
                    .ok_or(FrameError::Malformed("clean EOF before the frame"))?;
                let req = Request::decode(frame.op, &frame.payload)?;
                Ok::<_, FrameError>((frame, req))
            },
            |(frame, req)| {
                let mut image = vec![frame.op as u8];
                image.extend_from_slice(&frame.req_id.to_le_bytes());
                image.extend_from_slice(&frame.deadline_ms.to_le_bytes());
                image.extend(req.encode());
                image
            },
        ));

        let reply = reply_for(op, &field, &stream);
        let mut input = Vec::new();
        let frame = ResponseFrame::ok(op, 0x1112_1314_1516_1718, reply.encode());
        write_response(&mut input, &frame).expect("in-memory write");
        let mut w = Walk::new(&input);
        for width in [4, 1, 1, 1, 8, 4] {
            w.fixed(width);
        }
        reply_payload_slots(&mut w, op);
        let slots = w.slots;
        out.push(row(
            format!("read_response+Reply::decode/{}", op.name()),
            input,
            slots,
            true,
            |b| {
                let frame = read_response(&mut &*b, DEFAULT_MAX_FRAME)?;
                let op = Op::from_u8(frame.op).ok_or(FrameError::UnknownOp(frame.op))?;
                let reply = Reply::decode(op, &frame.payload)?;
                Ok::<_, FrameError>((frame, reply))
            },
            |(frame, reply)| {
                let mut image = vec![frame.status as u8, frame.op];
                image.extend_from_slice(&frame.req_id.to_le_bytes());
                image.extend(reply.encode());
                image
            },
        ));
    }
}

/// Both archive layouts over the same two blobs: v2 as the writer emits
/// it (trailing index with slab rows) and the legacy v1 leading index.
fn archive_rows(out: &mut Vec<Row>) {
    let field = codec_field();
    let blobs: Vec<(&str, Vec<u8>)> = ["sz", "fpzip"]
        .into_iter()
        .map(|name| {
            let codec = CODECS.iter().find(|c| c.name == name).expect("row");
            (name, codec_stream(codec, &field))
        })
        .collect();

    let mut writer = ArchiveWriter::new();
    for (name, blob) in &blobs {
        writer.add_raw(name, blob.clone()).expect("add");
    }
    let v2 = writer.finish();
    let mut w = Walk::new(&v2);
    w.fixed(6);
    for (_, blob) in &blobs {
        w.codec_stream(blob.len());
    }
    for _ in 0..w.varint() {
        let n = w.varint() as usize;
        w.skip(n);
        w.varint();
        w.varint();
        w.fixed(1);
        for _ in 0..w.varint() {
            w.varint();
            w.varint();
            w.varint();
            w.fixed(4);
            w.fixed(1);
        }
    }
    w.fixed(8);
    let slots = w.slots;
    out.push(archive_row("Archive::open+get/v2", v2, slots));

    let mut v1 = b"FXRZA1".to_vec();
    write_varint(&mut v1, blobs.len() as u64);
    for (name, blob) in &blobs {
        write_varint(&mut v1, name.len() as u64);
        v1.extend_from_slice(name.as_bytes());
        write_varint(&mut v1, blob.len() as u64);
    }
    for (_, blob) in &blobs {
        v1.extend_from_slice(blob);
    }
    let mut w = Walk::new(&v1);
    w.fixed(6);
    for _ in 0..w.varint() {
        let n = w.varint() as usize;
        w.skip(n);
        w.varint();
    }
    for (_, blob) in &blobs {
        w.codec_stream(blob.len());
    }
    let slots = w.slots;
    out.push(archive_row("Archive::open+get/v1", v1, slots));
}

fn archive_row(name: &str, input: Vec<u8>, slots: Vec<Slot>) -> Row {
    row(
        name,
        input,
        slots,
        true,
        |b| {
            let archive = Archive::open(b)?;
            archive
                .entries()
                .iter()
                .map(|e| Ok((e.name.clone(), archive.get(&e.name)?)))
                .collect::<Result<Vec<_>, fxrz_archive::ArchiveError>>()
        },
        |fields| {
            fields
                .iter()
                .flat_map(|(name, f)| name.bytes().chain(field_image(f)))
                .collect()
        },
    )
}

fn stream_row(out: &mut Vec<Row>) {
    let mut enc = StreamEncoder::new(StreamConfig::new(6.0)).expect("encoder");
    let mut input = enc.header();
    for f in 0..3 {
        let chunk: Vec<f32> = (0..128)
            .map(|i| ((f * 128 + i) as f32 * 0.02).sin())
            .collect();
        input.extend(enc.push(&chunk).expect("push").bytes);
    }
    input.extend(enc.finish());

    let mut w = Walk::new(&input);
    w.fixed(6);
    w.fixed(8);
    w.varint();
    while input[w.pos] != fxrz_stream::frame::TRAILER_TAG {
        w.fixed(1);
        w.varint();
        w.fixed(8);
        let len = w.varint() as usize;
        w.fixed(4);
        w.codec_stream(len);
    }
    w.fixed(1);
    w.varint();
    w.varint();
    w.fixed(4);
    let slots = w.slots;
    out.push(row(
        "StreamDecoder::decode",
        input,
        slots,
        true,
        StreamDecoder::decode,
        |s| {
            let mut image = values_image(&s.samples);
            image.extend_from_slice(&(s.frames.len() as u64).to_le_bytes());
            image
        },
    ));
}

/// SZ-like quantization codes: skewed around the zero-residual code.
fn sz_codes(rng: &mut StdRng, n: usize) -> Vec<u32> {
    (0..n)
        .map(|_| match rng.gen_range(0..100u32) {
            0..=59 => 32_768,
            60..=89 => 32_764 + rng.gen_range(0..9u32),
            90..=97 => 32_000 + rng.gen_range(0..1_500u32),
            _ => 0,
        })
        .collect()
}

fn entropy_rows(out: &mut Vec<Row>, rng: &mut StdRng) {
    let codes = sz_codes(rng, 600);
    // The section the encoder writes, and a legacy single-Huffman
    // section (`varint(len) | huffman stream`) as earlier encoders wrote.
    let mut fse = Vec::new();
    fxrz_codec::with_scratch(|s| encode_codes(s, &codes, &mut fse));
    let stream = huffman::encode(&codes);
    let mut legacy = Vec::new();
    write_varint(&mut legacy, stream.len() as u64);
    legacy.extend_from_slice(&stream);
    for (layout, input) in [("Fse", fse), ("Huffman", legacy)] {
        let mut w = Walk::new(&input);
        if layout == "Huffman" {
            w.varint();
            huffman_header(&mut w);
        } else {
            w.varint();
            w.varint();
            for _ in 0..w.varint() {
                w.fixed(1);
                let len = w.varint() as usize;
                w.skip(len);
            }
        }
        let slots = w.slots;
        let expected = codes.len();
        out.push(row(
            format!("entropy::decode_codes/{layout}"),
            input,
            slots,
            true,
            move |b| {
                let mut pos = 0;
                decode_codes(b, &mut pos, expected, expected).map(|c| (c, pos))
            },
            |(codes, pos)| {
                let mut image: Vec<u8> = codes.iter().flat_map(|c| c.to_le_bytes()).collect();
                image.extend_from_slice(&pos.to_le_bytes());
                image
            },
        ));
    }

    let input = huffman::encode(&sz_codes(rng, 600));
    let mut w = Walk::new(&input);
    huffman_header(&mut w);
    let slots = w.slots;
    out.push(row(
        "huffman::decode",
        input,
        slots,
        false,
        huffman::decode,
        |codes| codes.iter().flat_map(|c| c.to_le_bytes()).collect(),
    ));

    let raw: Vec<u8> = (0..1_500u32)
        .map(|i| if i % 97 < 60 { (i % 7) as u8 } else { i as u8 })
        .collect();
    let input = lz77::compress(&raw);
    let mut w = Walk::new(&input);
    w.varint();
    w.varint();
    let slots = w.slots;
    out.push(row(
        "lz77::decompress",
        input,
        slots,
        false,
        lz77::decompress,
        Vec::clone,
    ));
}

/// Huffman stream header: symbol count, dictionary size, dictionary.
fn huffman_header(w: &mut Walk<'_>) {
    w.varint();
    for _ in 0..w.varint() {
        w.varint();
        w.varint();
    }
}

fn rows(rng: &mut StdRng) -> Vec<Row> {
    let mut out = Vec::new();
    serve_rows(&mut out);
    archive_rows(&mut out);
    stream_row(&mut out);
    entropy_rows(&mut out, rng);
    codec_rows(&mut out);
    sz_seek_rows(&mut out);
    sz_row_claim_rows(&mut out);
    out
}

// ---------------------------------------------------------------------------
// Schedule
// ---------------------------------------------------------------------------

/// How a mutated input was derived from the valid one.
#[derive(Debug)]
enum Mutation {
    Prefix(usize),
    Flip { byte: usize, bit: u32 },
    SetByte { at: usize, value: u8 },
    Forge { slot: Slot, value: u64 },
}

/// The byte span a slot occupies in `input`.
fn span(input: &[u8], slot: Slot) -> std::ops::Range<usize> {
    match slot {
        Slot::Fixed { at, width } => at..at + width,
        Slot::Varint { at } => {
            let mut end = at;
            read_varint(input, &mut end).expect("valid input");
            at..end
        }
    }
}

/// `input` with `slot` replaced by `value`: re-encoded as a varint, or
/// saturated to a fixed field's width.
fn forge(input: &[u8], slot: Slot, value: u64) -> Vec<u8> {
    let s = span(input, slot);
    let mut out = input[..s.start].to_vec();
    match slot {
        Slot::Fixed { width, .. } => {
            let max = if width >= 8 {
                u64::MAX
            } else {
                (1 << (8 * width)) - 1
            };
            let bytes = value.min(max).to_le_bytes();
            out.extend((0..width).map(|i| bytes.get(i).copied().unwrap_or(0)));
        }
        Slot::Varint { .. } => write_varint(&mut out, value),
    }
    out.extend_from_slice(&input[s.end..]);
    out
}

/// Every mutation of `row`'s input, in schedule order.
fn schedule(row: &Row, rng: &mut StdRng) -> Vec<Mutation> {
    let n = row.input.len();
    let mut out: Vec<Mutation> = (0..n).map(Mutation::Prefix).collect();
    for _ in 0..FLIPS {
        out.push(Mutation::Flip {
            byte: rng.gen_range(0..n),
            bit: rng.gen_range(0..8u32),
        });
    }
    for &slot in &row.slots {
        for at in span(&row.input, slot) {
            for value in [0x00, 0xFF] {
                out.push(Mutation::SetByte { at, value });
            }
        }
        for value in FORGED {
            out.push(Mutation::Forge { slot, value });
        }
    }
    for &(slot, value) in &row.rejects {
        out.push(Mutation::Forge { slot, value });
    }
    out
}

fn apply(input: &[u8], m: &Mutation) -> Vec<u8> {
    match *m {
        Mutation::Prefix(cut) => input[..cut].to_vec(),
        Mutation::Flip { byte, bit } => {
            let mut out = input.to_vec();
            out[byte] ^= 1 << bit;
            out
        }
        Mutation::SetByte { at, value } => {
            let mut out = input.to_vec();
            out[at] = value;
            out
        }
        Mutation::Forge { slot, value } => forge(input, slot, value),
    }
}

/// Runs the schedule over one row; returns a line per violated assertion.
fn check(row: &Row, rng: &mut StdRng) -> Vec<String> {
    let (full, _) = (row.run)(&row.input);
    let full = full.unwrap_or_else(|e| panic!("{}: the valid input fails: {e}", row.name));
    let mut failures = Vec::new();
    for m in schedule(row, rng) {
        let bytes = apply(&row.input, &m);
        let Ok((outcome, peak)) = catch_unwind(AssertUnwindSafe(|| (row.run)(&bytes))) else {
            failures.push(format!("{}: {m:?}: panicked", row.name));
            continue;
        };
        if row.prefix_contract && matches!(m, Mutation::Prefix(_)) {
            if let Ok(image) = &outcome {
                if *image != full {
                    failures.push(format!(
                        "{}: {m:?} of {}: decoded as Ok to a different result",
                        row.name,
                        row.input.len()
                    ));
                }
            }
        }
        if let Mutation::Forge { slot, value } = m {
            if row.rejects.contains(&(slot, value)) && outcome.is_ok() {
                failures.push(format!("{}: {m:?}: a forgery decoded as Ok", row.name));
            }
        }
        let bound = K * bytes.len() + C;
        if peak > bound {
            failures.push(format!(
                "{}: {m:?}: peak allocation {peak} B exceeds {K} × {} + {C} = {bound} B",
                row.name,
                bytes.len()
            ));
        }
    }
    failures
}

#[test]
fn every_decoder_survives_the_mutation_schedule() {
    /// Violations listed per row; the rest are counted.
    const SHOWN: usize = 4;
    let mut rng = StdRng::seed_from_u64(0x4057_11E5);
    let (mut total, mut lines) = (0, Vec::new());
    fxrz_parallel::with_threads(1, || {
        for row in rows(&mut rng) {
            let all = check(&row, &mut rng);
            total += all.len();
            if all.len() > SHOWN {
                lines.push(format!(
                    "{}: {} violations, first {SHOWN}:",
                    row.name,
                    all.len()
                ));
            }
            lines.extend(all.into_iter().take(SHOWN));
        }
    });
    assert!(
        total == 0,
        "{total} hostile-input violations:\n{}",
        lines.join("\n")
    );
}
