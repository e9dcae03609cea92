//! The fxrz-serve wire protocol: length-prefixed binary frames over TCP
//! or Unix sockets.
//!
//! Every frame is a fixed header followed by an op-specific payload. All
//! integers are little-endian. Request header (22 bytes):
//!
//! ```text
//! magic "FXRS" | version u8 | op u8 | req_id u64 | deadline_ms u32 | len u32
//! ```
//!
//! Response header (19 bytes; lowercase magic so a peer reading the wrong
//! direction fails fast):
//!
//! ```text
//! magic "fxrs" | version u8 | status u8 | op u8 | req_id u64 | len u32
//! ```
//!
//! The payload length is an **untrusted** field: readers reject frames
//! above a configurable cap, and below it the payload buffer grows only
//! with the bytes that actually arrive. Every string / shape / data
//! length inside a payload is validated against the actual payload size,
//! so a claimed length never drives an allocation larger than the bytes
//! that were really received (`tests/hostile_input.rs` measures this).
//!
//! Hostile bytes must come back as typed errors, never panics: the
//! module denies clippy's panicking constructs outside its tests. It
//! also denies wildcard arms over enums outside its tests, so
//! `Request::decode` and `Reply::decode` must name every [`Op`] and no
//! `_ =>` arm can absorb a new op.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::panic_in_result_fn
)]
// Clippy reports a `_` arm that covers one variant under the second name.
#![cfg_attr(
    not(test),
    deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )
)]

use fxrz_datagen::{dims::MAX_NDIM, Dims, Field};
use std::io::{self, Read, Write};

/// Magic prefix of request frames.
pub const REQUEST_MAGIC: [u8; 4] = *b"FXRS";
/// Magic prefix of response frames.
pub const RESPONSE_MAGIC: [u8; 4] = *b"fxrs";
/// Current protocol version; bumped on any incompatible frame change.
pub const PROTOCOL_VERSION: u8 = 1;
/// Default cap on a frame payload (64 MiB) — configurable per server.
pub const DEFAULT_MAX_FRAME: u32 = 64 << 20;
/// Cap on any length-prefixed string inside a payload (model ids, names).
pub const MAX_STRING: usize = 4096;
/// Size of the fixed request header.
pub const REQUEST_HEADER_LEN: usize = 22;
/// Size of the fixed response header.
pub const RESPONSE_HEADER_LEN: usize = 19;

/// Declares every op once: its variant, wire byte and metric name. The
/// one table row generates the enum discriminant, the [`Op::from_u8`]
/// arm, the [`Op::name`] arm and the [`Op::ALL`] entry, so they cannot
/// disagree; two rows with one byte fail to compile (E0081).
macro_rules! ops {
    ($($(#[doc = $doc:literal])* $variant:ident = $byte:literal, $name:literal;)*) => {
        /// Operation selector carried in every request frame.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Op {
            $($(#[doc = $doc])* $variant = $byte,)*
        }

        impl Op {
            /// Every op, in table order.
            pub const ALL: [Op; [$(Op::$variant),*].len()] = [$(Op::$variant),*];

            /// Decodes the wire byte.
            pub fn from_u8(b: u8) -> Option<Self> {
                match b {
                    $($byte => Some(Op::$variant),)*
                    _ => None,
                }
            }

            /// Lowercase identifier used in telemetry metric names.
            pub fn name(&self) -> &'static str {
                match self {
                    $(Op::$variant => $name,)*
                }
            }
        }
    };
}

ops! {
    /// Liveness probe; empty payload both ways.
    Ping = 0x01, "ping";
    /// Extract the FXRZ feature vector from a field.
    Features = 0x02, "features";
    /// Run the compression-free analysis (features + CA + model) only.
    Predict = 0x03, "predict";
    /// Full fixed-ratio compression through a registered model.
    Compress = 0x04, "compress";
    /// Decompress a self-describing compressor stream.
    Decompress = 0x05, "decompress";
    /// Load (or hot-reload) a trained model into the registry.
    LoadModel = 0x06, "load_model";
    /// Server statistics: models, queue state, telemetry snapshot.
    Stats = 0x07, "stats";
    /// Decompress an element range of a stream without decoding the rest.
    DecompressRange = 0x08, "decompress_range";
    /// Open a per-connection `FXRZS1` stream session.
    StreamOpen = 0x09, "stream_open";
    /// Encode one frame into an open stream session.
    StreamFrame = 0x0A, "stream_frame";
    /// Close a stream session and collect its trailer.
    StreamClose = 0x0B, "stream_close";
}

/// Response disposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Request executed; payload is the op's reply.
    Ok = 0,
    /// Load-shed: the scheduler queue was full. Retry later.
    Busy = 1,
    /// Request failed; payload is `code u16 | utf-8 message`.
    Error = 2,
}

impl Status {
    /// Decodes the wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0 => Status::Ok,
            1 => Status::Busy,
            2 => Status::Error,
            _ => return None,
        })
    }
}

/// Error codes carried in `Status::Error` responses, as a `u16`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Frame-level violation (bad magic / version / oversized).
    BadFrame = 1,
    /// Payload did not decode for the op.
    BadRequest = 2,
    /// `model_ref` matched nothing in the registry.
    NoSuchModel = 3,
    /// A `LoadModel` payload was rejected (parse / version / bind).
    ModelRejected = 4,
    /// The compression engine failed.
    Engine = 5,
    /// The request sat in the queue past its deadline.
    DeadlineExceeded = 6,
    /// The server is draining and accepts no new work.
    ShuttingDown = 7,
    /// The request executor panicked or vanished.
    Internal = 8,
    /// A stream op referenced a stream id this connection never opened
    /// (or already closed).
    NoSuchStream = 9,
}

/// Frame-layer failures (transport or framing, not application errors).
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error.
    Io(io::Error),
    /// First four bytes were not the expected magic.
    BadMagic([u8; 4]),
    /// Protocol version mismatch.
    BadVersion(u8),
    /// Unknown op byte in a request.
    UnknownOp(u8),
    /// Unknown status byte in a response.
    UnknownStatus(u8),
    /// Declared payload length exceeds the configured cap.
    TooLarge {
        /// Length the peer claimed.
        len: u32,
        /// The enforced cap.
        cap: u32,
    },
    /// Payload bytes did not decode for the op.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::UnknownOp(b) => write!(f, "unknown op byte {b:#x}"),
            FrameError::UnknownStatus(b) => write!(f, "unknown status byte {b:#x}"),
            FrameError::TooLarge { len, cap } => {
                write!(f, "frame payload {len} bytes exceeds cap {cap}")
            }
            FrameError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// One request frame as it travels the wire.
#[derive(Clone, Debug)]
pub struct RequestFrame {
    /// Operation selector.
    pub op: Op,
    /// Caller-chosen correlation id, echoed in the response.
    pub req_id: u64,
    /// Queue deadline in milliseconds (0 = server default / none).
    pub deadline_ms: u32,
    /// Op-specific payload.
    pub payload: Vec<u8>,
}

/// One response frame as it travels the wire.
#[derive(Clone, Debug)]
pub struct ResponseFrame {
    /// Disposition.
    pub status: Status,
    /// Echo of the request op byte.
    pub op: u8,
    /// Echo of the request id.
    pub req_id: u64,
    /// Status/op-specific payload.
    pub payload: Vec<u8>,
}

impl ResponseFrame {
    /// An `Ok` response for `op` carrying `payload`.
    pub fn ok(op: Op, req_id: u64, payload: Vec<u8>) -> Self {
        Self {
            status: Status::Ok,
            op: op as u8,
            req_id,
            payload,
        }
    }

    /// A `Busy` load-shed response.
    pub fn busy(op: u8, req_id: u64) -> Self {
        Self {
            status: Status::Busy,
            op,
            req_id,
            payload: Vec::new(),
        }
    }

    /// An `Error` response with a code and message.
    pub fn error(op: u8, req_id: u64, code: ErrorCode, message: &str) -> Self {
        let bytes = message.as_bytes();
        let msg = bytes.get(..MAX_STRING).unwrap_or(bytes);
        let mut payload = Vec::with_capacity(2 + msg.len());
        payload.extend_from_slice(&(code as u16).to_le_bytes());
        payload.extend_from_slice(msg);
        Self {
            status: Status::Error,
            op,
            req_id,
            payload,
        }
    }

    /// Parses an `Error` payload into `(code, message)`. The code stays a
    /// `u16`: a newer peer may send one this build does not know.
    pub fn error_parts(&self) -> Option<(u16, String)> {
        if self.status != Status::Error {
            return None;
        }
        let (code, msg) = self.payload.split_first_chunk()?;
        Some((
            u16::from_le_bytes(*code),
            String::from_utf8_lossy(msg).into_owned(),
        ))
    }
}

/// Reads a payload of exactly `n` bytes into a buffer that grows with
/// the bytes that arrive, so a length prefix alone never sizes an
/// allocation; fewer than `n` bytes is `UnexpectedEof`.
fn read_payload(r: &mut impl Read, n: u32) -> Result<Vec<u8>, FrameError> {
    let mut buf = Vec::new();
    r.take(u64::from(n)).read_to_end(&mut buf)?;
    if buf.len() != n as usize {
        return Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into()));
    }
    Ok(buf)
}

/// Copies an `N`-byte little-endian slice into an array, surfacing a
/// length mismatch as a malformed frame instead of a panic.
fn le_array<const N: usize>(b: &[u8]) -> Result<[u8; N], FrameError> {
    b.try_into()
        .map_err(|_| FrameError::Malformed("length-checked slice mismatch"))
}

/// Reads one request frame. Returns `Ok(None)` on clean EOF at a frame
/// boundary (the peer closed the connection between requests).
///
/// # Errors
/// Fails on transport errors, bad magic/version, unknown ops, and payload
/// lengths above `max_frame`.
pub fn read_request(r: &mut impl Read, max_frame: u32) -> Result<Option<RequestFrame>, FrameError> {
    let mut header = [0u8; REQUEST_HEADER_LEN];
    // First byte distinguishes clean EOF from a truncated frame.
    match r.read(&mut header[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    r.read_exact(&mut header[1..])?;
    if header[..4] != REQUEST_MAGIC {
        return Err(FrameError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    if header[4] != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(header[4]));
    }
    let op = Op::from_u8(header[5]).ok_or(FrameError::UnknownOp(header[5]))?;
    let req_id = u64::from_le_bytes(le_array(&header[6..14])?);
    let deadline_ms = u32::from_le_bytes(le_array(&header[14..18])?);
    let len = u32::from_le_bytes(le_array(&header[18..22])?);
    if len > max_frame {
        return Err(FrameError::TooLarge {
            len,
            cap: max_frame,
        });
    }
    let payload = read_payload(r, len)?;
    Ok(Some(RequestFrame {
        op,
        req_id,
        deadline_ms,
        payload,
    }))
}

/// The `u32` length prefix of a `len`-byte payload; a payload of 4 GiB or
/// more has none and is refused before any byte is written.
fn frame_len(len: usize) -> io::Result<[u8; 4]> {
    u32::try_from(len).map(u32::to_le_bytes).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds the u32 length prefix",
        )
    })
}

/// The header of a request frame carrying `len` payload bytes.
fn request_header(frame: &RequestFrame, len: usize) -> io::Result<[u8; REQUEST_HEADER_LEN]> {
    let mut header = [0u8; REQUEST_HEADER_LEN];
    header[..4].copy_from_slice(&REQUEST_MAGIC);
    header[4] = PROTOCOL_VERSION;
    header[5] = frame.op as u8;
    header[6..14].copy_from_slice(&frame.req_id.to_le_bytes());
    header[14..18].copy_from_slice(&frame.deadline_ms.to_le_bytes());
    header[18..22].copy_from_slice(&frame_len(len)?);
    Ok(header)
}

/// The header of a response frame carrying `len` payload bytes.
fn response_header(frame: &ResponseFrame, len: usize) -> io::Result<[u8; RESPONSE_HEADER_LEN]> {
    let mut header = [0u8; RESPONSE_HEADER_LEN];
    header[..4].copy_from_slice(&RESPONSE_MAGIC);
    header[4] = PROTOCOL_VERSION;
    header[5] = frame.status as u8;
    header[6] = frame.op;
    header[7..15].copy_from_slice(&frame.req_id.to_le_bytes());
    header[15..19].copy_from_slice(&frame_len(len)?);
    Ok(header)
}

/// Sends header and payload with one `write_all` of one buffer. Two
/// writes would let Nagle's algorithm hold the payload back until the
/// peer's delayed ACK of the header, a ~40 ms stall per frame.
fn write_frame(w: &mut impl Write, header: &[u8], payload: &[u8]) -> io::Result<()> {
    crate::lock::blocking("a frame write");
    let mut wire = Vec::with_capacity(header.len() + payload.len());
    wire.extend_from_slice(header);
    wire.extend_from_slice(payload);
    w.write_all(&wire)?;
    w.flush()
}

/// Writes one request frame.
///
/// # Errors
/// Propagates transport errors; a payload of 4 GiB or more is
/// `InvalidInput`, with nothing written.
pub fn write_request(w: &mut impl Write, frame: &RequestFrame) -> io::Result<()> {
    let header = request_header(frame, frame.payload.len())?;
    write_frame(w, &header, &frame.payload)
}

/// Reads one response frame.
///
/// # Errors
/// Fails on transport errors, bad magic/version, unknown status bytes,
/// and payload lengths above `max_frame`.
pub fn read_response(r: &mut impl Read, max_frame: u32) -> Result<ResponseFrame, FrameError> {
    let mut header = [0u8; RESPONSE_HEADER_LEN];
    r.read_exact(&mut header)?;
    if header[..4] != RESPONSE_MAGIC {
        return Err(FrameError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    if header[4] != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(header[4]));
    }
    let status = Status::from_u8(header[5]).ok_or(FrameError::UnknownStatus(header[5]))?;
    let op = header[6];
    let req_id = u64::from_le_bytes(le_array(&header[7..15])?);
    let len = u32::from_le_bytes(le_array(&header[15..19])?);
    if len > max_frame {
        return Err(FrameError::TooLarge {
            len,
            cap: max_frame,
        });
    }
    let payload = read_payload(r, len)?;
    Ok(ResponseFrame {
        status,
        op,
        req_id,
        payload,
    })
}

/// Writes one response frame.
///
/// # Errors
/// Propagates transport errors; a payload of 4 GiB or more is
/// `InvalidInput`, with nothing written.
pub fn write_response(w: &mut impl Write, frame: &ResponseFrame) -> io::Result<()> {
    let header = response_header(frame, frame.payload.len())?;
    write_frame(w, &header, &frame.payload)
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

/// Bounded cursor over a received payload: every read is checked against
/// the bytes actually present, so claimed lengths cannot overrun or drive
/// oversized allocations.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let out = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or(FrameError::Malformed("payload truncated"))?;
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(u8::from_le_bytes(le_array(self.take(1)?)?))
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(le_array(self.take(2)?)?))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(le_array(self.take(4)?)?))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(le_array(self.take(8)?)?))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_le_bytes(le_array(self.take(8)?)?))
    }

    /// `u16` length-prefixed UTF-8 string, capped at [`MAX_STRING`].
    fn str16(&mut self) -> Result<String, FrameError> {
        let len = self.u16()? as usize;
        if len > MAX_STRING {
            return Err(FrameError::Malformed("string length exceeds cap"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Malformed("string not utf-8"))
    }

    /// Everything left in the payload.
    fn rest(&mut self) -> &'a [u8] {
        let out = self.buf.get(self.pos..).unwrap_or(&[]);
        self.pos = self.buf.len();
        out
    }
}

fn put_str16(out: &mut Vec<u8>, s: &str) {
    let all = s.as_bytes();
    let bytes = all.get(..MAX_STRING).unwrap_or(all);
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Encodes a field: `name str16 | ndim u8 | axes u32… | data f32…`.
fn put_field(out: &mut Vec<u8>, field: &Field) {
    put_str16(out, field.name());
    let dims = field.dims();
    out.push(dims.ndim() as u8);
    for &n in dims.shape() {
        out.extend_from_slice(&(n as u32).to_le_bytes());
    }
    out.reserve(field.data().len() * 4);
    for v in field.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes a field, validating the shape against the bytes actually
/// present: the sample count implied by the axes must exactly match the
/// remaining payload, so a forged shape cannot trigger a huge allocation.
fn get_field(c: &mut Cursor<'_>) -> Result<Field, FrameError> {
    let name = c.str16()?;
    let ndim = c.u8()? as usize;
    if ndim == 0 || ndim > MAX_NDIM {
        return Err(FrameError::Malformed("ndim out of range"));
    }
    let mut shape = [0usize; MAX_NDIM];
    for slot in shape.iter_mut().take(ndim) {
        let n = c.u32()? as usize;
        if n == 0 {
            return Err(FrameError::Malformed("zero-length axis"));
        }
        *slot = n;
    }
    let dims = shape
        .get(..ndim)
        .ok_or(FrameError::Malformed("ndim out of range"))?;
    let total = dims
        .iter()
        .try_fold(1usize, |acc, &n| acc.checked_mul(n))
        .ok_or(FrameError::Malformed("grid size overflows"))?;
    let need = total
        .checked_mul(4)
        .ok_or(FrameError::Malformed("grid size overflows"))?;
    if c.remaining() != need {
        return Err(FrameError::Malformed("data length does not match shape"));
    }
    let mut data = Vec::with_capacity(total);
    for b in c.take(need)?.chunks_exact(4) {
        data.push(f32::from_le_bytes(le_array(b)?));
    }
    Ok(Field::new(name, Dims::new(dims), data))
}

/// A decoded request, ready for execution.
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Feature extraction on an inline field.
    Features {
        /// The field to analyze.
        field: Field,
    },
    /// Compression-free estimate through a registered model.
    Predict {
        /// Registry reference (`id` or `id@version`).
        model: String,
        /// Target compression ratio.
        ratio: f64,
        /// The field to analyze.
        field: Field,
    },
    /// Full fixed-ratio compression through a registered model.
    Compress {
        /// Registry reference (`id` or `id@version`).
        model: String,
        /// Target compression ratio.
        ratio: f64,
        /// The field to compress.
        field: Field,
    },
    /// Decompression of a self-describing stream.
    Decompress {
        /// The compressor stream to decode.
        stream: Vec<u8>,
    },
    /// Decompression of an element range `start..end` of a stream, through
    /// the codec's `decompress_range`: slabbed streams decode only the
    /// covering slabs, and `sz`/`sz-fse` stop where the range ends.
    DecompressRange {
        /// First element index (inclusive).
        start: u64,
        /// One past the last element index (exclusive).
        end: u64,
        /// The compressor stream to decode from.
        stream: Vec<u8>,
    },
    /// Load (or hot-swap) a model into the registry.
    LoadModel {
        /// Registry id to file the model under.
        id: String,
        /// Explicit version, or 0 to auto-assign `latest + 1`.
        version: u32,
        /// The `fxrz train` model JSON.
        json: String,
    },
    /// Server statistics.
    Stats,
    /// Open a per-connection streaming session.
    StreamOpen {
        /// Global target compression ratio for the stream.
        target_ratio: f64,
        /// Ratio-controller window, in frames.
        window: u32,
        /// Registry references whose models seed the codec rows
        /// (empty = heuristic codec selection).
        models: Vec<String>,
    },
    /// Encode one frame through an open session.
    StreamFrame {
        /// Session id returned by `StreamOpen`.
        stream_id: u32,
        /// The frame's samples as a field.
        field: Field,
    },
    /// Close a session, collecting the stream trailer.
    StreamClose {
        /// Session id returned by `StreamOpen`.
        stream_id: u32,
    },
}

impl Request {
    /// The op byte this request travels under.
    pub fn op(&self) -> Op {
        match self {
            Request::Ping => Op::Ping,
            Request::Features { .. } => Op::Features,
            Request::Predict { .. } => Op::Predict,
            Request::Compress { .. } => Op::Compress,
            Request::Decompress { .. } => Op::Decompress,
            Request::DecompressRange { .. } => Op::DecompressRange,
            Request::LoadModel { .. } => Op::LoadModel,
            Request::Stats => Op::Stats,
            Request::StreamOpen { .. } => Op::StreamOpen,
            Request::StreamFrame { .. } => Op::StreamFrame,
            Request::StreamClose { .. } => Op::StreamClose,
        }
    }

    /// Serializes the op-specific payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping | Request::Stats => {}
            Request::Features { field } => put_field(&mut out, field),
            Request::Predict {
                model,
                ratio,
                field,
            }
            | Request::Compress {
                model,
                ratio,
                field,
            } => {
                put_str16(&mut out, model);
                out.extend_from_slice(&ratio.to_le_bytes());
                put_field(&mut out, field);
            }
            Request::Decompress { stream } => out.extend_from_slice(stream),
            Request::DecompressRange { start, end, stream } => {
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&end.to_le_bytes());
                out.extend_from_slice(stream);
            }
            Request::LoadModel { id, version, json } => {
                put_str16(&mut out, id);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(json.as_bytes());
            }
            Request::StreamOpen {
                target_ratio,
                window,
                models,
            } => {
                out.extend_from_slice(&target_ratio.to_le_bytes());
                out.extend_from_slice(&window.to_le_bytes());
                out.push(models.len() as u8);
                for m in models {
                    put_str16(&mut out, m);
                }
            }
            Request::StreamFrame { stream_id, field } => {
                out.extend_from_slice(&stream_id.to_le_bytes());
                put_field(&mut out, field);
            }
            Request::StreamClose { stream_id } => {
                out.extend_from_slice(&stream_id.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a payload for `op` with strict bounds checking.
    ///
    /// # Errors
    /// Fails when the payload is truncated, has trailing garbage, or
    /// claims lengths that disagree with the bytes present.
    pub fn decode(op: Op, payload: &[u8]) -> Result<Self, FrameError> {
        let mut c = Cursor::new(payload);
        let req = match op {
            Op::Ping => Request::Ping,
            Op::Stats => Request::Stats,
            Op::Features => Request::Features {
                field: get_field(&mut c)?,
            },
            Op::Predict | Op::Compress => {
                let model = c.str16()?;
                let ratio = c.f64()?;
                let field = get_field(&mut c)?;
                if op == Op::Predict {
                    Request::Predict {
                        model,
                        ratio,
                        field,
                    }
                } else {
                    Request::Compress {
                        model,
                        ratio,
                        field,
                    }
                }
            }
            Op::Decompress => Request::Decompress {
                stream: c.rest().to_vec(),
            },
            Op::DecompressRange => {
                let start = c.u64()?;
                let end = c.u64()?;
                if start > end {
                    return Err(FrameError::Malformed("range start exceeds end"));
                }
                Request::DecompressRange {
                    start,
                    end,
                    stream: c.rest().to_vec(),
                }
            }
            Op::LoadModel => {
                let id = c.str16()?;
                let version = c.u32()?;
                let json = String::from_utf8(c.rest().to_vec())
                    .map_err(|_| FrameError::Malformed("model json not utf-8"))?;
                Request::LoadModel { id, version, json }
            }
            Op::StreamOpen => {
                let target_ratio = c.f64()?;
                let window = c.u32()?;
                // The count is a u8, so at most 255 entries: growth from an
                // empty Vec is cheap and keeps the decoder allocation-bounded.
                let count = c.u8()? as usize;
                let mut models = Vec::new();
                for _ in 0..count {
                    models.push(c.str16()?);
                }
                Request::StreamOpen {
                    target_ratio,
                    window,
                    models,
                }
            }
            Op::StreamFrame => {
                let stream_id = c.u32()?;
                let field = get_field(&mut c)?;
                Request::StreamFrame { stream_id, field }
            }
            Op::StreamClose => Request::StreamClose {
                stream_id: c.u32()?,
            },
        };
        if c.remaining() != 0 {
            return Err(FrameError::Malformed("trailing bytes after payload"));
        }
        Ok(req)
    }
}

/// A decoded successful reply.
#[derive(Clone, Debug)]
pub enum Reply {
    /// `Ping` acknowledged.
    Pong,
    /// JSON document (`Features`, `Predict`, `LoadModel`, `Stats`).
    Json(String),
    /// `Compress` result: a JSON info blob plus the compressed stream.
    Compress {
        /// JSON with measured ratio, config and model identity.
        info: String,
        /// The self-describing compressor stream.
        stream: Vec<u8>,
    },
    /// `Decompress` result: the reconstructed field.
    Field(Field),
    /// `DecompressRange` result: the requested elements, in order.
    Range(Vec<f32>),
    /// Stream op result: a JSON info blob plus raw stream bytes (the
    /// `FXRZS1` header for `StreamOpen`, one frame record for
    /// `StreamFrame`, the trailer for `StreamClose`); the client
    /// concatenates them into the seekable stream file.
    Stream {
        /// JSON describing the session / frame outcome.
        info: String,
        /// The stream bytes this op contributed.
        bytes: Vec<u8>,
    },
}

impl Reply {
    /// Serializes the reply payload for `op`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Reply::Pong => {}
            Reply::Json(json) => out.extend_from_slice(json.as_bytes()),
            Reply::Compress { info, stream } => {
                out.extend_from_slice(&(info.len() as u32).to_le_bytes());
                out.extend_from_slice(info.as_bytes());
                out.extend_from_slice(stream);
            }
            Reply::Field(field) => put_field(&mut out, field),
            Reply::Stream { info, bytes } => {
                out.extend_from_slice(&(info.len() as u32).to_le_bytes());
                out.extend_from_slice(info.as_bytes());
                out.extend_from_slice(bytes);
            }
            Reply::Range(values) => {
                out.reserve(values.len() * 4);
                for v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        out
    }

    /// Decodes an `Ok` payload received for `op`.
    ///
    /// # Errors
    /// Fails on truncated or inconsistent payloads.
    pub fn decode(op: Op, payload: &[u8]) -> Result<Self, FrameError> {
        let mut c = Cursor::new(payload);
        Ok(match op {
            Op::Ping => Reply::Pong,
            Op::Features | Op::Predict | Op::LoadModel | Op::Stats => {
                let json = String::from_utf8(c.rest().to_vec())
                    .map_err(|_| FrameError::Malformed("reply json not utf-8"))?;
                Reply::Json(json)
            }
            Op::Compress => {
                let info_len = c.u32()? as usize;
                if info_len > c.remaining() {
                    return Err(FrameError::Malformed("info length exceeds payload"));
                }
                let info = String::from_utf8(c.take(info_len)?.to_vec())
                    .map_err(|_| FrameError::Malformed("info not utf-8"))?;
                let stream = c.rest().to_vec();
                Reply::Compress { info, stream }
            }
            Op::Decompress => {
                let field = get_field(&mut c)?;
                if c.remaining() != 0 {
                    return Err(FrameError::Malformed("trailing bytes after field"));
                }
                Reply::Field(field)
            }
            Op::StreamOpen | Op::StreamFrame | Op::StreamClose => {
                let info_len = c.u32()? as usize;
                if info_len > c.remaining() {
                    return Err(FrameError::Malformed("info length exceeds payload"));
                }
                let info = String::from_utf8(c.take(info_len)?.to_vec())
                    .map_err(|_| FrameError::Malformed("info not utf-8"))?;
                let bytes = c.rest().to_vec();
                Reply::Stream { info, bytes }
            }
            Op::DecompressRange => {
                let n = c.remaining();
                if !n.is_multiple_of(4) {
                    return Err(FrameError::Malformed("range data not f32-aligned"));
                }
                let mut values = Vec::with_capacity(n / 4);
                for b in c.take(n)?.chunks_exact(4) {
                    values.push(f32::from_le_bytes(le_array(b)?));
                }
                Reply::Range(values)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_field() -> Field {
        Field::from_fn("t/field", Dims::d3(3, 4, 5), |c| {
            (c[0] * 20 + c[1] * 5 + c[2]) as f32 * 0.25
        })
    }

    #[test]
    fn request_frames_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Features {
                field: sample_field(),
            },
            Request::Predict {
                model: "nyx".into(),
                ratio: 30.0,
                field: sample_field(),
            },
            Request::Compress {
                model: "nyx@2".into(),
                ratio: 85.5,
                field: sample_field(),
            },
            Request::Decompress {
                stream: vec![0xA1, 1, 2, 3],
            },
            Request::DecompressRange {
                start: 100,
                end: 356,
                stream: vec![0xA1, 9, 8, 7],
            },
            Request::LoadModel {
                id: "hurricane".into(),
                version: 7,
                json: "{\"k\":1}".into(),
            },
            Request::StreamOpen {
                target_ratio: 12.5,
                window: 32,
                models: vec!["nyx".into(), "hurricane@3".into()],
            },
            Request::StreamFrame {
                stream_id: 4,
                field: sample_field(),
            },
            Request::StreamClose { stream_id: 4 },
        ];
        for (i, req) in reqs.iter().enumerate() {
            let frame = RequestFrame {
                op: req.op(),
                req_id: i as u64 + 1,
                deadline_ms: 250,
                payload: req.encode(),
            };
            let mut wire = Vec::new();
            write_request(&mut wire, &frame).expect("write");
            let back = read_request(&mut wire.as_slice(), DEFAULT_MAX_FRAME)
                .expect("read")
                .expect("frame");
            assert_eq!(back.op, frame.op);
            assert_eq!(back.req_id, frame.req_id);
            assert_eq!(back.deadline_ms, 250);
            let decoded = Request::decode(back.op, &back.payload).expect("decode");
            match (req, &decoded) {
                (
                    Request::Compress { field, ratio, .. },
                    Request::Compress {
                        field: f2,
                        ratio: r2,
                        ..
                    },
                ) => {
                    assert_eq!(field.data(), f2.data());
                    assert_eq!(ratio, r2);
                }
                (Request::LoadModel { json, .. }, Request::LoadModel { json: j2, .. }) => {
                    assert_eq!(json, j2);
                }
                _ => assert_eq!(req.op(), decoded.op()),
            }
        }
    }

    #[test]
    fn response_frames_roundtrip() {
        let reply = Reply::Compress {
            info: "{\"mcr\":12.5}".into(),
            stream: vec![9u8; 100],
        };
        let frame = ResponseFrame::ok(Op::Compress, 42, reply.encode());
        let mut wire = Vec::new();
        write_response(&mut wire, &frame).expect("write");
        let back = read_response(&mut wire.as_slice(), DEFAULT_MAX_FRAME).expect("read");
        assert_eq!(back.status, Status::Ok);
        assert_eq!(back.req_id, 42);
        match Reply::decode(Op::Compress, &back.payload).expect("decode") {
            Reply::Compress { info, stream } => {
                assert_eq!(info, "{\"mcr\":12.5}");
                assert_eq!(stream.len(), 100);
            }
            other => panic!("wrong reply {other:?}"),
        }
    }

    #[test]
    fn stream_requests_and_reply_roundtrip() {
        match Request::decode(
            Op::StreamOpen,
            &Request::StreamOpen {
                target_ratio: 16.0,
                window: 24,
                models: vec!["nyx@2".into()],
            }
            .encode(),
        )
        .expect("decode")
        {
            Request::StreamOpen {
                target_ratio,
                window,
                models,
            } => {
                assert_eq!(target_ratio, 16.0);
                assert_eq!(window, 24);
                assert_eq!(models, vec!["nyx@2".to_owned()]);
            }
            other => panic!("wrong request {other:?}"),
        }
        match Request::decode(
            Op::StreamClose,
            &Request::StreamClose { stream_id: 9 }.encode(),
        )
        .expect("decode")
        {
            Request::StreamClose { stream_id } => assert_eq!(stream_id, 9),
            other => panic!("wrong request {other:?}"),
        }
        // Trailing bytes after a stream request are rejected.
        let mut payload = Request::StreamClose { stream_id: 9 }.encode();
        payload.push(0);
        assert!(Request::decode(Op::StreamClose, &payload).is_err());

        for op in [Op::StreamOpen, Op::StreamFrame, Op::StreamClose] {
            let reply = Reply::Stream {
                info: "{\"stream_id\":3}".into(),
                bytes: vec![0x46, 0x58, 0x52],
            };
            match Reply::decode(op, &reply.encode()).expect("decode") {
                Reply::Stream { info, bytes } => {
                    assert_eq!(info, "{\"stream_id\":3}");
                    assert_eq!(bytes, vec![0x46, 0x58, 0x52]);
                }
                other => panic!("wrong reply {other:?}"),
            }
        }
    }

    #[test]
    fn field_payload_roundtrips_bit_exact() {
        let field = sample_field();
        let mut buf = Vec::new();
        put_field(&mut buf, &field);
        let mut c = Cursor::new(&buf);
        let back = get_field(&mut c).expect("decode");
        assert_eq!(back.name(), field.name());
        assert_eq!(back.dims(), field.dims());
        assert_eq!(back.data(), field.data());
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn range_request_and_reply_roundtrip() {
        let req = Request::DecompressRange {
            start: 7,
            end: 19,
            stream: vec![0xA1, 3, 1, 4, 1, 5],
        };
        match Request::decode(Op::DecompressRange, &req.encode()).expect("decode") {
            Request::DecompressRange { start, end, stream } => {
                assert_eq!((start, end), (7, 19));
                assert_eq!(stream, vec![0xA1, 3, 1, 4, 1, 5]);
            }
            other => panic!("wrong request {other:?}"),
        }

        // An inverted range is rejected at decode time.
        let bad = Request::DecompressRange {
            start: 19,
            end: 7,
            stream: Vec::new(),
        };
        assert!(matches!(
            Request::decode(Op::DecompressRange, &bad.encode()),
            Err(FrameError::Malformed(_))
        ));

        let reply = Reply::Range(vec![1.5, -2.25, 0.0, f32::MIN_POSITIVE]);
        match Reply::decode(Op::DecompressRange, &reply.encode()).expect("decode") {
            Reply::Range(values) => {
                assert_eq!(values, vec![1.5, -2.25, 0.0, f32::MIN_POSITIVE]);
            }
            other => panic!("wrong reply {other:?}"),
        }
        assert!(Reply::decode(Op::DecompressRange, &[0u8; 3]).is_err());
    }

    #[test]
    fn status_bytes_round_trip() {
        for status in [Status::Ok, Status::Busy, Status::Error] {
            assert_eq!(Status::from_u8(status as u8), Some(status));
        }
        assert_eq!(Status::from_u8(3), None);
    }

    #[test]
    fn error_response_carries_code_and_message() {
        let frame = ResponseFrame::error(
            Op::Compress as u8,
            7,
            ErrorCode::NoSuchModel,
            "no model `x`",
        );
        let (code, msg) = frame.error_parts().expect("parts");
        assert_eq!(code, ErrorCode::NoSuchModel as u16);
        assert_eq!(msg, "no model `x`");
        assert!(ResponseFrame::busy(1, 1).error_parts().is_none());
        // An Error frame too short to hold the u16 code has no parts.
        for payload in [vec![], vec![0x01]] {
            let short = ResponseFrame {
                payload,
                ..ResponseFrame::error(Op::Ping as u8, 1, ErrorCode::BadFrame, "")
            };
            assert!(short.error_parts().is_none());
        }
    }

    #[test]
    fn oversized_payload_rejected_before_allocation() {
        // Header claims a 1 GiB payload; the reader must reject from the
        // length field alone without trying to read (or allocate) it.
        let mut wire = Vec::new();
        wire.extend_from_slice(&REQUEST_MAGIC);
        wire.push(PROTOCOL_VERSION);
        wire.push(Op::Ping as u8);
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        wire.extend_from_slice(&(1u32 << 30).to_le_bytes());
        match read_request(&mut wire.as_slice(), 1 << 20) {
            Err(FrameError::TooLarge { len, cap }) => {
                assert_eq!(len, 1 << 30);
                assert_eq!(cap, 1 << 20);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut wire = vec![b'X', b'Y', b'Z', b'W'];
        wire.resize(REQUEST_HEADER_LEN, 0);
        assert!(matches!(
            read_request(&mut wire.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::BadMagic(_))
        ));

        let mut wire = Vec::new();
        wire.extend_from_slice(&REQUEST_MAGIC);
        wire.push(99); // bad version
        wire.resize(REQUEST_HEADER_LEN, 0);
        assert!(matches!(
            read_request(&mut wire.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::BadVersion(99))
        ));

        let mut wire = Vec::new();
        wire.extend_from_slice(&REQUEST_MAGIC);
        wire.push(PROTOCOL_VERSION);
        wire.push(0xEE); // unknown op
        wire.resize(REQUEST_HEADER_LEN, 0);
        assert!(matches!(
            read_request(&mut wire.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::UnknownOp(0xEE))
        ));
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let frame = RequestFrame {
            op: Op::Features,
            req_id: 3,
            deadline_ms: 0,
            payload: Request::Features {
                field: sample_field(),
            }
            .encode(),
        };
        let mut wire = Vec::new();
        write_request(&mut wire, &frame).expect("write");
        for cut in 1..wire.len() {
            let res = read_request(&mut wire[..cut].as_ref(), DEFAULT_MAX_FRAME);
            assert!(res.is_err(), "cut {cut} should be a truncation error");
        }
        // cut == 0 is a clean EOF
        assert!(read_request(&mut [].as_ref(), DEFAULT_MAX_FRAME)
            .expect("eof")
            .is_none());
    }

    #[test]
    fn forged_shape_cannot_inflate_allocation() {
        // A Features payload claiming a 4-billion-point grid with 8 bytes
        // of data must fail on the shape/data consistency check.
        let mut payload = Vec::new();
        put_str16(&mut payload, "evil");
        payload.push(3);
        for _ in 0..3 {
            payload.extend_from_slice(&1600u32.to_le_bytes());
        }
        payload.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            Request::decode(Op::Features, &payload),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut payload = Request::Ping.encode();
        payload.push(0xAB);
        assert!(matches!(
            Request::decode(Op::Ping, &payload),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_string_rejected() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(MAX_STRING as u16 + 1).to_le_bytes());
        payload.extend_from_slice(&vec![b'a'; MAX_STRING + 1]);
        let mut c = Cursor::new(&payload);
        assert!(c.str16().is_err());
    }

    /// A sink that accepts every byte and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write_call() {
        let request = RequestFrame {
            op: Op::Compress,
            req_id: 11,
            deadline_ms: 250,
            payload: Request::Compress {
                model: "nyx".into(),
                ratio: 20.0,
                field: sample_field(),
            }
            .encode(),
        };
        let mut w = CountingWriter::default();
        write_request(&mut w, &request).expect("write request");
        assert_eq!(w.writes, 1, "request header and payload in one write");
        let back = read_request(&mut w.bytes.as_slice(), DEFAULT_MAX_FRAME)
            .expect("read")
            .expect("frame");
        assert_eq!(back.payload, request.payload);

        let response = ResponseFrame::ok(
            Op::DecompressRange,
            11,
            Reply::Range(vec![1.5; 64]).encode(),
        );
        let mut w = CountingWriter::default();
        write_response(&mut w, &response).expect("write response");
        assert_eq!(w.writes, 1, "response header and payload in one write");
        let back = read_response(&mut w.bytes.as_slice(), DEFAULT_MAX_FRAME).expect("read");
        assert_eq!(back.payload, response.payload);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn frame_length_cannot_wrap() {
        let too_long = u32::MAX as usize + 1;
        let request = RequestFrame {
            op: Op::Ping,
            req_id: 1,
            deadline_ms: 0,
            payload: Vec::new(),
        };
        let response = ResponseFrame::ok(Op::Ping, 1, Vec::new());
        for err in [
            request_header(&request, too_long).expect_err("request"),
            response_header(&response, too_long).expect_err("response"),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
        let last = u32::MAX as usize;
        let header = request_header(&request, last).expect("u32::MAX fits");
        assert_eq!(header[18..22], u32::MAX.to_le_bytes());
        let header = response_header(&response, last).expect("u32::MAX fits");
        assert_eq!(header[15..19], u32::MAX.to_le_bytes());
    }

    #[test]
    fn zero_axis_rejected() {
        let mut payload = Vec::new();
        put_str16(&mut payload, "z");
        payload.push(1);
        payload.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            Request::decode(Op::Features, &payload),
            Err(FrameError::Malformed(_))
        ));
    }
}
