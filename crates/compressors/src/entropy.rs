//! The entropy section of the SZ-family payloads.
//!
//! The quantization-code stream is split into [`BLOCK_SYMBOLS`]-symbol
//! blocks and each block is coded with tANS/FSE ([`fse`]), its table
//! sized by cost. A one-byte tag per block keeps the archive
//! self-describing.
//!
//! ## Wire format
//!
//! The container replaced the bare `varint(len) | huffman` entropy
//! section of the earliest SZ-family payloads. [`huffman::encode`]
//! never produces an empty buffer, so a zero length is free as a version
//! sentinel, and every earlier stream still decodes byte-identically
//! through the legacy branch:
//!
//! ```text
//! legacy:  varint(huff_len > 0) | huffman stream
//! v2:      varint(0) | varint(total_symbols) | varint(n_blocks)
//!          then per block: tag(1B) | varint(len) | backend stream
//! ```
//!
//! Tags: `0` = Huffman, `1` = FSE; anything else is a typed decode error.
//! The encoder writes only the v2 container and only FSE blocks. Streams
//! written while it priced each block under both coders and kept the
//! cheaper hold Huffman-tagged blocks too, and the decoder reads them.
//!
//! ## Decoding
//!
//! [`CodeStream`] hands the codes out in order, on demand: a decode
//! pulls each code when its walk reaches the point, opens (and builds
//! the FSE table of) a block only when it reaches the block, and never
//! holds more than one block's state. [`decode_codes`] collects it.

use crate::CompressError;
use fxrz_codec::bitstream::{read_varint, write_varint};
use fxrz_codec::{fse, huffman, CodecScratch};

/// Symbols per entropy block (2^18; a 64³ field is exactly one block,
/// so small fields pay a single table build while long streams adapt to
/// distribution drift every megabyte of codes).
pub const BLOCK_SYMBOLS: usize = 1 << 18;

/// Per-block tag for a canonical-Huffman payload (read, never written).
pub const TAG_HUFFMAN: u8 = 0;
/// Per-block tag for a tANS/FSE payload.
pub const TAG_FSE: u8 = 1;

/// Appends the entropy-coded form of `codes` to `out` (the section the
/// SZ-family payloads place between the error bound and the
/// unpredictable values). Every block of `codes` must hold at most
/// [`fse::MAX_SYMBOLS`] distinct codes, as every quantizer's do.
pub fn encode_codes(scratch: &mut CodecScratch, codes: &[u32], out: &mut Vec<u8>) {
    encode_marked(scratch, codes, &[], out);
}

/// [`encode_codes`], every block's FSE table log at most `max_log`
/// ([`fse::encode_capped`]).
pub fn encode_codes_capped(
    scratch: &mut CodecScratch,
    codes: &[u32],
    max_log: u32,
    out: &mut Vec<u8>,
) {
    encode_blocks(scratch, codes, &[], max_log, out);
}

/// [`encode_codes`], also returning, for each of the ascending code
/// indices `marks`, the FSE cursor before that code relative to its
/// block ([`CodeStream::seek`] starts there): `None` where the block
/// holds one distinct code. Marks change no byte.
pub fn encode_marked(
    scratch: &mut CodecScratch,
    codes: &[u32],
    marks: &[usize],
    out: &mut Vec<u8>,
) -> Vec<Option<fse::Cursor>> {
    encode_blocks(scratch, codes, marks, fse::MAX_TABLE_LOG, out)
}

/// [`encode_marked`] with every block's table log at most `max_log`.
fn encode_blocks(
    scratch: &mut CodecScratch,
    codes: &[u32],
    marks: &[usize],
    max_log: u32,
    out: &mut Vec<u8>,
) -> Vec<Option<fse::Cursor>> {
    write_varint(out, 0); // v2 sentinel: huffman streams are never empty
    write_varint(out, codes.len() as u64);
    write_varint(out, codes.len().div_ceil(BLOCK_SYMBOLS) as u64);
    let mut cursors = Vec::with_capacity(marks.len());
    let mut local = Vec::new();
    let mut rest = marks;
    for (b, block) in codes.chunks(BLOCK_SYMBOLS).enumerate() {
        let first = b * BLOCK_SYMBOLS;
        let here = rest.partition_point(|&m| m < first + block.len());
        local.clear();
        local.extend(rest[..here].iter().map(|&m| m - first));
        let (stream, at) = fse::encode_capped(scratch, block, &local, max_log)
            .expect("a block of at most fse::MAX_SYMBOLS distinct codes");
        out.push(TAG_FSE);
        write_varint(out, stream.len() as u64);
        out.extend_from_slice(&stream);
        if at.len() == here {
            cursors.extend(at.into_iter().map(Some));
        } else {
            cursors.extend(std::iter::repeat_n(None, here));
        }
        rest = &rest[here..];
    }
    cursors
}

/// The codes of an entropy section, handed out in order on demand.
///
/// [`CodeStream::open`] reads every block's tag and length up front, so
/// the caller learns where the unpredictable values start, and opens
/// the first block. The codes then come out in runs, each from one
/// block: [`CodeStream::run`] starts one, [`CodeStream::pull`] hands out
/// its codes, and [`CodeStream::end_run`] closes it. The run is a small
/// `Copy` value the caller keeps in registers, so an FSE block's two
/// state chains advance one transition per pull and a prediction walk
/// can interleave its own chain with them. A Huffman block (every
/// legacy single-Huffman section, and Huffman-tagged blocks of the v2
/// container) decodes into a buffer the runs read. [`CodeStream::fill`]
/// collects runs into a slice.
///
/// Each block is opened, and its count checked, when the stream reaches
/// it; each block the stream hands out to its end has its final states
/// and bit budget checked. A fault is sticky and reported by
/// [`CodeStream::finish`]. [`CodeStream::seek`] starts the stream at a
/// code inside an FSE block instead of at the section's first code.
#[derive(Debug)]
pub struct CodeStream<'a> {
    payload: &'a [u8],
    /// Offset of the next unopened block's tag.
    next_block: usize,
    /// Blocks not yet opened.
    blocks_left: usize,
    /// The open FSE block (an empty decoder while a Huffman block, or
    /// none, is open).
    fse: fse::Decoder<'a>,
    /// Codes the open FSE block still hands out before the stop.
    fse_left: usize,
    /// Codes the open FSE block hands out in all.
    fse_taken: usize,
    /// The open Huffman block, decoded, and the index of its next code.
    buffered: Vec<u32>,
    buffered_at: usize,
    /// Codes handed out by the blocks opened so far, the open one whole.
    opened: usize,
    /// The out-of-band symbol count: the claimed count of every block
    /// is checked against what it leaves.
    expected: usize,
    /// How many codes the stream hands out.
    stop: usize,
    fault: Option<CompressError>,
}

impl<'a> CodeStream<'a> {
    /// Opens the entropy section at `payload[*pos..]` and advances `pos`
    /// past the whole section. `expected` is the out-of-band symbol
    /// count (the field's element count from the stream header): it
    /// bounds every block's claim, and a decode that runs to the end must
    /// find exactly that many codes. The stream hands out the first
    /// `stop` codes (all of them once `stop >= expected`); blocks after
    /// the stop are stepped over by their length fields, none of their
    /// bytes read. A tagged-block section opens no block yet: the first
    /// pull opens block 0, unless [`Self::seek`] moves the stream first.
    pub fn open(
        payload: &'a [u8],
        pos: &mut usize,
        expected: usize,
        stop: usize,
    ) -> Result<Self, CompressError> {
        let stop = stop.min(expected);
        let mut stream = Self {
            payload,
            next_block: 0,
            blocks_left: 0,
            fse: fse::Decoder::empty(),
            fse_left: 0,
            fse_taken: 0,
            buffered: Vec::new(),
            buffered_at: 0,
            opened: 0,
            expected,
            stop,
            fault: None,
        };
        let lead = read_varint(payload, pos)
            .ok_or(CompressError::Header("missing entropy section length"))?
            as usize;
        if lead != 0 {
            // Legacy stream: a single Huffman block of `lead` bytes.
            let end = pos
                .checked_add(lead)
                .filter(|&e| e <= payload.len())
                .ok_or(CompressError::Header("huffman block overruns payload"))?;
            let codes = huffman::decode_limited(&payload[*pos..end], expected, stop)?;
            *pos = end;
            if codes.len() != stop {
                return Err(CompressError::Header("code count mismatch"));
            }
            stream.serve_buffered(codes);
            return Ok(stream);
        }
        let total =
            read_varint(payload, pos).ok_or(CompressError::Header("missing symbol count"))?;
        if total != expected as u64 {
            return Err(CompressError::Header("code count mismatch"));
        }
        let n_blocks =
            read_varint(payload, pos).ok_or(CompressError::Header("missing block count"))? as usize;
        // Every block must decode at least one symbol, so more blocks than
        // symbols is structurally impossible.
        if n_blocks > expected {
            return Err(CompressError::Header("more entropy blocks than symbols"));
        }
        stream.next_block = *pos;
        stream.blocks_left = n_blocks;
        for _ in 0..n_blocks {
            block_bytes(payload, pos)?;
        }
        Ok(stream)
    }

    /// The code and count of block 0 when it is an FSE block of one
    /// distinct code, read from its header without opening it: every
    /// code there is the same, so any of them can start a decode with
    /// the all-zero cursor. `None` for any other section.
    pub fn uniform_lead(&self) -> Option<(u32, usize)> {
        if self.opened != 0 || self.blocks_left == 0 {
            return None;
        }
        let mut pos = self.next_block;
        let (tag, bytes) = block_bytes(self.payload, &mut pos).ok()?;
        let mut at = 0;
        let mut field = || read_varint(bytes, &mut at);
        let count = usize::try_from(field()?).ok().filter(|&n| n > 0)?;
        if tag != TAG_FSE || field()? != 1 {
            return None;
        }
        Some((u32::try_from(field()?).ok()?, count))
    }

    /// Moves a stream nothing was pulled from to code `from` (below the
    /// stop), whose FSE cursor relative to its block is `at`: an access
    /// index's entry. The blocks before `from`'s are stepped over by
    /// their claimed counts, each checked against the codes still
    /// expected; `from`'s block must be FSE-coded, and
    /// [`fse::Decoder::seek`] checks the cursor against it. The stream
    /// then hands out codes `from..stop`.
    pub fn seek(&mut self, from: usize, at: fse::Cursor) -> Result<(), CompressError> {
        if self.opened != 0 || from >= self.stop {
            return Err(CompressError::Header("index entry outside the window"));
        }
        let mut first = 0usize;
        loop {
            if self.blocks_left == 0 {
                return Err(CompressError::Header(
                    "index entry past the entropy section",
                ));
            }
            self.blocks_left -= 1;
            let (tag, bytes) = block_bytes(self.payload, &mut self.next_block)?;
            let room = self.expected - first;
            let count = read_varint(bytes, &mut 0)
                .and_then(|c| usize::try_from(c).ok())
                .filter(|&c| c > 0 && c <= room)
                .ok_or(CompressError::Header("entropy block symbol count mismatch"))?;
            if from < first + count {
                if tag != TAG_FSE {
                    return Err(CompressError::Header("index entry outside an FSE block"));
                }
                let mut dec = fse::Decoder::new(bytes, room)?;
                dec.seek(from - first, at)?;
                self.fse_taken = dec.len().min(self.stop - from);
                self.fse_left = self.fse_taken;
                self.opened = from + self.fse_taken;
                self.fse = dec;
                return Ok(());
            }
            first += count;
        }
    }

    /// Opens the next block once the open one is spent. Returns whether
    /// the stream has a code to hand out.
    fn advance(&mut self) -> bool {
        if self.open_left() == 0 && self.fault.is_none() {
            if let Err(e) = self.close_block().and_then(|()| self.open_block()) {
                self.fault = Some(e);
            }
        }
        self.open_left() != 0
    }

    /// The codes the open block still hands out.
    fn open_left(&self) -> usize {
        self.fse_left + self.buffered.len() - self.buffered_at
    }

    /// Starts a run of at most `want` codes, all from one block, that a
    /// loop pulls with [`Self::pull`] while it keeps the run (and with
    /// it the FSE chains' state) in registers; [`Self::end_run`] hands
    /// the run back. Returns the run and its length, `0` only once the
    /// stream is spent or has faulted.
    pub fn run(&mut self, want: usize) -> (Run, usize) {
        let len = if want == 0 || !self.advance() {
            0
        } else if self.fse_left != 0 {
            want.min(self.fse_left)
        } else {
            want.min(self.buffered.len() - self.buffered_at)
        };
        let run = Run {
            fse: self.fse_left != 0,
            at: self.fse.cursor(),
            buffered_at: self.buffered_at,
            len,
        };
        (run, len)
    }

    /// The next code of `run`. Pull at most the run's length.
    #[inline(always)]
    pub fn pull(&self, run: &mut Run) -> u32 {
        if run.fse {
            return self.fse.step(&mut run.at);
        }
        let code = self.buffered.get(run.buffered_at).copied().unwrap_or(0);
        run.buffered_at += 1;
        code
    }

    /// Ends `run`, every code of it pulled.
    pub fn end_run(&mut self, run: Run) {
        if run.fse {
            self.fse.set_cursor(run.at);
            self.fse_left -= run.len;
        } else {
            self.buffered_at = run.buffered_at;
        }
    }

    /// Fills `out` with the next codes, run by run; returns how many it
    /// filled, fewer than asked only at a fault, which [`Self::finish`]
    /// reports.
    pub fn fill(&mut self, out: &mut [u32]) -> usize {
        let mut done = 0;
        while done < out.len() {
            let (mut run, n) = self.run(out.len() - done);
            if n == 0 {
                break;
            }
            let codes = &mut out[done..done + n];
            if run.fse {
                self.fse.fill(&mut run.at, codes);
            } else {
                codes.copy_from_slice(&self.buffered[run.buffered_at..run.buffered_at + n]);
                run.buffered_at += n;
            }
            self.end_run(run);
            done += n;
        }
        done
    }

    /// The codes still to hand out before the stop.
    pub fn left(&self) -> usize {
        self.stop - self.opened + self.open_left()
    }

    /// Starts serving a decoded Huffman block.
    fn serve_buffered(&mut self, codes: Vec<u32>) {
        self.opened += codes.len();
        self.buffered = codes;
        self.buffered_at = 0;
    }

    /// Opens the next block: checks its claimed count against the codes
    /// still expected, and builds its table or decodes it into a buffer.
    fn open_block(&mut self) -> Result<(), CompressError> {
        if self.opened == self.stop || self.blocks_left == 0 {
            return Err(CompressError::Header("code count mismatch"));
        }
        self.blocks_left -= 1;
        let mut pos = self.next_block;
        let (tag, bytes) = block_bytes(self.payload, &mut pos)?;
        self.next_block = pos;
        let room = self.expected - self.opened;
        let want = self.stop - self.opened;
        if tag == TAG_FSE {
            let dec = fse::Decoder::new(bytes, room)?;
            if dec.is_empty() {
                return Err(CompressError::Header("entropy block symbol count mismatch"));
            }
            self.fse_taken = dec.len().min(want);
            self.fse_left = self.fse_taken;
            self.opened += self.fse_taken;
            self.fse = dec;
        } else {
            let codes = huffman::decode_limited(bytes, room, want)?;
            if codes.is_empty() {
                return Err(CompressError::Header("entropy block symbol count mismatch"));
            }
            self.serve_buffered(codes);
        }
        Ok(())
    }

    /// Closes the open block: an FSE block checks what it read, and, if
    /// it handed out every code it holds, its final states and bit
    /// budget. A Huffman block was checked when it was decoded.
    fn close_block(&mut self) -> Result<(), CompressError> {
        self.buffered = Vec::new();
        self.buffered_at = 0;
        let dec = std::mem::replace(&mut self.fse, fse::Decoder::empty());
        if dec.is_empty() {
            return Ok(());
        }
        Ok(dec.finish(self.fse_taken - self.fse_left)?)
    }

    /// Ends the stream: the first fault it met, the open block's checks,
    /// and unless `complete` is false (the caller stopped pulling early
    /// for a fault of its own), that exactly the stop's codes came out.
    pub fn finish(mut self, complete: bool) -> Result<(), CompressError> {
        if let Some(e) = self.fault.take() {
            return Err(e);
        }
        let unread = self.open_left();
        self.close_block()?;
        if complete && (self.opened != self.stop || unread != 0) {
            return Err(CompressError::Header("code count mismatch"));
        }
        Ok(())
    }
}

/// A stretch of codes from one block of a [`CodeStream`]: see
/// [`CodeStream::run`].
#[derive(Clone, Copy, Debug)]
pub struct Run {
    /// Whether the codes come from the FSE block (else the buffer).
    fse: bool,
    /// Where the FSE block's chains stand.
    at: fse::Cursor,
    /// The buffered block's next code.
    buffered_at: usize,
    /// The codes in the run.
    len: usize,
}

/// Reads one block's `tag | varint(len)` at `payload[*pos..]`, advances
/// `pos` past the block and returns its tag and bytes.
fn block_bytes<'a>(payload: &'a [u8], pos: &mut usize) -> Result<(u8, &'a [u8]), CompressError> {
    let tag = *payload
        .get(*pos)
        .ok_or(CompressError::Header("missing entropy backend tag"))?;
    *pos += 1;
    if tag != TAG_HUFFMAN && tag != TAG_FSE {
        return Err(CompressError::Header("unknown entropy backend tag"));
    }
    let len = read_varint(payload, pos)
        .ok_or(CompressError::Header("missing entropy block length"))? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= payload.len())
        .ok_or(CompressError::Header("entropy block overruns payload"))?;
    let bytes = &payload[*pos..end];
    *pos = end;
    Ok((tag, bytes))
}

/// Decodes the first `stop` codes of the entropy section at
/// `payload[*pos..]` (all of them once `stop >= expected`), advancing
/// `pos` past the whole section: a [`CodeStream`] collected.
pub fn decode_codes(
    payload: &[u8],
    pos: &mut usize,
    expected: usize,
    stop: usize,
) -> Result<Vec<u32>, CompressError> {
    let mut stream = CodeStream::open(payload, pos, expected, stop)?;
    let mut codes = vec![0; stream.left()];
    stream.fill(&mut codes);
    stream.finish(true)?;
    Ok(codes)
}
