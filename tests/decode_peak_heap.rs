//! A full `sz` decode holds no buffer of codes: the entropy stream hands
//! each code to the Lorenzo walk as it reaches the point, so the peak
//! heap of the decode is pinned to what it cannot do without — its
//! output, its LZ77 payload and one FSE decode table — plus [`C`].
//!
//! Lives alone in its own binary: the counting global allocator below
//! sees every allocation of the process, so no other test may run beside
//! the one measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fxrz_codec::bitstream::read_varint;
use fxrz_codec::{fse, lz77};
use fxrz_compressors::entropy::{decode_codes, BLOCK_SYMBOLS, TAG_FSE};
use fxrz_compressors::header::{self, magic};
use fxrz_compressors::sz::{self, Sz};
use fxrz_compressors::{slab, Compressor, ErrorConfig};
use fxrz_datagen::{Dims, Field};

/// One FSE decode table at the largest table log: 8 B per state. No
/// block is coded at a larger one; a full block of [`BLOCK_SYMBOLS`]
/// codes takes it only when its codes need it ([`fse::encode`] picks
/// each block's log by cost).
const TABLE: usize = 8 << fse::MAX_TABLE_LOG;

/// Distinct codes the measured field stays under (asserted).
const MAX_CODES: usize = 1 << 12;

/// The rest of what a decode allocates, all of it short-lived or small:
/// * the table build's map from generation index to symbol slot, 2 B per
///   state: 128 KiB at the largest table log;
/// * the block's dictionary, normalized counts and occurrence counters,
///   4 B each per distinct code: 48 KiB under [`MAX_CODES`];
/// * the field name, which the stream header and the slab probe each
///   read, and whatever else stays under 16 KiB.
///
/// A decode that kept the prefix's codes would hold 4 B per element
/// more: 1.2 MiB for the field below.
const C: usize = (2 << fse::MAX_TABLE_LOG) + 12 * MAX_CODES + (16 << 10);

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// Forwards to [`System`], tracking live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

#[expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait; this one only counts and forwards to System"
)]
// SAFETY: both methods forward the caller's pointer and layout unchanged
// to `System`, which upholds the `GlobalAlloc` contract. The provided
// `alloc_zeroed` and `realloc` go through these two, so they count too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
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

#[test]
fn a_full_sz_decode_holds_no_code_buffer() {
    // Two entropy blocks, one stream: 307,200 elements and no slabs.
    let dims = Dims::d2(300, 1024);
    let field = Field::from_fn("peak/heap", dims, |c| {
        (c[0] as f32 * 0.05).sin() + (c[1] as f32 * 0.02).cos()
    });
    let n = dims.len();
    assert!(n > BLOCK_SYMBOLS);
    let bytes =
        sz::compress_with_budget(&field, &ErrorConfig::Abs(1e-3), usize::MAX).expect("compress");
    assert!(slab::table(&bytes, magic::SZ, "sz")
        .expect("header")
        .is_none());

    // The LZ77 stage sizes its output exactly up to 1 MiB, and both
    // blocks are FSE-coded over fewer than `MAX_CODES` distinct codes.
    let (_, _, off) = header::read(&bytes, magic::SZ, "sz").expect("header");
    let payload = lz77::decompress(&bytes[off..]).expect("payload");
    assert!(payload.len() <= 1 << 20, "payload {} B", payload.len());
    let mut pos = 8;
    let mut codes = decode_codes(&payload, &mut pos, n, n).expect("codes");
    codes.sort_unstable();
    codes.dedup();
    assert!(codes.len() < MAX_CODES, "{} distinct codes", codes.len());
    let mut pos = 8;
    assert_eq!(read_varint(&payload, &mut pos), Some(0), "tagged blocks");
    assert_eq!(read_varint(&payload, &mut pos), Some(n as u64));
    assert_eq!(read_varint(&payload, &mut pos), Some(2), "two blocks");
    for block in 0..2 {
        assert_eq!(payload[pos], TAG_FSE, "block {block} is FSE-coded");
        pos += 1;
        pos += read_varint(&payload, &mut pos).expect("block length") as usize;
    }

    // The first decode registers the telemetry series it reports to.
    let want = Sz.decompress(&bytes).expect("decode");
    let (got, peak) = measure(|| Sz.decompress(&bytes).expect("decode"));
    assert_eq!(got.data(), want.data());

    let bound = 4 * n + payload.len() + TABLE + C;
    assert!(
        peak <= bound,
        "peak heap {peak} B over {bound} B: output {} B, payload {} B, table {TABLE} B, C {C} B",
        4 * n,
        payload.len()
    );
}
