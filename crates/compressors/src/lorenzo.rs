//! Row plans: the Lorenzo row kernel of `sz` and `sz-fse`, `fpzip`'s
//! row differences and prefix sums, the per-point stencils of `sz2`'s
//! Lorenzo blocks, and the strided-row iterator every plan walks with.
//!
//! The Lorenzo corner stencil predicts a point from the `2^d − 1`
//! already-visited corners of its unit cube (inclusion–exclusion over the
//! non-empty subsets, or *masks*, of the axes; a corner off the grid
//! contributes nothing). Which corners exist depends only on which of
//! the point's coordinates are zero, and along a row of the fastest axis
//! that changes once: at the row's first point.
//!
//! [`walk`] visits the rows of a field in raster order. A row whose
//! slower coordinates are nonzero on `k` axes predicts like a
//! `(k + 1)`-D Lorenzo over those axes and the fastest one, so one
//! kernel per `k`, its term count a const generic, serves every row of
//! a 1-D to 4-D field. Along the row, the neighbour behind each point is
//! the value the walk just produced, carried in a register; the corners
//! in earlier rows are read from them, and the ones behind along the
//! fastest axis are the previous point's, carried too. The terms are
//! summed in ascending mask order, so every prediction has exactly the
//! bits of the test-only per-point reference `sz::lorenzo_predict`, up
//! to a NaN's sign and payload, which LLVM leaves unspecified.
//!
//! **Per-plane choice.** For a 3-D or 4-D `sz` field, [`choose`] decides
//! for every plane `p ≥ 1` along axis 0 whether the plane before helps
//! its prediction. On the input values, over every 8th row of the plane,
//! it sums `|x − pred|` for the d-D stencil and for the (d−1)-D one that
//! drops axis 0, and flags `p` when the second sum is not larger (a
//! non-finite sum never flags). It reads no error bound, so a field's
//! flags are the same at every bound and thread count. [`walk`] takes
//! the flags ([`PlaneFlags`]) as one per-plane mask: a flagged plane's
//! rows predict as if their axis-0 coordinate were 0, which drops them
//! to the next smaller kernel (a flagged 4-D slice runs the 3-term row
//! kernel, not the 7-term one). No point of a flagged plane or after it
//! reads a point before it, so a decode can start there: the walk of
//! the sub-field from a flagged plane (its flags skipped to it) predicts
//! every point as the whole walk does.
//!
//! **Integer rows.** `fpzip` predicts its truncated integers with the
//! same terms, no plane flagged, in wrapping `i64`. The encoder has
//! every integer before it starts, so [`residuals`] takes each row's
//! residuals as differences, and the decoder's [`rebuild`] turns them
//! back into values as a prefix sum: the in-row neighbour is the only
//! term from the row itself, and wrapping adds are exact in any order,
//! so both agree with [`walk`] over `i64`, which the tests keep as the
//! reference.
//!
//! [`Stencil`] keeps the `(offset, sign)` terms of one point for `sz2`,
//! whose Lorenzo block rows start anywhere along the fastest axis;
//! [`stencils`] builds them once per field for each of the `2^d`
//! nonzero-coordinate masks, and [`row_stencils`] picks two per row.
//!
//! [`rows`] is the one odometer of the row plans (`mgard`'s levels,
//! `sz2`'s blocks, `szi`'s sweeps, [`walk`] and the integer rows): it
//! hands out the rows of a strided sub-grid, and each plan derives
//! whatever depends only on the slower axes once per row.

use fxrz_datagen::dims::MAX_NDIM;
use fxrz_datagen::Dims;

/// Most stencil terms a point can have: `2^MAX_NDIM − 1` corners.
const MAX_TERMS: usize = (1 << MAX_NDIM) - 1;

/// The Lorenzo terms of one point: the neighbour at `idx − offset` enters
/// the prediction with `sign` (±1), in ascending mask order.
pub(crate) struct Stencil {
    terms: [(usize, f64); MAX_TERMS],
    len: usize,
}

impl Stencil {
    /// The terms of a point whose coordinate along axis `a` is nonzero
    /// exactly when bit `a` of `nonzero` is set.
    pub(crate) fn new(strides: &[usize], nonzero: u32) -> Self {
        let mut stencil = Self {
            terms: [(0, 0.0); MAX_TERMS],
            len: 0,
        };
        for mask in 1u32..(1 << strides.len()) {
            if mask & !nonzero != 0 {
                continue; // a corner off the grid contributes 0
            }
            let offset = (0..strides.len())
                .filter(|&a| mask >> a & 1 == 1)
                .map(|a| strides[a])
                .sum();
            let sign = if mask.count_ones() % 2 == 1 {
                1.0
            } else {
                -1.0
            };
            stencil.terms[stencil.len] = (offset, sign);
            stencil.len += 1;
        }
        stencil
    }

    /// The `f64` prediction of point `idx` from `recon`; the same bits as
    /// the per-point reference `sz::lorenzo_predict`, NaN bits aside.
    #[inline]
    pub(crate) fn predict(&self, recon: &[f32], idx: usize) -> f64 {
        let mut pred = 0.0f64;
        for &(offset, sign) in &self.terms[..self.len] {
            pred += sign * recon[idx - offset] as f64;
        }
        pred
    }
}

/// The planes along axis 0 a [`walk`] predicts without the plane before
/// them, as if their axis-0 coordinate were 0: the per-plane choice of
/// [`choose`]. A bitmap, bit `p % 8` of byte `p / 8` for plane `p`,
/// numbered from plane `first` on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PlaneFlags<'a> {
    bits: &'a [u8],
    first: usize,
}

impl<'a> PlaneFlags<'a> {
    /// No plane flagged: every plane predicts from the one before.
    pub(crate) const NONE: PlaneFlags<'static> = PlaneFlags {
        bits: &[],
        first: 0,
    };

    /// The flags of `bits`, a bitmap [`choose`] built.
    pub(crate) fn new(bits: &'a [u8]) -> Self {
        Self { bits, first: 0 }
    }

    /// Whether plane `p` is flagged.
    #[inline]
    pub(crate) fn get(&self, p: usize) -> bool {
        let b = self.first + p;
        self.bits
            .get(b / 8)
            .is_some_and(|&byte| byte >> (b % 8) & 1 == 1)
    }

    /// The flags of the planes from `p` on, renumbered from 0: a walk of
    /// the sub-field that starts at plane `p`.
    pub(crate) fn skip(self, p: usize) -> Self {
        Self {
            bits: self.bits,
            first: self.first + p,
        }
    }
}

/// Every how many rows of a plane [`choose`] reads one.
const CHOICE_STRIDE: usize = 8;

/// The per-plane Lorenzo choice of a 3-D or 4-D field: which planes
/// along axis 0 predict no worse without the plane before them. For each
/// plane `p ≥ 1` it sums `|x − pred|` over every [`CHOICE_STRIDE`]-th row
/// of the plane, on the input values, once for the d-D stencil and once
/// for the (d−1)-D stencil that drops axis 0, and flags `p` when the
/// second sum is not larger; a non-finite sum never flags. The choice
/// reads the input only, so a field's flags are the same at every error
/// bound and thread count. Returns the bitmap [`PlaneFlags::new`] reads,
/// or an empty one when no plane is flagged or the field has fewer than
/// three axes.
pub(crate) fn choose(data: &[f32], dims: Dims) -> Vec<u8> {
    let ndim = dims.ndim();
    if ndim < 3 {
        return Vec::new();
    }
    let fast = ndim - 1;
    let n0 = dims.axis(0);
    let plane = dims.len() / n0;
    let row_len = dims.axis(fast);
    let strides = dims.strides();
    let mut scratch = vec![0.0f32; row_len];
    let mut bits = vec![0u8; n0.div_ceil(8)];
    let mut any = false;
    for p in 1..n0 {
        // The row kernel on the input values: each point's value is
        // its input, so every prediction reads inputs only.
        let mut sums = [0.0f64; 2];
        for start in (p * plane..(p + 1) * plane).step_by(CHOICE_STRIDE * row_len) {
            let coords = dims.coords(start);
            for (sum, axes) in sums.iter_mut().zip([0..fast, 1..fast]) {
                let (near, k) = near_strides(&strides, &coords, axes);
                let mut cost = |idx: usize, pred: f64| {
                    *sum += (f64::from(data[idx]) - pred).abs();
                    data[idx]
                };
                predict_row(&data[..start], &mut scratch, &near, k, &mut cost);
            }
        }
        let [full, drop] = sums;
        if full.is_finite() && drop.is_finite() && drop <= full {
            bits[p / 8] |= 1 << (p % 8);
            any = true;
        }
    }
    if any {
        bits
    } else {
        Vec::new()
    }
}

/// The points of `dims` that [`walk`] visits to cover its first `len`:
/// every row up to the one holding point `len − 1`.
pub(crate) fn rows_cover(dims: Dims, len: usize) -> usize {
    let row_len = dims.axis(dims.ndim() - 1);
    len.min(dims.len()).div_ceil(row_len) * row_len
}

/// A value type a Lorenzo walk predicts: its predictions are sums of
/// [`Lane::Sum`].
pub(crate) trait Lane: Copy {
    /// What the terms widen to and sum in.
    type Sum: Copy;
    /// The empty sum.
    const ZERO: Self::Sum;
    /// The value as a term.
    fn widen(self) -> Self::Sum;
    /// `sum + term`.
    fn add(sum: Self::Sum, term: Self::Sum) -> Self::Sum;
    /// `sum − term`.
    fn sub(sum: Self::Sum, term: Self::Sum) -> Self::Sum;
}

/// `sz`'s reconstructions, predicted in `f64`. `x − t` has the bits of
/// `x + (−1)·t`, the per-point reference's form.
impl Lane for f32 {
    type Sum = f64;
    const ZERO: f64 = 0.0;
    #[inline(always)]
    fn widen(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn add(sum: f64, term: f64) -> f64 {
        sum + term
    }
    #[inline(always)]
    fn sub(sum: f64, term: f64) -> f64 {
        sum - term
    }
}

/// `fpzip`'s truncated integers. Wrapping: a corrupt stream can drive
/// values to ±2^63, and encoder and decoder stay consistent under
/// wrapping.
impl Lane for i64 {
    type Sum = i64;
    const ZERO: i64 = 0;
    #[inline(always)]
    fn widen(self) -> i64 {
        self
    }
    #[inline(always)]
    fn add(sum: i64, term: i64) -> i64 {
        sum.wrapping_add(term)
    }
    #[inline(always)]
    fn sub(sum: i64, term: i64) -> i64 {
        sum.wrapping_sub(term)
    }
}

/// What a Lorenzo [`walk`] does at its points. The walk hands out each
/// row's points in runs: [`Visit::begin`] starts one, and the run's state
/// stays a local of the row kernel — in registers — across its points
/// until [`Visit::end`]. Any `FnMut(idx, pred) -> value` closure is a
/// visitor whose runs are whole rows.
pub(crate) trait Visit<V: Lane> {
    /// A run's state.
    type Run;
    /// Starts a run of at most `len` points: returns it and its length,
    /// at least 1.
    fn begin(&mut self, len: usize) -> (Self::Run, usize);
    /// The value of point `idx` of `run`, given its prediction; the walk
    /// stores it and predicts later points from it.
    fn point(&mut self, run: &mut Self::Run, idx: usize, pred: V::Sum) -> V;
    /// Ends `run`, its points all visited.
    fn end(&mut self, run: Self::Run);
}

impl<V: Lane, F: FnMut(usize, V::Sum) -> V> Visit<V> for F {
    type Run = ();
    #[inline(always)]
    fn begin(&mut self, len: usize) -> ((), usize) {
        ((), len)
    }
    #[inline(always)]
    fn point(&mut self, _: &mut (), idx: usize, pred: V::Sum) -> V {
        self(idx, pred)
    }
    #[inline(always)]
    fn end(&mut self, _: ()) {}
}

/// Visits the points of `dims` in raster order and stores
/// `vals[idx] = visit.point(…, idx, prediction)`, stopping after the row
/// that holds point `len − 1` ([`rows_cover`] points; `dims.len()`
/// visits every point). `vals` must hold at least that many; later
/// points are predicted from the values stored. The rows of a plane
/// `flags` flags predict as if their axis-0 coordinate were 0, so a walk
/// of the sub-field from a flagged plane on (its flags
/// [`PlaneFlags::skip`]ped to it) predicts every point as the whole
/// walk does.
pub(crate) fn walk<V: Lane>(
    dims: Dims,
    flags: PlaneFlags,
    len: usize,
    vals: &mut [V],
    visit: &mut impl Visit<V>,
) {
    let fast = dims.ndim() - 1;
    let row_len = dims.axis(fast);
    let strides = dims.strides();
    let shape = extent(dims);
    let mut row = |start: usize, coords: &[usize; MAX_NDIM]| {
        // A flagged plane is on zero along axis 0.
        let skip = usize::from(flags.get(coords[0]));
        let (near, k) = near_strides(&strides, coords, skip..fast);
        let (done, rest) = vals.split_at_mut(start);
        predict_row(done, &mut rest[..row_len], &near, k, visit);
    };
    // The first `left` rows, in raster order, are at most `fast` + 1
    // sub-grids: along each slower axis `a` in turn, the whole steps of
    // `a` that fit, then one step of `a` holding the remainder.
    let mut left = rows_cover(dims, len) / row_len;
    let mut starts = [0; MAX_NDIM];
    let mut counts = shape;
    for a in 0..fast {
        let per_step: usize = shape[a + 1..fast].iter().product();
        counts[a] = left / per_step;
        rows(dims, starts, [1; MAX_NDIM], counts, &mut row);
        left %= per_step;
        starts[a] += counts[a];
        counts[a] = 1;
    }
    // A 1-D field is one row, which the loop above never reaches.
    if left > 0 {
        rows(dims, starts, [1; MAX_NDIM], counts, &mut row);
    }
}

/// Rebuilds every integer of `dims` from its residual, row by row in
/// raster order, no plane flagged: `fill(start, row)` writes the
/// residuals of the row that starts at point `start` into `row`, which
/// then becomes each residual plus its point's prediction from the
/// values stored so far, and `store(row, out)` checks it and stores it
/// into `vals`. The in-row neighbour is the only term from the row
/// itself, so a row is a prefix sum of its residuals plus the earlier
/// rows' corner differences; wrapping adds are exact in any order, so
/// every value is [`walk`]'s with `pred.wrapping_add(residual)` while
/// the stored values are. Stops at the first error `fill` or `store`
/// returns.
pub(crate) fn rebuild<E>(
    dims: Dims,
    vals: &mut [u32],
    mut fill: impl FnMut(usize, &mut [i64]) -> Result<(), E>,
    mut store: impl FnMut(&[i64], &mut [u32]) -> Result<(), E>,
) -> Result<(), E> {
    let fast = dims.ndim() - 1;
    let row_len = dims.axis(fast);
    let strides = dims.strides();
    let mut row = vec![0i64; row_len];
    let mut result = Ok(());
    rows(
        dims,
        [0; MAX_NDIM],
        [1; MAX_NDIM],
        extent(dims),
        |start, coords| {
            if result.is_err() {
                return;
            }
            result = fill(start, &mut row);
            if result.is_ok() {
                let (done, rest) = vals.split_at_mut(start);
                let (near, k) = near_strides(&strides, coords, 0..fast);
                match k {
                    0 => prefix_row::<0>(done, &mut row, []),
                    1 => prefix_row::<1>(done, &mut row, offsets(&near)),
                    2 => prefix_row::<3>(done, &mut row, offsets(&near)),
                    _ => prefix_row::<7>(done, &mut row, offsets(&near)),
                }
                result = store(&row, &mut rest[..row_len]);
            }
        },
    );
    result
}

/// The residuals of every integer of `dims` against [`walk`]'s
/// prediction of it from `vals`, row by row in raster order, no plane
/// flagged: `visit(start, row)` gets the residuals of the row that
/// starts at point `start`. [`rebuild`]'s inverse: each residual is the
/// difference of its point and the one before it, less the difference
/// of their earlier-row corner sums, so no residual waits on another.
pub(crate) fn residuals(dims: Dims, vals: &[u32], mut visit: impl FnMut(usize, &[i64])) {
    let fast = dims.ndim() - 1;
    let row_len = dims.axis(fast);
    let strides = dims.strides();
    let mut row = vec![0i64; row_len];
    rows(
        dims,
        [0; MAX_NDIM],
        [1; MAX_NDIM],
        extent(dims),
        |start, coords| {
            let (near, k) = near_strides(&strides, coords, 0..fast);
            let here = &vals[start..start + row_len];
            match k {
                0 => difference_row::<0>(vals, start, here, &mut row, []),
                1 => difference_row::<1>(vals, start, here, &mut row, offsets(&near)),
                2 => difference_row::<3>(vals, start, here, &mut row, offsets(&near)),
                _ => difference_row::<7>(vals, start, here, &mut row, offsets(&near)),
            }
            visit(start, &row);
        },
    );
}

/// The signed sum of the `B = 2^k − 1` earlier-row corners of point `j`
/// of a row, whose corners' rows are `above`.
#[inline(always)]
fn corner_sum<const B: usize>(above: &[&[u32]; B], j: usize) -> i64 {
    corners::<i64, B>(0, &std::array::from_fn(|i| i64::from(above[i][j])), false)
}

/// The residuals of `here`, the row that starts at point `start` of
/// `vals`, into `row`: point `j` less point `j − 1` less the difference
/// of their corner sums (`offs` back).
#[inline(always)]
fn difference_row<const B: usize>(
    vals: &[u32],
    start: usize,
    here: &[u32],
    row: &mut [i64],
    offs: [usize; B],
) {
    let len = row.len();
    let above: [&[u32]; B] = std::array::from_fn(|i| &vals[start - offs[i]..][..len]);
    let mut behind = corner_sum(&above, 0);
    row[0] = i64::from(here[0]).wrapping_sub(behind);
    for j in 1..len {
        let corner = corner_sum(&above, j);
        let step = i64::from(here[j]).wrapping_sub(i64::from(here[j - 1]));
        row[j] = step.wrapping_sub(corner.wrapping_sub(behind));
        behind = corner;
    }
}

/// Turns the residuals in `row`, which starts at point `done.len()`
/// after the earlier rows `done`, into values: point `j` adds the
/// signed sum of its `B = 2^k − 1` corners in earlier rows (`offs`
/// back), less point `j − 1`'s, to value `j − 1`.
#[inline(always)]
fn prefix_row<const B: usize>(done: &[u32], row: &mut [i64], offs: [usize; B]) {
    let (start, len) = (done.len(), row.len());
    let above: [&[u32]; B] = std::array::from_fn(|i| &done[start - offs[i]..][..len]);
    let mut behind = corner_sum(&above, 0);
    let mut value = row[0].wrapping_add(behind);
    row[0] = value;
    for (j, r) in row.iter_mut().enumerate().skip(1) {
        let here = corner_sum(&above, j);
        value = value.wrapping_add(r.wrapping_add(here.wrapping_sub(behind)));
        *r = value;
        behind = here;
    }
}

/// The strides of the axes in `axes` that a row at `coords` is off zero
/// on, in ascending axis (so ascending mask) order, and their count.
#[inline(always)]
fn near_strides(
    strides: &[usize; MAX_NDIM],
    coords: &[usize; MAX_NDIM],
    axes: core::ops::Range<usize>,
) -> ([usize; MAX_NDIM - 1], usize) {
    let mut near = [0usize; MAX_NDIM - 1];
    let mut k = 0;
    for a in axes {
        if coords[a] != 0 {
            near[k] = strides[a];
            k += 1;
        }
    }
    (near, k)
}

/// Predicts the row `row`, which follows the earlier rows `done`, off
/// zero on the `k` slower axes whose strides are `near[..k]`: the row
/// kernel with that many earlier-row corners.
#[inline(always)]
fn predict_row<V: Lane, P: Visit<V>>(
    done: &[V],
    row: &mut [V],
    near: &[usize; MAX_NDIM - 1],
    k: usize,
    visit: &mut P,
) {
    match k {
        0 => lorenzo_row::<V, _, 0>(done, row, [], visit),
        1 => lorenzo_row::<V, _, 1>(done, row, offsets(near), visit),
        2 => lorenzo_row::<V, _, 3>(done, row, offsets(near), visit),
        _ => lorenzo_row::<V, _, 7>(done, row, offsets(near), visit),
    }
}

/// The offsets of the corners in earlier rows, for a row off zero on
/// the slower axes with strides `near`: entry `m − 1` sums the strides
/// of the axes in sub-mask `m`.
fn offsets<const B: usize>(near: &[usize; MAX_NDIM - 1]) -> [usize; B] {
    std::array::from_fn(|i| {
        let m = i + 1;
        (0..MAX_NDIM - 1)
            .filter(|&b| m >> b & 1 == 1)
            .map(|b| near[b])
            .sum()
    })
}

/// `sum` plus the terms of sub-masks `1..=B` of the row's nonzero slower
/// axes, in that order: an odd number of axes enters with sign +1, an
/// even one with −1, and `flip` swaps the two (the same sub-masks with
/// the fastest axis added).
#[inline(always)]
fn corners<V: Lane, const B: usize>(mut sum: V::Sum, terms: &[V::Sum; B], flip: bool) -> V::Sum {
    for (i, &t) in terms.iter().enumerate() {
        let plus = (i + 1).count_ones() % 2 == 1;
        sum = if plus != flip {
            V::add(sum, t)
        } else {
            V::sub(sum, t)
        };
    }
    sum
}

/// The row `row`, which starts at point `done.len()` after the earlier
/// rows `done`, whose `B = 2^k − 1` corners in earlier rows sit `offs`
/// back. Masks in ascending order are those
/// corners (sub-masks `1..=B`), then the in-row neighbour (the fastest
/// axis alone, the highest bit), then the in-row neighbour's own corners
/// (each sub-mask with the fastest axis, sign flipped) — which are the
/// previous point's earlier-row corners, carried over.
#[inline(always)]
fn lorenzo_row<V: Lane, P: Visit<V>, const B: usize>(
    done: &[V],
    row: &mut [V],
    offs: [usize; B],
    visit: &mut P,
) {
    let (start, len) = (done.len(), row.len());
    // Each corner's offset is at least one row, so its window of the
    // earlier rows ends by `start`.
    let above: [&[V]; B] = std::array::from_fn(|i| &done[start - offs[i]..][..len]);
    let mut behind: [V::Sum; B] = std::array::from_fn(|i| above[i][0].widen());
    let (mut run, n) = visit.begin(len);
    let mut end = n.clamp(1, len);
    let first = visit.point(&mut run, start, corners::<V, B>(V::ZERO, &behind, false));
    row[0] = first;
    let mut prev = first.widen();
    let mut j = 1;
    loop {
        while j < end {
            let here: [V::Sum; B] = std::array::from_fn(|i| above[i][j].widen());
            let pred = V::add(corners::<V, B>(V::ZERO, &here, false), prev);
            let v = visit.point(&mut run, start + j, corners::<V, B>(pred, &behind, true));
            row[j] = v;
            prev = v.widen();
            behind = here;
            j += 1;
        }
        visit.end(run);
        if j == len {
            return;
        }
        let n;
        (run, n) = visit.begin(len - j);
        end = j + n.clamp(1, len - j);
    }
}

/// The stencil of every nonzero-coordinate mask of `dims`: entry
/// `nonzero` is [`Stencil::new`]`(strides, nonzero)`.
pub(crate) fn stencils(dims: Dims) -> Vec<Stencil> {
    let strides = dims.strides();
    (0..1u32 << dims.ndim())
        .map(|nonzero| Stencil::new(&strides[..dims.ndim()], nonzero))
        .collect()
}

/// The stencils from `stencils` of a row's first point, whose global
/// coordinates are `coords`, and of the rest of the row. Only the first
/// point can sit at fastest coordinate 0, which drops the corners behind
/// it along the fastest axis.
pub(crate) fn row_stencils<'s>(
    stencils: &'s [Stencil],
    dims: Dims,
    coords: &[usize; MAX_NDIM],
) -> (&'s Stencil, &'s Stencil) {
    let fast = dims.ndim() - 1;
    let slower = (0..fast)
        .filter(|&a| coords[a] != 0)
        .fold(0usize, |bits, a| bits | 1 << a);
    let rest = slower | 1 << fast;
    let first = if coords[fast] == 0 { slower } else { rest };
    (&stencils[first], &stencils[rest])
}

/// The shape of `dims` padded to [`MAX_NDIM`] axes.
pub(crate) fn extent(dims: Dims) -> [usize; MAX_NDIM] {
    let mut shape = [1; MAX_NDIM];
    shape[..dims.ndim()].copy_from_slice(dims.shape());
    shape
}

/// Visits the rows of the fastest axis of a strided sub-grid of `dims`,
/// in raster order. Along axis `a` the sub-grid holds the coordinates
/// `starts[a] + i·steps[a]` for `i < counts[a]`; `row(start, coords)`
/// gets the linear index and the coordinates of the row's first node and
/// walks the fastest axis itself. An empty sub-grid visits nothing.
pub(crate) fn rows(
    dims: Dims,
    starts: [usize; MAX_NDIM],
    steps: [usize; MAX_NDIM],
    counts: [usize; MAX_NDIM],
    mut row: impl FnMut(usize, &[usize; MAX_NDIM]),
) {
    let ndim = dims.ndim();
    if counts[..ndim].contains(&0) {
        return;
    }
    let strides = dims.strides();
    let mut coords = starts;
    loop {
        let start = (0..ndim).map(|a| coords[a] * strides[a]).sum();
        row(start, &coords);
        // Advance the slower axes, last one fastest.
        let mut a = ndim - 1;
        loop {
            if a == 0 {
                return;
            }
            a -= 1;
            coords[a] += steps[a];
            if coords[a] < starts[a] + counts[a] * steps[a] {
                break;
            }
            coords[a] = starts[a];
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sz::lorenzo_predict;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-point mask loop over wrapping `i64`: the reference the
    /// integer plan must match.
    fn mask_loop_int(vals: &[i64], dims: Dims, idx: usize, coords: &[usize]) -> i64 {
        let strides = dims.strides();
        let mut pred = 0i64;
        for mask in 1u32..(1 << dims.ndim()) {
            let mut off = 0usize;
            let mut ok = true;
            for (a, &c) in coords.iter().enumerate() {
                if mask & (1 << a) != 0 {
                    if c == 0 {
                        ok = false;
                        break;
                    }
                    off += strides[a];
                }
            }
            if !ok {
                continue;
            }
            if mask.count_ones() % 2 == 1 {
                pred = pred.wrapping_add(vals[idx - off]);
            } else {
                pred = pred.wrapping_sub(vals[idx - off]);
            }
        }
        pred
    }

    /// 1-D..4-D, non-cubic, with size-1 axes in every position and
    /// other axes up to `max_len` long.
    pub(crate) fn random_dims(rng: &mut StdRng, max_len: usize) -> Dims {
        let ndim = rng.gen_range(1..=4usize);
        let shape: Vec<usize> = (0..ndim)
            .map(|_| match rng.gen_range(0..4) {
                0 => 1,
                _ => rng.gen_range(1..=max_len),
            })
            .collect();
        Dims::new(&shape)
    }

    /// Smooth values mixed with NaN, ±Inf, ±0.0, ±1e30 and random bit
    /// patterns.
    pub(crate) fn random_f32(rng: &mut StdRng) -> f32 {
        const SPECIAL: [f32; 7] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1e30,
            -1e30,
        ];
        match rng.gen_range(0..4) {
            0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
            1 => f32::from_bits(rng.gen()),
            _ => rng.gen_range(0..2001) as f32 * 0.01 - 10.0,
        }
    }

    /// The bits of a prediction, every NaN mapped to the one canonical
    /// NaN. LLVM leaves the sign and payload of a NaN result unspecified,
    /// so a plan and its per-point reference may differ in NaN bits alone
    /// (a release build flips the sign of some). No stream byte depends
    /// on them: every walk stores a value with a non-finite prediction
    /// verbatim.
    pub(crate) fn pred_bits(pred: f64) -> u64 {
        if pred.is_nan() {
            f64::NAN.to_bits()
        } else {
            pred.to_bits()
        }
    }

    fn random_i64(rng: &mut StdRng) -> i64 {
        const SPECIAL: [i64; 5] = [i64::MIN, i64::MAX, -1, 0, 1];
        match rng.gen_range(0..4) {
            0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
            1 => rng.gen(),
            _ => rng.gen_range(-32_768i64..32_768),
        }
    }

    /// Random dims and a walk length: the whole field, or a prefix
    /// ending anywhere (past the end included).
    fn random_walk(rng: &mut StdRng) -> (Dims, usize) {
        let dims = random_dims(rng, 9);
        let len = match rng.gen_range(0..3) {
            0 => dims.len(),
            _ => rng.gen_range(0..=dims.len() + 2),
        };
        (dims, len)
    }

    #[test]
    fn row_kernel_matches_the_per_point_references_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x4C4F_5245_4E5A);
        for case in 0..600 {
            let (dims, len) = random_walk(&mut rng);
            let ndim = dims.ndim();
            let n = rows_cover(dims, len);
            let floats: Vec<f32> = (0..dims.len()).map(|_| random_f32(&mut rng)).collect();
            let ints: Vec<i64> = (0..dims.len()).map(|_| random_i64(&mut rng)).collect();

            let mut next = 0usize;
            let mut recon = vec![0.0f32; n];
            walk(
                dims,
                PlaneFlags::NONE,
                len,
                &mut recon,
                &mut |idx, pred: f64| {
                    assert_eq!(idx, next, "case {case} {dims}: walk left raster order");
                    next += 1;
                    let coords = dims.coords(idx);
                    let want = lorenzo_predict(&floats, dims, idx, &coords[..ndim]);
                    assert_eq!(
                        pred_bits(pred),
                        pred_bits(want),
                        "case {case} {dims} len {len} point {idx}: f64 {pred} vs {want}"
                    );
                    floats[idx]
                },
            );
            assert_eq!(next, n, "case {case} {dims} len {len}: points visited");
            let same = recon
                .iter()
                .zip(&floats)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "case {case} {dims}: the walk stores each value");

            let mut vals = vec![0i64; n];
            walk(
                dims,
                PlaneFlags::NONE,
                len,
                &mut vals,
                &mut |idx, pred: i64| {
                    let coords = dims.coords(idx);
                    let want = mask_loop_int(&ints, dims, idx, &coords[..ndim]);
                    assert_eq!(pred, want, "case {case} {dims} len {len} point {idx}: i64");
                    ints[idx]
                },
            );
        }
    }

    #[test]
    fn row_differences_and_prefix_sums_match_the_walks_residuals() {
        let mut rng = StdRng::seed_from_u64(0x5052_4546);
        for case in 0..400 {
            let dims = random_dims(&mut rng, 9);
            let want: Vec<u32> = (0..dims.len()).map(|_| rng.gen()).collect();
            let mut res = vec![0i64; dims.len()];
            let mut walked = vec![0i64; dims.len()];
            walk(
                dims,
                PlaneFlags::NONE,
                dims.len(),
                &mut walked,
                &mut |idx, pred: i64| {
                    let t = i64::from(want[idx]);
                    res[idx] = t.wrapping_sub(pred);
                    t
                },
            );
            let mut next = 0;
            residuals(dims, &want, |start, row| {
                assert_eq!(start, next, "case {case} {dims}: rows left raster order");
                next += row.len();
                assert_eq!(row, &res[start..next], "case {case} {dims}");
            });
            assert_eq!(next, dims.len(), "case {case} {dims}");
            let mut got = vec![0u32; dims.len()];
            let mut next = 0;
            rebuild(
                dims,
                &mut got,
                |start, row| {
                    assert_eq!(start, next, "case {case} {dims}: rows left raster order");
                    next += row.len();
                    row.copy_from_slice(&res[start..start + row.len()]);
                    Ok::<(), ()>(())
                },
                |row, out| {
                    for (o, &t) in out.iter_mut().zip(row) {
                        *o = u32::try_from(t).map_err(|_| ())?;
                    }
                    Ok(())
                },
            )
            .unwrap_or_else(|()| panic!("case {case} {dims}: a value left u32"));
            assert_eq!(got, want, "case {case} {dims}");
        }
    }

    /// A visitor that cuts the rows into runs of random length, holds
    /// the walk to them, and checks each prediction against the
    /// per-point reference.
    struct Chopped<'t> {
        rng: StdRng,
        floats: &'t [f32],
        dims: Dims,
        open: bool,
    }

    impl Visit<f32> for Chopped<'_> {
        /// The points left in the run.
        type Run = usize;

        fn begin(&mut self, len: usize) -> (usize, usize) {
            assert!(!self.open && len > 0, "a run begins inside a row");
            self.open = true;
            let n = self.rng.gen_range(1..=len);
            (n, n)
        }

        fn point(&mut self, run: &mut usize, idx: usize, pred: f64) -> f32 {
            assert!(*run > 0, "point {idx} past its run");
            *run -= 1;
            let coords = self.dims.coords(idx);
            let want = lorenzo_predict(self.floats, self.dims, idx, &coords[..self.dims.ndim()]);
            assert_eq!(
                pred_bits(pred),
                pred_bits(want),
                "{} point {idx}",
                self.dims
            );
            self.floats[idx]
        }

        fn end(&mut self, run: usize) {
            assert_eq!(run, 0, "a run ends with its points visited");
            self.open = false;
        }
    }

    #[test]
    fn runs_split_rows_without_changing_a_prediction() {
        let mut rng = StdRng::seed_from_u64(0x52_554E53);
        for _ in 0..300 {
            let (dims, len) = random_walk(&mut rng);
            let floats: Vec<f32> = (0..dims.len()).map(|_| random_f32(&mut rng)).collect();
            let mut chopped = Chopped {
                rng: StdRng::seed_from_u64(rng.gen()),
                floats: &floats,
                dims,
                open: false,
            };
            let mut recon = vec![0.0f32; rows_cover(dims, len)];
            walk(dims, PlaneFlags::NONE, len, &mut recon, &mut chopped);
            assert!(!chopped.open, "{dims}: the last run ended");
        }
    }

    #[test]
    fn flagged_planes_predict_without_the_plane_before() {
        let mut rng = StdRng::seed_from_u64(0x464C_4147);
        for case in 0..400 {
            let dims = random_dims(&mut rng, 7);
            if dims.ndim() < 2 {
                continue;
            }
            let n0 = dims.axis(0);
            let plane = dims.len() / n0;
            let bits: Vec<u8> = (0..n0.div_ceil(8)).map(|_| rng.gen()).collect();
            let flags = PlaneFlags::new(&bits);
            let floats: Vec<f32> = (0..dims.len()).map(|_| random_f32(&mut rng)).collect();
            let reference = |idx: usize| {
                let mut coords = dims.coords(idx);
                if flags.get(coords[0]) {
                    coords[0] = 0;
                }
                lorenzo_predict(&floats, dims, idx, &coords[..dims.ndim()])
            };
            let mut preds = vec![0.0f64; dims.len()];
            let mut recon = vec![0.0f32; dims.len()];
            walk(
                dims,
                flags,
                dims.len(),
                &mut recon,
                &mut |idx, pred: f64| {
                    assert_eq!(
                        pred_bits(pred),
                        pred_bits(reference(idx)),
                        "case {case} {dims} point {idx}"
                    );
                    preds[idx] = pred;
                    floats[idx]
                },
            );
            // A walk of the sub-field from a flagged plane predicts each
            // of its points as the whole walk did.
            for p in (1..n0).filter(|&p| flags.get(p)) {
                let mut shape = dims.shape().to_vec();
                shape[0] -= p;
                let sub = Dims::new(&shape);
                let mut vals = vec![0.0f32; sub.len()];
                walk(
                    sub,
                    flags.skip(p),
                    sub.len(),
                    &mut vals,
                    &mut |idx, pred: f64| {
                        let at = p * plane + idx;
                        assert_eq!(
                            pred_bits(pred),
                            pred_bits(preds[at]),
                            "case {case} {dims} from plane {p}, point {at}"
                        );
                        floats[at]
                    },
                );
            }
        }
    }

    #[test]
    fn the_choice_flags_planes_the_plane_before_does_not_help() {
        let dims = Dims::d3(6, 16, 16);
        let noise = |i: usize| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f32;
        // Independent planes: every plane after the first is flagged.
        let independent: Vec<f32> = (0..dims.len()).map(noise).collect();
        assert_eq!(choose(&independent, dims), [0b11_1110]);
        // Repeated planes: the plane before predicts each exactly.
        let repeated: Vec<f32> = (0..dims.len()).map(|i| noise(i % 256)).collect();
        assert!(choose(&repeated, dims).is_empty());
        // A non-finite sum never flags: an infinity in a row the choice
        // reads (row 8 of plane 3) makes both of plane 3's sums
        // infinite, and plane 4's full-stencil sum.
        let mut inf = independent.clone();
        inf[3 * 256 + 8 * 16 + 5] = f32::INFINITY;
        assert_eq!(choose(&inf, dims), [0b10_0110]);
        // Fields of fewer than three axes are never flagged.
        assert!(choose(&independent, Dims::d2(96, 16)).is_empty());
        assert!(choose(&independent, Dims::d1(1536)).is_empty());
    }

    #[test]
    fn prefix_walk_stops_after_the_row_holding_the_last_point() {
        let mut rng = StdRng::seed_from_u64(0x5052_4546);
        for case in 0..400 {
            let (dims, len) = random_walk(&mut rng);
            let row_len = dims.axis(dims.ndim() - 1);
            let want = len.min(dims.len()).div_ceil(row_len) * row_len;
            assert_eq!(rows_cover(dims, len), want, "case {case} {dims} len {len}");
            let mut next = 0usize;
            walk(
                dims,
                PlaneFlags::NONE,
                len,
                &mut vec![0.0f32; want],
                &mut |idx, _| {
                    assert_eq!(idx, next, "case {case} {dims} len {len}: not raster order");
                    next += 1;
                    0.0
                },
            );
            assert_eq!(next, want, "case {case} {dims} len {len}: points visited");
        }
    }
}
