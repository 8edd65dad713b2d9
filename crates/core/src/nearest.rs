//! Branch-free nearest-representative search over `total_cmp`-sorted
//! codebooks.
//!
//! Shared by the composer's encode paths and the serve-side batch
//! kernels (where it originated): mapping each float to an integer
//! whose natural order matches [`f32::total_cmp`] turns the nearest
//! search into a count of integer compares with no data-dependent
//! branches — the dominant cost of encoding random data through a
//! small book. The result is bit-for-bit identical to a
//! `binary_search_by(total_cmp)` plus neighbour tie-break (ties resolve
//! to the smaller representative).

/// Total-order key of an `f32`: an integer whose natural ordering is
/// exactly [`f32::total_cmp`] (flip the payload bits of negative
/// values).
#[inline]
pub fn total_key(v: f32) -> i32 {
    let bits = v.to_bits() as i32;
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// Fills `keys` with the total-order keys of `book`, reusing the
/// allocation.
pub fn load_keys(keys: &mut Vec<i32>, book: &[f32]) {
    keys.clear();
    keys.extend(book.iter().map(|&v| total_key(v)));
}

/// Nearest-representative search over a `total_cmp`-sorted codebook
/// with precomputed `keys`, as a `u16` code. Counting keys below the
/// probe gives the insertion point, the exact-match test keeps
/// bit-identical behaviour for `-0.0`/`0.0` neighbours, and the
/// boundary clamp folds into the final select.
///
/// # Panics
///
/// Panics when `book` is empty.
#[inline]
pub fn nearest_sorted(book: &[f32], keys: &[i32], value: f32) -> u16 {
    nearest_index(book, keys, value) as u16
}

/// Index form of [`nearest_sorted`], for tables that may outgrow the
/// `u16` code range (e.g. activation LUTs).
///
/// # Panics
///
/// Panics when `book` is empty.
#[inline]
pub fn nearest_index(book: &[f32], keys: &[i32], value: f32) -> usize {
    let kv = total_key(value);
    let mut ins = 0usize;
    for &k in keys {
        ins += (k < kv) as usize;
    }
    resolve(book, keys, ins, kv, value)
}

/// Turns an insertion point back into the nearest index: exact-match
/// short-circuit (keeps `-0.0`/`0.0` neighbours bit-identical), then
/// the boundary-clamped neighbour tie-break.
#[inline]
fn resolve(book: &[f32], keys: &[i32], ins: usize, kv: i32, value: f32) -> usize {
    if ins < keys.len() && keys[ins] == kv {
        return ins;
    }
    let hi = ins.min(book.len() - 1);
    let lo = ins.saturating_sub(1).min(book.len() - 1);
    // At the ends lo == hi, so the select is a no-op either way.
    let take_lo = (value - book[lo]).abs() <= (book[hi] - value).abs();
    hi - (take_lo as usize) * (hi - lo)
}

/// Probes swept per inner pass of [`nearest_sorted_block`]: small
/// enough that the key, count and probe working sets stay in L1, large
/// enough that each per-key pass vectorizes over a full chunk.
const SWEEP: usize = 256;

/// Largest codebook the threshold tabulation of
/// [`nearest_sorted_block`] applies to (bounds its stack array).
const THRESH_BOOK: usize = 256;

/// Batch form of [`nearest_sorted`]: encodes every probe in `values`
/// into `out[..values.len()]`, bit-for-bit identical to calling the
/// scalar search per element.
///
/// The scalar search counts all keys below one probe, then runs a
/// neighbour tie-break per element. This form exploits that the whole
/// nearest map is a *monotone step function of the total-order key*:
/// for batches large enough to amortize it, the exact key of each
/// code boundary is tabulated up front ([`build_thresholds`]), after
/// which encoding one probe is a branch-free count of boundaries below
/// its key — no per-element tie-break at all — swept key-outermost so
/// every pass vectorizes over a whole chunk. Small batches (or books
/// past [`THRESH_BOOK`]) skip the tabulation and sweep the insertion
/// counts instead, finishing through the scalar resolver.
///
/// # Panics
///
/// Panics when `book` is empty or `out` is shorter than `values`.
pub fn nearest_sorted_block(book: &[f32], keys: &[i32], values: &[f32], out: &mut [u16]) {
    let out = &mut out[..values.len()];
    // Tabulation costs ~32 scalar searches per boundary; counting then
    // saves the per-element resolve, so it pays for itself once the
    // batch clearly outweighs the boundary count.
    if (2..=THRESH_BOOK).contains(&book.len()) && values.len() >= book.len() * book.len() / 2 {
        let mut thr = [0i32; THRESH_BOOK - 1];
        let thr = &mut thr[..book.len() - 1];
        build_thresholds(book, keys, thr);
        nearest_thresholded_block(thr, values, out);
        return;
    }
    let mut kv = [0i32; SWEEP];
    let mut ins = [0u32; SWEEP];
    for (chunk, dst) in values.chunks(SWEEP).zip(out.chunks_mut(SWEEP)) {
        let n = chunk.len();
        count_below(keys, chunk, &mut kv[..n], &mut ins[..n]);
        for (((d, &i), &c), &v) in dst.iter_mut().zip(&ins[..n]).zip(&kv[..n]).zip(chunk) {
            *d = resolve(book, keys, i as usize, c, v) as u16;
        }
    }
}

/// One sweep of the block searches: fills `kv` with the total-order
/// keys of `chunk` and `ins` with, per probe, how many of `bounds` lie
/// below its key — bound-outermost, so every pass vectorizes over the
/// whole chunk.
#[inline]
fn count_below(bounds: &[i32], chunk: &[f32], kv: &mut [i32], ins: &mut [u32]) {
    for (d, &v) in kv.iter_mut().zip(chunk) {
        *d = total_key(v);
    }
    ins.fill(0);
    for &b in bounds {
        for (i, &c) in ins.iter_mut().zip(&*kv) {
            *i += u32::from(b < c);
        }
    }
}

/// The counting half of [`nearest_sorted_block`] for callers that keep
/// a book's boundaries ([`tabulate_thresholds`]) instead of rebuilding
/// them per call: encodes every probe in `values` into
/// `out[..values.len()]` as the number of `thr` entries below its
/// total-order key.
///
/// # Panics
///
/// Panics when `out` is shorter than `values`.
pub fn nearest_thresholded_block(thr: &[i32], values: &[f32], out: &mut [u16]) {
    let out = &mut out[..values.len()];
    let mut kv = [0i32; SWEEP];
    let mut ins = [0u32; SWEEP];
    for (chunk, dst) in values.chunks(SWEEP).zip(out.chunks_mut(SWEEP)) {
        let n = chunk.len();
        count_below(thr, chunk, &mut kv[..n], &mut ins[..n]);
        for (d, &i) in dst.iter_mut().zip(&ins[..n]) {
            *d = i as u16;
        }
    }
}

/// The boundaries [`nearest_thresholded_block`] counts against, for a
/// `total_cmp`-sorted `book` with its `keys`: `book.len() - 1` keys in
/// ascending order. `None` for an empty book and for one past the
/// tabulation cap (256 entries), whose boundaries would cost more to
/// find than any caller has shown they save.
pub fn tabulate_thresholds(book: &[f32], keys: &[i32]) -> Option<Vec<i32>> {
    if !(1..=THRESH_BOOK).contains(&book.len()) {
        return None;
    }
    let mut thr = vec![0i32; book.len() - 1];
    build_thresholds(book, keys, &mut thr);
    Some(thr)
}

/// Tabulates the exact code boundaries of the nearest map in key
/// space: `thr[i]` is the largest total-order key whose nearest index
/// is `<= i`, so `nearest(v) == count of thr entries < total_key(v)`.
///
/// Each boundary is found by binary search over the whole key domain
/// with the *scalar search itself* as the oracle, so the tabulation
/// reproduces its semantics — tie-breaks, `-0.0`/`0.0` exact-match
/// behaviour, boundary clamps — bit for bit by construction. The
/// search is sound because the map is monotone in the key: the f32
/// tie-break `(v - lo) <= (hi - v)` flips at most once as `v` rises,
/// and the only equal-value subtlety (a book holding both zeros) sits
/// on adjacent keys, which a key-space threshold separates exactly.
fn build_thresholds(book: &[f32], keys: &[i32], thr: &mut [i32]) {
    for (i, t) in thr.iter_mut().enumerate() {
        // `total_key` is an involution, so it also maps keys back to
        // value bits. oracle(i32::MIN) is the negative-NaN probe
        // (index 0, always <= i); oracle(i32::MAX) is positive NaN
        // (the last index, never <= i here) — the search stays framed.
        let oracle = |k: i64| {
            let k = k as i32;
            let bits = total_key(f32::from_bits(k as u32)) as u32;
            nearest_index(book, keys, f32::from_bits(bits))
        };
        let (mut lo, mut hi) = (i64::from(i32::MIN), i64::from(i32::MAX));
        while lo < hi {
            let mid = (lo + hi + 1) >> 1;
            if oracle(mid) <= i {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        *t = lo as i32;
    }
}

/// Inclusive index range of codebook entries reachable from any probe
/// in `[lo, hi]`: because the book is sorted and the nearest map is
/// monotone in the probe, the reachable set is exactly the contiguous
/// run `nearest(lo)..=nearest(hi)`. Used by the static analyzer
/// (`rapidnn-analyze`) to propagate interval bounds through encode
/// steps with the runtime's own search semantics.
///
/// # Panics
///
/// Panics when `book` is empty.
#[inline]
pub fn nearest_range(book: &[f32], keys: &[i32], lo: f32, hi: f32) -> (usize, usize) {
    let a = nearest_index(book, keys, lo);
    let b = nearest_index(book, keys, hi);
    (a.min(b), a.max(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference semantics: binary search over the total order, then
    /// neighbour tie-break toward the smaller representative.
    fn reference(book: &[f32], value: f32) -> usize {
        match book.binary_search_by(|probe| probe.total_cmp(&value)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) if i >= book.len() => book.len() - 1,
            Err(i) => {
                let (lo, hi) = (i - 1, i);
                if (value - book[lo]).abs() <= (book[hi] - value).abs() {
                    lo
                } else {
                    hi
                }
            }
        }
    }

    #[test]
    fn matches_binary_search_reference() {
        let books: &[&[f32]] = &[
            &[0.0],
            &[-1.25, -0.5, 0.2, 0.45],
            &[-0.0, 0.0, 1.0],
            &[f32::MIN, -1.0, 0.0, 1.0, f32::MAX],
        ];
        let probes = [
            f32::NEG_INFINITY,
            f32::MIN,
            -2.0,
            -1.25,
            -0.875,
            -0.5,
            -0.15,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            0.2,
            0.325,
            0.45,
            1.0,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ];
        let mut keys = Vec::new();
        for book in books {
            load_keys(&mut keys, book);
            for &p in &probes {
                assert_eq!(
                    nearest_index(book, &keys, p),
                    reference(book, p),
                    "book={book:?} probe={p}"
                );
            }
        }
    }

    #[test]
    fn nearest_range_covers_exactly_the_reachable_set() {
        let book: &[f32] = &[-1.25, -0.5, 0.2, 0.45, 2.0];
        let mut keys = Vec::new();
        load_keys(&mut keys, book);
        let probes: Vec<f32> = (-30..=30).map(|i| i as f32 * 0.1).collect();
        for (i, &lo) in probes.iter().enumerate() {
            for &hi in &probes[i..] {
                let (a, b) = nearest_range(book, &keys, lo, hi);
                // Brute force: every probe in [lo, hi] lands inside the
                // range, and both endpoints of the range are hit.
                let mut hit_lo = false;
                let mut hit_hi = false;
                for &p in probes.iter().filter(|&&p| p >= lo && p <= hi) {
                    let n = nearest_index(book, &keys, p);
                    assert!((a..=b).contains(&n), "probe {p} escaped [{a}, {b}]");
                    hit_lo |= n == a;
                    hit_hi |= n == b;
                }
                assert!(hit_lo && hit_hi, "[{lo}, {hi}] -> [{a}, {b}] not tight");
            }
        }
    }

    #[test]
    fn block_encode_matches_scalar_bitwise() {
        let books: &[&[f32]] = &[
            &[0.0],
            &[-1.25, -0.5, 0.2, 0.45],
            &[-0.0, 0.0, 1.0],
            &[f32::MIN, -1.0, -0.0, 0.0, 1.0, f32::MAX],
        ];
        let mut keys = Vec::new();
        for book in books {
            load_keys(&mut keys, book);
            // Cross chunk boundaries (> SWEEP probes), hit the special
            // values the scalar search is tested against, and bracket
            // every adjacent-pair midpoint by a few ulps — the exact
            // keys where the tabulated thresholds could be off by one.
            let mut probes: Vec<f32> = (0..700).map(|i| (i as f32).mul_add(0.013, -4.0)).collect();
            probes.extend([
                f32::NEG_INFINITY,
                f32::INFINITY,
                f32::NAN,
                -0.0,
                0.0,
                f32::MIN_POSITIVE,
                f32::MAX,
                f32::MIN,
            ]);
            probes.extend_from_slice(book);
            for pair in book.windows(2) {
                let mid = ((f64::from(pair[0]) + f64::from(pair[1])) / 2.0) as f32;
                let kv = total_key(mid);
                for d in -3i32..=3 {
                    let bits = total_key(f32::from_bits(kv.wrapping_add(d) as u32));
                    probes.push(f32::from_bits(bits as u32));
                }
            }
            // Large slice takes the threshold tabulation; tiny slices
            // fall back to the per-element resolve. Both must agree
            // with the scalar search bit for bit.
            let mut block = vec![0u16; probes.len()];
            nearest_sorted_block(book, &keys, &probes, &mut block);
            for (&p, &got) in probes.iter().zip(&block) {
                assert_eq!(
                    got,
                    nearest_sorted(book, &keys, p),
                    "book={book:?} probe={p}"
                );
            }
            let mut small = [0u16; 3];
            for chunk in probes.chunks(3) {
                nearest_sorted_block(book, &keys, chunk, &mut small);
                for (&p, &got) in chunk.iter().zip(&small) {
                    assert_eq!(
                        got,
                        nearest_sorted(book, &keys, p),
                        "small chunk: book={book:?} probe={p}"
                    );
                }
            }
            // A kept tabulation must agree at every batch size, the
            // small ones the per-call path never tabulates for included.
            let thr = tabulate_thresholds(book, &keys).expect("book within the cap");
            assert_eq!(thr.len(), book.len() - 1);
            for chunk in probes.chunks(3).chain([&probes[..]]) {
                nearest_thresholded_block(&thr, chunk, &mut block);
                for (&p, &got) in chunk.iter().zip(&block) {
                    assert_eq!(
                        got,
                        nearest_sorted(book, &keys, p),
                        "kept thresholds: book={book:?} probe={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn total_key_orders_like_total_cmp() {
        let vals = [
            f32::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            1.0,
            f32::INFINITY,
            f32::NAN,
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    total_key(a).cmp(&total_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }
}
