//! Branch-free nearest-representative search over `total_cmp`-sorted
//! codebooks.
//!
//! Shared by the composer's encode paths and the serve-side batch
//! kernels (where it originated): mapping each float to an integer
//! whose natural order matches [`f32::total_cmp`] turns the nearest
//! search into a count of integer compares with no data-dependent
//! branches — the dominant cost of encoding random data through a
//! small book. The result is bit-for-bit identical to [`nearest`], a
//! `total_cmp` insertion point plus neighbour tie-break (ties resolve to
//! the smaller representative, equal entries to the first).

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

/// The rule every search here reproduces, in its readable form: the
/// insertion point in the total order of a `total_cmp`-sorted `book`
/// (the first entry not below `value`); an exact match there is the
/// answer — the first of equal entries —, else the nearer neighbour,
/// ties to the smaller representative; returns the index (0 for an
/// empty book). What the branch-free searches are tested against, and
/// what an activation lookup or a one-off encode calls.
pub fn nearest(book: &[f32], value: f32) -> usize {
    use std::cmp::Ordering::{Equal, Less};
    let i = book.partition_point(|probe| probe.total_cmp(&value) == Less);
    match i {
        0 => 0,
        i if i >= book.len() => book.len() - 1,
        i if book[i].total_cmp(&value) == Equal => i,
        i => {
            let (lo, hi) = (i - 1, i);
            if (value - book[lo]).abs() <= (book[hi] - value).abs() {
                lo
            } else {
                hi
            }
        }
    }
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

/// Probes per register-resident chunk of the block encoders: a chunk's
/// keys and running sums stay in vector registers across every bound,
/// so a sweep touches memory once per probe. Thirty-two is four `ymm`
/// registers of keys and four of sums in the serving encoder's AVX2
/// function, which inlines these encoders. `mnist-tiny`'s int16 input
/// encode (64 × 784 probes against 7 bounds, best of 2000 on a Xeon
/// with AVX-512): 26–28 µs at 32 and 33–36 µs at 16 inside the
/// executor's former single AVX2 frame, 39–42 and 45–49 µs compiled for
/// baseline x86_64. Eight falls back to scalar code.
const CHUNK: usize = 32;

/// Largest codebook [`tabulate_thresholds`] applies to (bounds the
/// stack array of [`nearest_thresholded_levels`]).
const THRESH_BOOK: usize = 256;

/// One chunk of a block encode: per probe key, the sum of `step(t)`
/// over every `bounds[t]` below it. With unit steps that is the count
/// of bounds below the key — an insertion point, or against tabulated
/// thresholds the code itself; with the differences of a per-code level
/// table it telescopes to the level of that code.
#[inline(always)]
fn sweep_chunk(bounds: &[i32], step: impl Fn(usize) -> i32, keys: &[i32; CHUNK]) -> [i32; CHUNK] {
    let mut acc = [0i32; CHUNK];
    for (t, &b) in bounds.iter().enumerate() {
        let s = step(t);
        for (a, &k) in acc.iter_mut().zip(keys) {
            // All-ones mask where the bound lies below the key.
            *a = a.wrapping_add(-i32::from(b < k) & s);
        }
        // Keeps the vector lanes across the probes: without a barrier
        // here the loop vectorizer takes eight or more bounds as its
        // lanes instead, broadcasting every key (15 bounds: 103 µs for
        // 64 × 784 probes against 58 µs with it).
        std::hint::black_box(());
    }
    acc
}

/// Drives [`sweep_chunk`] over `values` in [`CHUNK`]-probe chunks and
/// writes `finish(probe, key, sum)` of every probe into
/// `out[..values.len()]`. A short last chunk is swept zero-padded; only
/// its real probes are finished.
#[inline(always)]
fn sweep<T>(
    bounds: &[i32],
    step: impl Fn(usize) -> i32 + Copy,
    values: &[f32],
    out: &mut [T],
    finish: impl Fn(f32, i32, i32) -> T,
) {
    let out = &mut out[..values.len()];
    let (full, tail) = values.as_chunks::<CHUNK>();
    let (out_full, out_tail) = out.as_chunks_mut::<CHUNK>();
    for (chunk, dst) in full.iter().zip(out_full) {
        let keys: [i32; CHUNK] = std::array::from_fn(|i| total_key(chunk[i]));
        let acc = sweep_chunk(bounds, step, &keys);
        *dst = std::array::from_fn(|i| finish(chunk[i], keys[i], acc[i]));
    }
    if !tail.is_empty() {
        let mut keys = [0i32; CHUNK];
        for (k, &v) in keys.iter_mut().zip(tail) {
            *k = total_key(v);
        }
        let acc = sweep_chunk(bounds, step, &keys);
        for (i, (d, &v)) in out_tail.iter_mut().zip(tail).enumerate() {
            *d = finish(v, keys[i], acc[i]);
        }
    }
}

/// Batch form of [`nearest_index`] for books too large to tabulate
/// ([`tabulate_thresholds`]): writes `level(index)` of every probe in
/// `values` into `out[..values.len()]`, the index bit-for-bit the one
/// the scalar search finds. Each chunk sweeps the insertion counts over
/// the book's keys and finishes through the scalar resolver.
///
/// # Panics
///
/// Panics when `book` is empty or `out` is shorter than `values`.
#[inline]
pub fn nearest_sorted_block<T>(
    book: &[f32],
    keys: &[i32],
    values: &[f32],
    out: &mut [T],
    level: impl Fn(usize) -> T,
) {
    sweep(
        keys,
        |_| 1,
        values,
        out,
        |v, kv, ins| level(resolve(book, keys, ins as usize, kv, v)),
    );
}

/// Block encode against a book's kept boundaries
/// ([`tabulate_thresholds`]): writes the code of every probe in
/// `values` — the number of `thr` entries below its total-order key —
/// into `out[..values.len()]`.
///
/// # Panics
///
/// Panics when `out` is shorter than `values`.
#[inline]
pub fn nearest_thresholded_block(thr: &[i32], values: &[f32], out: &mut [u16]) {
    sweep(thr, |_| 1, values, out, |_, _, count| count as u16);
}

/// [`nearest_thresholded_block`] for a consumer that reads a per-code
/// `i16` level instead of the code: writes `levels[code]` of every
/// probe, with no code in between. The sweep adds
/// `levels[t + 1] - levels[t]` for every boundary below the key onto
/// `levels[0]`; the boundaries are sorted, so the ones below a key are
/// exactly the first `code` of them and the sum telescopes to
/// `levels[code]` — exactly, in wrapping `i32`, whatever the levels.
///
/// # Panics
///
/// Panics when `levels` is not one entry longer than `thr`, `thr` is
/// past the tabulation cap, or `out` is shorter than `values`.
#[inline]
pub fn nearest_thresholded_levels(thr: &[i32], levels: &[i16], values: &[f32], out: &mut [i16]) {
    assert_eq!(levels.len(), thr.len() + 1, "one level per code");
    let mut steps = [0i32; THRESH_BOOK - 1];
    let steps = &mut steps[..thr.len()];
    for (s, pair) in steps.iter_mut().zip(levels.windows(2)) {
        *s = i32::from(pair[1]) - i32::from(pair[0]);
    }
    let (base, steps) = (i32::from(levels[0]), &*steps);
    sweep(
        thr,
        |t| steps[t],
        values,
        out,
        |_, _, sum| base.wrapping_add(sum) as i16,
    );
}

/// The boundaries [`nearest_thresholded_block`] counts against, for a
/// `total_cmp`-sorted `book` with its `keys` ([`build_thresholds`]).
/// `None` for an empty book and for one past the tabulation cap (256
/// entries), which the block encoders' stack arrays are sized for.
pub fn tabulate_thresholds(book: &[f32], keys: &[i32]) -> Option<Vec<i32>> {
    (1..=THRESH_BOOK)
        .contains(&book.len())
        .then(|| build_thresholds(book, keys))
}

/// Tabulates the exact code boundaries of the nearest map in key
/// space, at any book size: `book.len() - 1` keys, `thr[i]` the largest
/// total-order key whose nearest index is `<= i`, so
/// `nearest(v) == count of thr entries < total_key(v)`.
///
/// Boundary `i` lies between entries `i` and `i + 1`, where the search
/// decides between those two alone: a probe at or below entry `i`'s
/// key answers at most `i`, one above entry `i + 1`'s at least `i + 1`,
/// and one between them takes the nearer of the pair or, on entry
/// `i + 1`'s key, that entry. So each boundary is found with the
/// *scalar search itself* as the oracle, run over the pair — which
/// reproduces its semantics (tie-breaks, `-0.0`/`0.0` exact-match
/// behaviour, repeated entries, boundary clamps) bit for bit by
/// construction. From the pair's midpoint key it gallops to a key on
/// the far side, then bisects. The search is sound because the map is
/// monotone in the key: the f32 tie-break `(v - lo) <= (hi - v)` flips
/// at most once as `v` rises, and the only equal-value subtlety (a
/// book holding both zeros) sits on adjacent keys, which a key-space
/// boundary separates exactly. An unsorted book has no such boundaries
/// (its nearest map is not monotone); the analyzer refuses one.
pub fn build_thresholds(book: &[f32], keys: &[i32]) -> Vec<i32> {
    let at_most_first = |pair: &[f32], pk: &[i32], k: i64| {
        // `total_key` is an involution, so it also maps keys back to
        // value bits.
        let v = f32::from_bits(total_key(f32::from_bits(k as i32 as u32)) as u32);
        nearest_index(pair, pk, v) == 0
    };
    let (min, max) = (i64::from(i32::MIN), i64::from(i32::MAX));
    let boundary = |(pair, pk): (&[f32], &[i32])| {
        let low = |k: i64| at_most_first(pair, pk, k);
        let mid = ((f64::from(pair[0]) + f64::from(pair[1])) / 2.0) as f32;
        let start = i64::from(total_key(mid));
        // `lo` answers the first entry (or is one below the key
        // domain), `hi` the second (or one above it).
        let (mut lo, mut hi) = (start, start);
        let mut step = 1;
        if low(start) {
            while hi <= max && low(hi) {
                (lo, hi, step) = (hi, (hi + step).min(max + 1), step * 2);
            }
        } else {
            while lo >= min && !low(lo) {
                (hi, lo, step) = (lo, (lo - step).max(min - 1), step * 2);
            }
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            *if low(mid) { &mut lo } else { &mut hi } = mid;
        }
        lo.max(min) as i32
    };
    book.windows(2).zip(keys.windows(2)).map(boundary).collect()
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

    #[test]
    fn nearest_matches_codebook_semantics() {
        let values = [-1.25f32, -0.5, 0.2, 0.45];
        assert_eq!(nearest(&values, 1.2), 3);
        assert_eq!(nearest(&values, -9.0), 0);
        assert_eq!(nearest(&values, 0.2), 2);
        assert_eq!(nearest(&values, -0.9), 0);
        assert_eq!(nearest(&values, -0.6), 1);
        // Ties resolve low.
        assert_eq!(nearest(&[0.0, 2.0], 1.0), 0);
    }

    /// The branch-free search agrees with the reference binary search
    /// on every probe, including exact hits, ties, boundary clamps,
    /// signed zeros, infinities and NaN — and on books with repeated
    /// entries (which the analyzer passes as sorted), where both answer
    /// the first of the equal entries.
    #[test]
    fn matches_binary_search_reference() {
        let books: &[&[f32]] = &[
            &[0.0],
            &[-1.0, 1.0],
            &[-1.25, -0.5, 0.2, 0.45],
            &[-2.0, -0.5, 0.0, 0.25, 3.0],
            &[-0.0, 0.0, 1.0],
            &[f32::MIN, -1.0, 0.0, 1.0, f32::MAX],
            &[f32::NEG_INFINITY, -1.0, 0.0, f32::INFINITY],
            &[0.0, 1.0, 1.0, 1.0, 2.0],
            &[1.0, 1.0],
            &[-0.0, 0.0, 0.0, 1.0],
            &[-0.0, -0.0, 0.0, 0.0],
            &[-2.0, -2.0, 0.5, 3.0, 3.0],
        ];
        assert_eq!(nearest(&[0.0, 1.0, 1.0, 1.0, 2.0], 1.0), 1);
        assert_eq!(nearest(&[1.0, 1.0], 1.0), 0);
        assert_eq!(nearest(&[-0.0, 0.0, 0.0, 1.0], 0.0), 1);
        let mut probes = vec![
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
        probes.extend((-40..=40).map(|i| i as f32 * 0.11));
        let mut keys = Vec::new();
        for book in books {
            load_keys(&mut keys, book);
            for &p in &probes {
                assert_eq!(
                    nearest_index(book, &keys, p),
                    nearest(book, p),
                    "book={book:?} probe={p}"
                );
            }
        }
    }

    /// The boundaries found from each pair's midpoint equal those a
    /// bisection over the whole key domain finds with the search over
    /// the whole book as its oracle, on random sorted books of 1–64
    /// entries holding repeats, both zeros, infinities, `f32::MAX` and
    /// subnormals.
    #[test]
    fn thresholds_match_a_whole_domain_bisection() {
        use rapidnn_prop::{usize_in, SeededRng};
        let whole = |book: &[f32], keys: &[i32], i: usize| {
            let oracle = |k: i64| {
                let v = f32::from_bits(total_key(f32::from_bits(k as i32 as u32)) as u32);
                nearest_index(book, keys, v)
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
            lo as i32
        };
        let special = [
            -0.0,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::MIN_POSITIVE,
        ];
        let mut rng = SeededRng::new(0x7e5);
        let mut keys = Vec::new();
        for round in 0..600 {
            let size = 1 + round % 64;
            let mut book: Vec<f32> = (0..size)
                .map(|_| match usize_in(&mut rng, 0, 6) {
                    0 => special[usize_in(&mut rng, 0, special.len())],
                    1 => rng.uniform(-1.0e-30, 1.0e-30),
                    _ => rng.uniform(-3.0, 3.0),
                })
                .collect();
            for _ in 0..size / 6 {
                let (from, to) = (usize_in(&mut rng, 0, size), usize_in(&mut rng, 0, size));
                book[to] = book[from];
            }
            book.sort_by(f32::total_cmp);
            load_keys(&mut keys, &book);
            let thr = build_thresholds(&book, &keys);
            let want: Vec<i32> = (0..size - 1).map(|i| whole(&book, &keys, i)).collect();
            assert_eq!(thr, want, "book {book:?}");
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

    /// Every block encoder — codes and levels against kept thresholds,
    /// and the sweep-and-resolve form for untabulated books — against
    /// the scalar search, at every slice length around the chunk size.
    fn assert_block_encoders_match_scalar(book: &[f32], levels: &[i16], probes: &[f32]) {
        let mut keys = Vec::new();
        load_keys(&mut keys, book);
        let thr = tabulate_thresholds(book, &keys).expect("book within the cap");
        assert_eq!(thr.len(), book.len() - 1);
        assert!(thr.is_sorted(), "boundaries ascend: {thr:?}");
        let lens = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 783, 784, probes.len()];
        let (mut codes, mut quants) = (vec![0u16; probes.len()], vec![0i16; probes.len()]);
        let mut resolved = vec![0i16; probes.len()];
        for (n, offset) in lens.into_iter().zip([0, 3, 5].into_iter().cycle()) {
            let probes = &probes[offset.min(probes.len() - n)..][..n];
            nearest_thresholded_block(&thr, probes, &mut codes);
            nearest_thresholded_levels(&thr, levels, probes, &mut quants);
            nearest_sorted_block(book, &keys, probes, &mut resolved, |i| levels[i]);
            for (i, &p) in probes.iter().enumerate() {
                let want = nearest_index(book, &keys, p);
                let ctx = format!(
                    "book of {} probe {p} ({:#x}) at {i} of {n}",
                    book.len(),
                    p.to_bits()
                );
                assert_eq!(usize::from(codes[i]), want, "codes: {ctx}");
                assert_eq!(quants[i], levels[want], "levels: {ctx}");
                assert_eq!(resolved[i], levels[want], "sweep and resolve: {ctx}");
            }
        }
    }

    /// The values the scalar search is tested against, plus both NaN
    /// signs, subnormals, every book entry and a few ulps either side
    /// of every adjacent-pair midpoint — the exact keys where a
    /// tabulated threshold could be off by one.
    fn special_probes(book: &[f32]) -> Vec<f32> {
        let mut probes = vec![
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fff_ffff),
            f32::from_bits(0xffff_ffff),
            f32::NEG_INFINITY,
            f32::INFINITY,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::MAX,
            f32::MIN,
        ];
        probes.extend_from_slice(book);
        for pair in book.windows(2) {
            let mid = ((f64::from(pair[0]) + f64::from(pair[1])) / 2.0) as f32;
            let kv = total_key(mid);
            for d in -3i32..=3 {
                let bits = total_key(f32::from_bits(kv.wrapping_add(d) as u32));
                probes.push(f32::from_bits(bits as u32));
            }
        }
        probes
    }

    #[test]
    fn block_encode_matches_scalar_bitwise() {
        use rapidnn_prop::{usize_in, SeededRng};

        // Hand-picked books: a single entry, both zeros, duplicate
        // entries (whose boundaries coincide), the extremes.
        let books: &[&[f32]] = &[
            &[0.0],
            &[-1.25, -0.5, 0.2, 0.45],
            &[-0.0, 0.0, 1.0],
            &[-1.0, 0.5, 0.5, 0.5, 2.0, 2.0],
            &[-0.0, -0.0, 0.0, 0.0],
            &[f32::MIN, -1.0, -0.0, 0.0, 1.0, f32::MAX],
            &[f32::NEG_INFINITY, -1.0, 0.0, f32::INFINITY],
        ];
        // Levels far enough apart that their differences leave `i16`:
        // the sweep sums them in `i32`.
        let spread = |n: usize| -> Vec<i16> {
            (0..n)
                .map(|c| {
                    if c % 2 == 0 {
                        i16::MIN + c as i16
                    } else {
                        i16::MAX - c as i16
                    }
                })
                .collect()
        };
        for book in books {
            let mut probes: Vec<f32> = (0..800).map(|i| (i as f32).mul_add(0.013, -4.0)).collect();
            probes.extend(special_probes(book));
            assert_block_encoders_match_scalar(book, &spread(book.len()), &probes);
        }

        // Every tabulated book size, with random entries (some repeated,
        // some books holding both zeros) and ascending random levels —
        // what a quantized codebook looks like.
        let mut rng = SeededRng::new(0x1e7e15);
        for size in 1..=THRESH_BOOK {
            let mut book: Vec<f32> = (0..size).map(|_| rng.uniform(-3.0, 3.0)).collect();
            for _ in 0..size / 8 {
                let (from, to) = (usize_in(&mut rng, 0, size), usize_in(&mut rng, 0, size));
                book[to] = book[from];
            }
            if size % 5 == 2 {
                (book[0], book[1]) = (-0.0, 0.0);
            }
            book.sort_by(f32::total_cmp);
            let mut levels: Vec<i16> = (0..size)
                .map(|_| rng.uniform(-32768.0, 32767.0) as i16)
                .collect();
            levels.sort_unstable();
            let mut probes: Vec<f32> = (0..790).map(|_| rng.uniform(-3.5, 3.5)).collect();
            probes.extend(special_probes(&book));
            assert_block_encoders_match_scalar(&book, &levels, &probes);
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
