use crate::{NdcamError, SearchCost};

/// Width of one pipeline stage in bits; the paper's HSPICE analysis found
/// discharge speeds distinguishable up to 8 subsequent bits, so wider words
/// are searched in sequential 8-bit stages starting at the MSB (§4.2.2).
pub const STAGE_BITS: u32 = 8;

/// Result of a search: the winning row and its hardware cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// Winning row index (ties resolve to the lowest index).
    pub row: usize,
    /// Stored value of the winning row.
    pub value: u64,
    /// Number of 8-bit pipeline stages exercised.
    pub stages: u32,
    /// Latency/energy cost of the search.
    pub cost: SearchCost,
}

/// The nearest-distance CAM array.
///
/// Rows store unsigned fixed-width values. Searches model the inverse-cell
/// discharge circuit: each stage scores the surviving rows by a
/// *bit-weighted match current* (`Σ 2^i` over matching bit positions — the
/// `2x`-per-bit access-transistor sizing) and keeps the rows with the
/// strongest discharge; later stages break ties. [`NdcamArray::search_nearest`]
/// is the exact nearest-absolute-distance reference the circuit
/// approximates; [`NdcamArray::search_weighted`] is the circuit-faithful
/// staged model, and [`NdcamArray::fidelity`] measures how often they
/// agree.
#[derive(Debug, Clone, PartialEq)]
pub struct NdcamArray {
    values: Vec<u64>,
    width: u32,
}

impl NdcamArray {
    /// Creates an array storing `values` at `width` bits each.
    ///
    /// # Errors
    ///
    /// * [`NdcamError::Empty`] when no values are given.
    /// * [`NdcamError::InvalidWidth`] when `width` is 0 or above 63.
    /// * [`NdcamError::ValueTooWide`] when a value does not fit.
    pub fn from_values(values: &[u64], width: u32) -> Result<Self, NdcamError> {
        if values.is_empty() {
            return Err(NdcamError::Empty);
        }
        if width == 0 || width > 63 {
            return Err(NdcamError::InvalidWidth(width));
        }
        let limit = 1u64 << width;
        for &v in values {
            if v >= limit {
                return Err(NdcamError::ValueTooWide { value: v, width });
            }
        }
        Ok(NdcamArray {
            values: values.to_vec(),
            width,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.values.len()
    }

    /// Word width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Stored values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Number of pipeline stages a full-width search needs.
    pub fn stages(&self) -> u32 {
        self.width.div_ceil(STAGE_BITS)
    }

    /// Reference search: the row whose value has the smallest absolute
    /// distance to `query` (ties → lowest row index). This is the
    /// behaviour the composer's encode tables assume.
    pub fn search_nearest(&self, query: u64) -> SearchHit {
        let mut best_row = 0usize;
        let mut best_dist = u64::MAX;
        for (i, &v) in self.values.iter().enumerate() {
            let dist = v.abs_diff(query);
            if dist < best_dist {
                best_dist = dist;
                best_row = i;
            }
        }
        self.hit(best_row)
    }

    /// Circuit-faithful staged search: per 8-bit stage (MSB first), score
    /// surviving rows by bit-weighted match current and keep the maximum;
    /// the final survivor with the lowest index wins.
    pub fn search_weighted(&self, query: u64) -> SearchHit {
        let mut survivors: Vec<usize> = (0..self.values.len()).collect();
        let stages = self.stages();
        for stage in 0..stages {
            // Stage 0 holds the most significant bits.
            let hi = self.width - stage * STAGE_BITS;
            let lo = hi.saturating_sub(STAGE_BITS);
            let q_bits = (query >> lo) & ((1u64 << (hi - lo)) - 1);
            let mut best_score = 0u64;
            let mut next: Vec<usize> = Vec::new();
            for &row in &survivors {
                let v_bits = (self.values[row] >> lo) & ((1u64 << (hi - lo)) - 1);
                let matches = !(v_bits ^ q_bits) & ((1u64 << (hi - lo)) - 1);
                // Bit-weighted discharge current: each matching cell at bit
                // position i contributes 2^i (transistor sizing, §4.2.2).
                let score = matches;
                match score.cmp(&best_score) {
                    std::cmp::Ordering::Greater => {
                        best_score = score;
                        next.clear();
                        next.push(row);
                    }
                    std::cmp::Ordering::Equal => next.push(row),
                    std::cmp::Ordering::Less => {}
                }
            }
            survivors = next;
            if survivors.len() == 1 {
                break;
            }
        }
        self.hit(survivors[0])
    }

    /// Plain (unweighted) Hamming search: identical staging, but every
    /// matched cell contributes the same current — the conventional-CAM
    /// behaviour the paper's §4.2.2 improves upon.
    pub fn search_hamming(&self, query: u64) -> SearchHit {
        let mut survivors: Vec<usize> = (0..self.values.len()).collect();
        let stages = self.stages();
        for stage in 0..stages {
            let hi = self.width - stage * STAGE_BITS;
            let lo = hi.saturating_sub(STAGE_BITS);
            let q_bits = (query >> lo) & ((1u64 << (hi - lo)) - 1);
            let mut best_score = 0u32;
            let mut next: Vec<usize> = Vec::new();
            for &row in &survivors {
                let v_bits = (self.values[row] >> lo) & ((1u64 << (hi - lo)) - 1);
                let matches = !(v_bits ^ q_bits) & ((1u64 << (hi - lo)) - 1);
                let score = matches.count_ones();
                match score.cmp(&best_score) {
                    std::cmp::Ordering::Greater => {
                        best_score = score;
                        next.clear();
                        next.push(row);
                    }
                    std::cmp::Ordering::Equal => next.push(row),
                    std::cmp::Ordering::Less => {}
                }
            }
            survivors = next;
            if survivors.len() == 1 {
                break;
            }
        }
        self.hit(survivors[0])
    }

    /// Fraction of queries in `0..2^width` (subsampled to at most
    /// `samples`) where the circuit-faithful weighted search returns a row
    /// exactly as close as the true nearest row — the precision of the
    /// staged weighted-match approximation.
    pub fn fidelity(&self, samples: usize) -> f64 {
        self.fidelity_of(samples, NdcamArray::search_weighted)
    }

    /// Like [`Self::fidelity`], but for the plain Hamming search — the
    /// baseline the bit-weighted transistor sizing improves upon.
    pub fn fidelity_hamming(&self, samples: usize) -> f64 {
        self.fidelity_of(samples, NdcamArray::search_hamming)
    }

    fn fidelity_of(&self, samples: usize, search: impl Fn(&Self, u64) -> SearchHit) -> f64 {
        let domain = 1u64 << self.width;
        let step = (domain / samples.max(1) as u64).max(1);
        let mut agree = 0usize;
        let mut total = 0usize;
        let mut q = 0u64;
        while q < domain {
            let exact = self.search_nearest(q);
            let circuit = search(self, q);
            if circuit.value.abs_diff(q) == exact.value.abs_diff(q) {
                agree += 1;
            }
            total += 1;
            q += step;
        }
        agree as f64 / total.max(1) as f64
    }

    /// Finds the row holding the maximum value — the max-pooling search:
    /// encoded values are written into the CAM and the largest is
    /// identified in a single search (§4.2.1).
    pub fn search_max(&self) -> SearchHit {
        let mut best = 0usize;
        for (i, &v) in self.values.iter().enumerate() {
            if v > self.values[best] {
                best = i;
            }
        }
        self.hit(best)
    }

    /// Finds the row holding the minimum value (min pooling).
    pub fn search_min(&self) -> SearchHit {
        let mut best = 0usize;
        for (i, &v) in self.values.iter().enumerate() {
            if v < self.values[best] {
                best = i;
            }
        }
        self.hit(best)
    }

    fn hit(&self, row: usize) -> SearchHit {
        let stages = self.stages();
        SearchHit {
            row,
            value: self.values[row],
            stages,
            cost: SearchCost::for_search(self.rows(), self.width, stages),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert_eq!(NdcamArray::from_values(&[], 8), Err(NdcamError::Empty));
        assert_eq!(
            NdcamArray::from_values(&[1], 0),
            Err(NdcamError::InvalidWidth(0))
        );
        assert_eq!(
            NdcamArray::from_values(&[256], 8),
            Err(NdcamError::ValueTooWide {
                value: 256,
                width: 8
            })
        );
        assert!(NdcamArray::from_values(&[255], 8).is_ok());
    }

    #[test]
    fn nearest_finds_smallest_absolute_distance() {
        let cam = NdcamArray::from_values(&[0, 10, 100, 200], 8).unwrap();
        assert_eq!(cam.search_nearest(4).row, 0);
        assert_eq!(cam.search_nearest(6).row, 1);
        assert_eq!(cam.search_nearest(140).row, 2);
        assert_eq!(cam.search_nearest(255).row, 3);
    }

    #[test]
    fn nearest_ties_resolve_low() {
        let cam = NdcamArray::from_values(&[10, 20], 8).unwrap();
        assert_eq!(cam.search_nearest(15).row, 0);
    }

    #[test]
    fn weighted_search_is_exact_on_exact_matches() {
        let cam = NdcamArray::from_values(&[3, 77, 128, 254], 8).unwrap();
        for (i, &v) in cam.values().iter().enumerate() {
            assert_eq!(cam.search_weighted(v).row, i);
        }
    }

    #[test]
    fn hamming_motivation_example() {
        // §4.2.2: 0b11111 has the same Hamming distance to 0b11110 and
        // 0b01111, but very different absolute distances. The weighted
        // search must prefer the closer value.
        let cam = NdcamArray::from_values(&[0b11110, 0b01111], 5).unwrap();
        let hit = cam.search_weighted(0b11111);
        assert_eq!(hit.value, 0b11110);
    }

    #[test]
    fn weighted_search_beats_plain_hamming() {
        // §4.2.2's design point: bit-weighted currents approximate
        // absolute distance far better than plain Hamming matching.
        let cam = NdcamArray::from_values(&[5, 64, 130, 200], 8).unwrap();
        let weighted = cam.fidelity(256);
        let hamming = cam.fidelity_hamming(256);
        assert!(
            weighted > hamming,
            "weighted {weighted} vs hamming {hamming}"
        );
        assert!(weighted > 0.6, "weighted fidelity {weighted}");
    }

    #[test]
    fn fidelity_is_perfect_on_codebook_points() {
        // Queries that are exactly stored values always resolve exactly.
        let cam = NdcamArray::from_values(&[5, 64, 130, 200], 8).unwrap();
        for &v in cam.values() {
            assert_eq!(cam.search_weighted(v).value, v);
            assert_eq!(cam.search_hamming(v).value, v);
        }
    }

    #[test]
    fn max_and_min_searches() {
        let cam = NdcamArray::from_values(&[13, 250, 8, 99], 8).unwrap();
        assert_eq!(cam.search_max().value, 250);
        assert_eq!(cam.search_max().row, 1);
        assert_eq!(cam.search_min().value, 8);
        assert_eq!(cam.search_min().row, 2);
    }

    #[test]
    fn search_stages_follow_width() {
        let cam = NdcamArray::from_values(&[1], 8).unwrap();
        assert_eq!(cam.stages(), 1);
        let cam = NdcamArray::from_values(&[1], 32).unwrap();
        assert_eq!(cam.stages(), 4);
        let cam = NdcamArray::from_values(&[1], 12).unwrap();
        assert_eq!(cam.stages(), 2);
    }

    #[test]
    fn weighted_search_narrows_per_stage() {
        // Values differing only in low bits force the search into the
        // second stage.
        let cam = NdcamArray::from_values(&[0x1200, 0x1210, 0x1220], 16).unwrap();
        let hit = cam.search_weighted(0x1211);
        assert_eq!(hit.value, 0x1210);
    }
}
