use crate::nor;

/// Cycles per carry-save stage: one output-row initialisation cycle plus
/// [`nor::FULL_ADDER_STEPS`] NOR cycles ("Each stage takes 13 cycles to
/// complete the addition operation", §4.1.2).
pub const STAGE_CYCLES: u64 = 1 + nor::FULL_ADDER_STEPS;

/// Cycles per bit of the final carry-propagate stage ("the last stage
/// requires 13·N cycles to perform addition while propagating carry").
pub const RIPPLE_CYCLES_PER_BIT: u64 = STAGE_CYCLES;

/// Result of an in-memory multi-operand addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdderReport {
    /// The arithmetic sum (wrapping at the tree's bit width).
    pub sum: u64,
    /// Number of carry-save reduction stages executed.
    pub csa_stages: u64,
    /// Total crossbar cycles: `csa_stages · 13 + 13 · width` for the final
    /// carry-propagate addition.
    pub cycles: u64,
}

/// In-memory carry-save adder tree (§4.1.2).
///
/// Adds many operands by repeatedly applying width-parallel carry-save
/// stages (3 numbers → 2, one full-adder depth each) and finishing with a
/// single carry-propagating ripple addition. Latency model:
///
/// * each CSA stage: [`STAGE_CYCLES`] = 13 cycles, independent of width
///   (all bit positions execute in parallel inside the crossbar);
/// * final stage: `13 · width` cycles (carry must ripple).
///
/// # Examples
///
/// ```
/// use rapidnn_memristor::{AdderTree, STAGE_CYCLES};
///
/// let tree = AdderTree::new(8);
/// let r = tree.add_all(&[1, 2, 3]);
/// assert_eq!(r.sum, 6);
/// assert_eq!(r.csa_stages, 1);
/// assert_eq!(r.cycles, STAGE_CYCLES + 13 * 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdderTree {
    width: u32,
}

impl AdderTree {
    /// Creates an adder tree over `width`-bit words.
    ///
    /// # Panics
    ///
    /// Panics when `width` is 0 or exceeds 63 (the carry word needs one
    /// spare bit in the u64 model).
    pub fn new(width: u32) -> Self {
        assert!((1..=63).contains(&width), "width must be in 1..=63");
        AdderTree { width }
    }

    /// Word width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Adds all operands, returning sum and hardware cost.
    ///
    /// Empty input sums to zero at zero cost; a single operand needs no
    /// addition.
    pub fn add_all(&self, operands: &[u64]) -> AdderReport {
        let mask = (1u64 << self.width) - 1;
        match operands.len() {
            0 => {
                return AdderReport {
                    sum: 0,
                    csa_stages: 0,
                    cycles: 0,
                }
            }
            1 => {
                return AdderReport {
                    sum: operands[0] & mask,
                    csa_stages: 0,
                    cycles: 0,
                }
            }
            _ => {}
        }

        let mut layer: Vec<u64> = operands.iter().map(|&v| v & mask).collect();
        let mut csa_stages = 0u64;
        while layer.len() > 2 {
            let mut next = Vec::with_capacity(layer.len() * 2 / 3 + 2);
            for chunk in layer.chunks(3) {
                match chunk {
                    [a, b, c] => {
                        let (s, carry) = nor::carry_save(*a, *b, *c, self.width);
                        next.push(s & mask);
                        next.push(carry & mask);
                    }
                    rest => next.extend_from_slice(rest),
                }
            }
            layer = next;
            csa_stages += 1;
        }

        let (sum, _) = if layer.len() == 2 {
            nor::ripple_add(layer[0], layer[1], self.width)
        } else {
            (layer[0], 0)
        };
        AdderReport {
            sum: sum & mask,
            csa_stages,
            cycles: csa_stages * STAGE_CYCLES + RIPPLE_CYCLES_PER_BIT * self.width as u64,
        }
    }

    /// Predicted stage count for `n` operands without executing
    /// (`≈ log_{3/2}(n)`, the paper's `log` bound).
    pub fn predicted_stages(&self, n: usize) -> u64 {
        if n <= 2 {
            return 0;
        }
        let mut count = n as u64;
        let mut stages = 0;
        while count > 2 {
            count = count - count / 3; // 3 -> 2 reduction
            stages += 1;
        }
        stages
    }

    /// Predicted total cycles for adding `n` operands.
    pub fn predicted_cycles(&self, n: usize) -> u64 {
        if n <= 1 {
            return 0;
        }
        self.predicted_stages(n) * STAGE_CYCLES + RIPPLE_CYCLES_PER_BIT * self.width as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidnn_tensor::SeededRng;

    #[test]
    fn sums_match_integer_arithmetic() {
        let tree = AdderTree::new(32);
        let mut rng = SeededRng::new(3);
        for _ in 0..20 {
            let n = 1 + rng.index(40);
            let operands: Vec<u64> = (0..n).map(|_| rng.index(1 << 20) as u64).collect();
            let expected: u64 = operands.iter().sum();
            assert_eq!(tree.add_all(&operands).sum, expected & 0xFFFF_FFFF);
        }
    }

    #[test]
    fn empty_and_single_are_free() {
        let tree = AdderTree::new(16);
        assert_eq!(
            tree.add_all(&[]),
            AdderReport {
                sum: 0,
                csa_stages: 0,
                cycles: 0
            }
        );
        let r = tree.add_all(&[42]);
        assert_eq!(r.sum, 42);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn csa_stages_grow_logarithmically() {
        let tree = AdderTree::new(16);
        let stages_for = |n: usize| tree.add_all(&vec![1u64; n]).csa_stages;
        // 3 -> 1 stage; doubling operand count adds O(1) stages.
        assert_eq!(stages_for(3), 1);
        let s64 = stages_for(64);
        let s128 = stages_for(128);
        assert!(s128 - s64 <= 3, "{s64} -> {s128}");
        assert!(s64 >= 6); // ~= log_1.5(64/2) ≈ 8.5
    }

    #[test]
    fn predicted_matches_executed_stages() {
        let tree = AdderTree::new(16);
        for n in [2usize, 3, 5, 9, 17, 64, 100, 333] {
            let executed = tree.add_all(&vec![1u64; n]).csa_stages;
            assert_eq!(tree.predicted_stages(n), executed, "n={n}");
        }
    }

    #[test]
    fn cycle_model_matches_paper_formula() {
        let tree = AdderTree::new(16);
        let r = tree.add_all(&[7u64; 12]);
        assert_eq!(r.cycles, r.csa_stages * 13 + 13 * 16);
        assert_eq!(tree.predicted_cycles(12), r.cycles);
    }

    #[test]
    fn wide_sums_wrap_at_width() {
        let tree = AdderTree::new(8);
        let r = tree.add_all(&[200, 100]);
        assert_eq!(r.sum, (200 + 100) % 256);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn rejects_zero_width() {
        let _ = AdderTree::new(0);
    }
}
