use crate::metrics::{BlockBreakdown, BlockClass};
use crate::params::{
    ACCUMULATOR_BITS, ACTIVATION_POWER_MW, COUNTER_POWER_MW, CROSSBAR_POWER_MW, ENCODER_POWER_MW,
};
use rapidnn_memristor::{AdderTree, RIPPLE_CYCLES_PER_BIT, STAGE_CYCLES};
use rapidnn_ndcam::SearchCost;

/// Latency/energy cost of evaluating one neuron on one RNA block.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RnaCost {
    /// Cycles of the parallel counting phase.
    pub counting_cycles: u64,
    /// Cycles of the carry-save adder phase.
    pub adder_cycles: u64,
    /// Cycles of the activation AM search.
    pub activation_cycles: u64,
    /// Cycles of the encoder AM search.
    pub encoding_cycles: u64,
    /// Energy in picojoules, split by block class.
    pub breakdown: BlockBreakdown,
}

impl RnaCost {
    /// Total cycles of the neuron evaluation.
    pub fn cycles(&self) -> u64 {
        self.counting_cycles + self.adder_cycles + self.activation_cycles + self.encoding_cycles
    }

    /// Total energy in picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.breakdown.total_energy_pj()
    }
}

/// Expected adder-tree operand count for a neuron with `edges` incoming
/// edges spread over at most `slots` distinct pre-stored products.
///
/// With fewer edges than slots each counter is 1 (one operand per edge).
/// Otherwise counters average `edges/slots` and each decomposes into a few
/// shifted terms; the expectation over uniform counters of that magnitude
/// is approximated by half the bit width of the average counter plus one.
pub fn expected_operands(edges: usize, slots: usize) -> usize {
    if edges == 0 {
        return 0;
    }
    let used_slots = edges.min(slots.max(1));
    let avg = (edges as f64 / used_slots as f64).max(1.0);
    if avg <= 1.0 {
        return used_slots;
    }
    // A counter of magnitude c decomposes into ~1 + log2(c)/2 shifted
    // terms on average (half its bits are ones; the longest-run-of-1s
    // trick trims long runs). The smooth form keeps the cost model
    // monotone in fan-in, unlike decomposing the rounded average, whose
    // bit pattern jumps around.
    let per_counter = 1.0 + avg.log2() / 2.0;
    (used_slots as f64 * per_counter).round() as usize
}

/// Analytic cost model of one neuron evaluation (§4.1–4.2).
///
/// * `edges` — incoming edges (dense fan-in or conv patch length);
/// * `weight_clusters` / `input_clusters` — codebook sizes `w`, `u`;
/// * `activation_rows` — rows of the activation AM (0 or 1 for an exact
///   comparator, which searches like a one-row AM);
/// * `encoder_rows` — rows of the encoder AM (0 for the output stage).
pub fn neuron_cost(
    edges: usize,
    weight_clusters: usize,
    input_clusters: usize,
    activation_rows: usize,
    encoder_rows: usize,
) -> RnaCost {
    if edges == 0 {
        return RnaCost::default();
    }
    // Counting: one index per weight buffer per cycle (§4.1.1); buckets
    // are roughly balanced so the deepest buffer holds ~edges/w entries.
    let counting_cycles = (edges as u64)
        .div_ceil(weight_clusters.max(1) as u64)
        .max(1);

    // Adder tree over the decomposed counters (§4.1.2).
    let slots = weight_clusters * input_clusters;
    let operands = expected_operands(edges, slots);
    let tree = AdderTree::new(ACCUMULATOR_BITS);
    let adder_cycles = if operands <= 1 {
        0
    } else {
        tree.predicted_stages(operands) * STAGE_CYCLES
            + u64::from(ACCUMULATOR_BITS) * RIPPLE_CYCLES_PER_BIT
    };

    // AM searches: one cycle each (0.5 ns search fits the 1 ns cycle).
    let activation_cycles = 1;
    let encoding_cycles = u64::from(encoder_rows > 0);

    let mut breakdown = BlockBreakdown::default();
    // mW × ns = pJ at our 1 GHz clock (1 cycle = 1 ns). The AM blocks draw
    // their Table 1 power for the whole neuron-evaluation window (they are
    // part of the active RNA), plus the per-search dynamic energy.
    let window = (counting_cycles + adder_cycles + activation_cycles + encoding_cycles) as f64;
    breakdown.add(
        BlockClass::WeightedAccumulation,
        COUNTER_POWER_MW * counting_cycles as f64 + CROSSBAR_POWER_MW * adder_cycles as f64,
        (counting_cycles + adder_cycles) as f64,
    );
    let act_cost = SearchCost::for_search(activation_rows.max(1), 32, 1);
    breakdown.add(
        BlockClass::Activation,
        act_cost.energy_fj / 1000.0 + ACTIVATION_POWER_MW * window,
        activation_cycles as f64,
    );
    if encoder_rows > 0 {
        let enc_cost = SearchCost::for_search(encoder_rows, 32, 1);
        breakdown.add(
            BlockClass::Encoding,
            enc_cost.energy_fj / 1000.0 + ENCODER_POWER_MW * window,
            encoding_cycles as f64,
        );
    }

    RnaCost {
        counting_cycles,
        adder_cycles,
        activation_cycles,
        encoding_cycles,
        breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_edges_cost_nothing() {
        let cost = neuron_cost(0, 64, 64, 64, 64);
        assert_eq!(cost.cycles(), 0);
        assert_eq!(cost.energy_pj(), 0.0);
    }

    #[test]
    fn counting_shrinks_with_more_weight_buffers() {
        let few = neuron_cost(1024, 4, 64, 64, 64);
        let many = neuron_cost(1024, 64, 64, 64, 64);
        assert!(many.counting_cycles < few.counting_cycles);
        assert_eq!(many.counting_cycles, 16);
        assert_eq!(few.counting_cycles, 256);
    }

    #[test]
    fn adder_cycles_include_the_13n_ripple() {
        let cost = neuron_cost(512, 64, 64, 64, 64);
        assert!(cost.adder_cycles >= u64::from(ACCUMULATOR_BITS) * 13);
    }

    #[test]
    fn weighted_accumulation_dominates_energy() {
        // Figure 13: the weighted-accumulation block consumes the dominant
        // share (~77–81 %) of energy and time.
        let cost = neuron_cost(512, 64, 64, 64, 64);
        let fractions = cost.breakdown.energy_fractions();
        assert!(
            fractions[0] > 0.6,
            "weighted accumulation fraction {}",
            fractions[0]
        );
    }

    #[test]
    fn output_stage_skips_encoding() {
        let cost = neuron_cost(128, 16, 16, 1, 0);
        assert_eq!(cost.encoding_cycles, 0);
        assert_eq!(cost.breakdown.energy_pj[2], 0.0);
    }

    #[test]
    fn expected_operands_behaviour() {
        // Fewer edges than slots: one operand per edge.
        assert_eq!(expected_operands(10, 4096), 10);
        // Heavily loaded slots: fewer operands than edges.
        assert!(expected_operands(4096, 16) < 4096);
        assert_eq!(expected_operands(0, 64), 0);
    }

    #[test]
    fn larger_codebooks_do_not_reduce_adder_work_below_edges() {
        // With w·u >= edges every edge is its own operand; cost is bounded
        // by the edge count.
        let cost_small = neuron_cost(256, 4, 4, 64, 64);
        let cost_large = neuron_cost(256, 64, 64, 64, 64);
        // Small codebooks collapse many edges into one counter → fewer
        // operands → fewer CSA stages.
        assert!(cost_small.adder_cycles <= cost_large.adder_cycles);
    }
}
