//! `factor_table` is the licence to run a dense op as a multiply instead
//! of a table gather, taken when a gated model is assembled: what it
//! returns must reproduce the table bit for bit, and a referenced row it
//! cannot reproduce must be refused.

use rapidnn_analyze::{factor_table, TableRef};

const BOOK: [f32; 5] = [-1.5, -0.25, 0.0, 0.4, 2.0];
const WEIGHTS: [f32; 4] = [0.3, -1.7, 0.0, 5.5e-3];

/// `pad` filler floats, then one row of single-rounded products per
/// weight, `columns` wide (the columns past the book are filler too).
fn table(pad: usize, columns: usize) -> (Vec<f32>, TableRef) {
    let mut floats = vec![7.0f32; pad];
    for w in WEIGHTS {
        floats.extend((0..columns).map(|x| BOOK.get(x).map_or(9.0, |b| w * b)));
    }
    let table = TableRef {
        offset: pad,
        weight_count: WEIGHTS.len(),
        input_count: columns,
    };
    (floats, table)
}

#[test]
fn factors_reproduce_every_referenced_entry_bitwise() {
    for (pad, columns) in [(0, BOOK.len()), (3, BOOK.len() + 2)] {
        let (floats, table) = table(pad, columns);
        // Row 2 is never referenced: its factor stays 0.0.
        let wcodes = [3u16, 0, 1, 1, 0, 3];
        let factors = factor_table(&floats, &table, &BOOK, &wcodes).expect("factors");
        assert_eq!(factors.len(), WEIGHTS.len());
        assert_eq!(factors[2].to_bits(), 0.0f32.to_bits());
        for &c in &wcodes {
            for (x, b) in BOOK.iter().enumerate() {
                let entry = table.fetch(&floats, usize::from(c), x);
                assert_eq!((factors[usize::from(c)] * b).to_bits(), entry.to_bits());
            }
        }
        // No codes, nothing to verify: all-zero factors.
        assert_eq!(
            factor_table(&floats, &table, &BOOK, &[]),
            Some(vec![0.0; WEIGHTS.len()])
        );
    }
}

#[test]
fn an_unfactored_or_non_finite_referenced_row_is_none() {
    let (floats, table) = table(2, BOOK.len());
    let wcodes = [0u16, 1, 3];
    assert!(factor_table(&floats, &table, &BOOK, &wcodes).is_some());

    // One product off by an ulp, in a referenced row only.
    let mut nudged = floats.clone();
    let at = table.offset + table.input_count + 3;
    nudged[at] = f32::from_bits(nudged[at].to_bits() + 1);
    assert_eq!(factor_table(&nudged, &table, &BOOK, &wcodes), None);
    assert!(factor_table(&nudged, &table, &BOOK, &[0, 3]).is_some());

    // Non-finite values in a referenced row.
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut row = floats.clone();
        row[table.offset + 4] = bad;
        assert_eq!(factor_table(&row, &table, &BOOK, &wcodes), None);
    }
    // `fl(w · x)` overflowing to the infinity the row stores is still
    // a non-finite row.
    let book = [1.0f32, 1.0e30];
    let overflow = [1.0e30f32, f32::INFINITY];
    let one_row = TableRef {
        offset: 0,
        weight_count: 1,
        input_count: 2,
    };
    assert_eq!(factor_table(&overflow, &one_row, &book, &[0]), None);

    // A book of zeros offers no column to read a factor off.
    assert_eq!(factor_table(&floats, &table, &[0.0; 5], &wcodes), None);
}
