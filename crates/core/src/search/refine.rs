//! Partition refinement and marginal coarsening for the search evaluator.
//!
//! The search strategies walk a *lattice* of attribute subsets where
//! neighboring candidates differ by one attribute, yet a hash group-by
//! treats every subset as a cold start: pack a key over all of `S`, hash
//! it, probe a map — per row, per candidate. A [`Partition`] stores the
//! same grouping as a dense row→group-id vector instead, which supports
//! the two lattice moves directly:
//!
//! * **refinement** (child = parent ∪ {a}): one O(rows) pass composing
//!   `(old group id, value of a)` into new ids. When the composite space
//!   `groups × (card + 1)` is small — the common case under the paper's
//!   label-size bounds — the remap is a flat array and the pass does no
//!   hashing at all; otherwise it falls back to a `u64`-keyed hash remap
//!   (still never packing or hashing full multi-attribute keys);
//! * **coarsening** (marginal `K ⊂ S`): rows in the same `S`-group share
//!   their `K`-projection, so the `K`-partition is derived by grouping
//!   the `S`-partition's *group representatives* by their `K`-values
//!   (O(groups · |K|)) and mapping every row's id through that table in
//!   one O(rows) pass — the data-cube trick of deriving coarse aggregates
//!   from finer ones, generalizing the evaluator's old per-call
//!   `build_marginal`.
//!
//! The partition's row universe is the evaluator's compressed distinct
//! table, optionally followed by the materialized pattern rows ("passive"
//! rows: they receive group ids so pattern lookups are two array reads,
//! but contribute no weight). Group weights are exact `u64` sums of the
//! distinct rows' multiplicities, so every count derived from a partition
//! is bit-identical to the hash group-by's — the property the evaluator's
//! proptests pin.
//!
//! A partition also knows its all-missing group, so over the data rows
//! alone its group count is the label size `|P_S|`. The searches size
//! lattice nodes with [`Partition::refine_bounded`]: a child is one pass
//! over its parent's partition that stops as soon as the count passes
//! the bound, instead of a cold hash scan per node.

use pclabel_data::dataset::MISSING;

use crate::hash::{fx_map_with_capacity, FxHashMap};

/// Above this many slots the dense remap of a refinement pass would cost
/// more to allocate/clear than the hashing it avoids; measured against
/// `4 × rows` (see [`Partition::refine`]).
const DENSE_REMAP_FLOOR: usize = 1 << 16;

/// A dense row→group-id assignment over the evaluator's row universe
/// (distinct data rows, then pattern rows), with per-group data weights.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Group id per universe row.
    ids: Vec<u32>,
    /// Total data-row weight per group (pattern rows contribute 0).
    weights: Vec<u64>,
    /// One representative universe row per group (first encountered).
    reps: Vec<u32>,
    /// The group whose projection is all-missing (the empty pattern), if
    /// any row has one; it is not counted in `|P_S|`.
    missing: Option<u32>,
}

/// Where a refinement pass records the new group id of each
/// `(old group, code)` pair; `0` marks a pair not seen yet, `g + 1` group
/// `g` (so the dense table can start zeroed).
trait Remap {
    fn slot(&mut self, old: u32, code: u32) -> &mut u32;
}

struct DenseRemap {
    slots: Vec<u32>,
    stride: usize,
}

impl Remap for DenseRemap {
    #[inline]
    fn slot(&mut self, old: u32, code: u32) -> &mut u32 {
        &mut self.slots[old as usize * self.stride + code as usize]
    }
}

impl Remap for FxHashMap<u64, u32> {
    #[inline]
    fn slot(&mut self, old: u32, code: u32) -> &mut u32 {
        self.entry(((old as u64) << 32) | code as u64).or_insert(0)
    }
}

impl Partition {
    /// The trivial partition: every universe row in one group carrying
    /// the full data weight (the empty projection).
    pub fn unit(n_universe: usize, total_weight: u64) -> Self {
        Partition {
            ids: vec![0; n_universe],
            weights: vec![total_weight],
            reps: vec![0],
            missing: Some(0),
        }
    }

    /// Number of universe rows.
    pub fn n_rows(&self) -> usize {
        self.ids.len()
    }

    /// Number of groups.
    pub fn n_groups(&self) -> usize {
        self.weights.len()
    }

    /// `|P_S|`: the groups whose projection is not all-missing — the
    /// paper's `labelSize(S, D)` when the universe is the data rows.
    pub fn pattern_count_size(&self) -> u64 {
        (self.n_groups() - usize::from(self.missing.is_some())) as u64
    }

    /// Group id of universe row `row`.
    #[inline]
    pub fn group_of(&self, row: usize) -> u32 {
        self.ids[row]
    }

    /// Total data weight of `row`'s group — the same number a hash
    /// group-by would return for the row's projection key.
    #[inline]
    pub fn weight_of_row(&self, row: usize) -> u64 {
        self.weights[self.ids[row] as usize]
    }

    /// Refines by one column: rows share a group in the result iff they
    /// shared one before *and* agree on the column (missing is its own
    /// code, exactly like the reserved missing code of
    /// [`KeyCodec`](crate::counting::KeyCodec)).
    ///
    /// `data_col` covers the data prefix of the universe, `pattern_col`
    /// the pattern suffix (empty when patterns share the data rows);
    /// `card` is the column's dictionary cardinality and `dweights` the
    /// data rows' multiplicities.
    pub fn refine(
        &self,
        data_col: &[u32],
        pattern_col: &[u32],
        card: u32,
        dweights: &[u64],
    ) -> Partition {
        debug_assert_eq!(dweights.len(), data_col.len());
        self.refine_within(data_col, pattern_col, card, dweights, u64::MAX)
            .expect("an unbounded refinement always completes")
    }

    /// Bounded refinement over a data-only universe, for sizing: the same
    /// pass as [`Partition::refine`], but it gives up and returns `None`
    /// as soon as the result has more than `bound` groups that are not
    /// all-missing. So `Some(p)` carries `p.pattern_count_size() ≤ bound`,
    /// and the answer equals
    /// [`label_size_bounded`](crate::counting::label_size_bounded)'s for
    /// the refined attribute set (rows are visited in the same order).
    /// Sizing only counts groups, so the result carries no weights
    /// (every group weighs 0) and the pass skips the weight loop.
    pub fn refine_bounded(&self, col: &[u32], card: u32, bound: u64) -> Option<Partition> {
        self.refine_within(col, &[], card, &[], bound)
    }

    fn refine_within(
        &self,
        data_col: &[u32],
        pattern_col: &[u32],
        card: u32,
        dweights: &[u64],
        bound: u64,
    ) -> Option<Partition> {
        let n = self.ids.len();
        debug_assert_eq!(data_col.len() + pattern_col.len(), n);
        let stride = card as usize + 1; // codes 0..card, missing = card
        let dense_slots = self.n_groups().saturating_mul(stride);
        let groups_hint = self.n_groups().min(bound as usize) + 1;
        let mut out = Partition {
            ids: Vec::with_capacity(n),
            weights: Vec::with_capacity(groups_hint),
            reps: Vec::with_capacity(groups_hint),
            missing: None,
        };
        let n_data = data_col.len();
        let complete = if dense_slots <= (4 * n).max(DENSE_REMAP_FLOOR) {
            let mut remap = DenseRemap {
                slots: vec![0; dense_slots],
                stride,
            };
            self.pass(&mut out, &mut remap, card, 0, data_col, bound)
                && self.pass(&mut out, &mut remap, card, n_data, pattern_col, bound)
        } else {
            let mut remap: FxHashMap<u64, u32> = fx_map_with_capacity(groups_hint * 2);
            self.pass(&mut out, &mut remap, card, 0, data_col, bound)
                && self.pass(&mut out, &mut remap, card, n_data, pattern_col, bound)
        };
        if !complete {
            return None;
        }
        for (&g, &w) in out.ids.iter().zip(dweights) {
            out.weights[g as usize] += w;
        }
        Some(out)
    }

    /// Composes `(old group id, code)` into new ids for universe rows
    /// `start..start + col.len()`, appending them to `out` (whose group
    /// weights stay 0). Returns `false` once more than `bound` non-missing
    /// groups exist.
    fn pass(
        &self,
        out: &mut Partition,
        remap: &mut impl Remap,
        card: u32,
        start: usize,
        col: &[u32],
        bound: u64,
    ) -> bool {
        let Partition {
            ids,
            weights,
            reps,
            missing,
        } = out;
        let old_ids = &self.ids[start..start + col.len()];
        for (i, (&v, &old)) in col.iter().zip(old_ids).enumerate() {
            let code = if v == MISSING { card } else { v };
            debug_assert!(code <= card, "value id exceeds declared cardinality");
            let slot = remap.slot(old, code);
            if *slot == 0 {
                let g = weights.len() as u32;
                *slot = g + 1;
                weights.push(0);
                reps.push((start + i) as u32);
                if code == card && self.missing == Some(old) {
                    *missing = Some(g);
                } else if weights.len() - usize::from(missing.is_some()) > bound as usize {
                    return false;
                }
            }
            ids.push(*slot - 1);
        }
        true
    }

    /// Coarsens to the sub-subset `keep` (which must be contained in the
    /// attribute set this partition was built over): groups whose
    /// representatives agree on every attribute of `keep` are merged and
    /// their weights summed. `value_of(row, attr)` reads a universe
    /// row's raw value (with [`MISSING`] for undefined cells).
    ///
    /// Soundness: rows in one group share their full projection, so the
    /// representative's `keep`-values stand for every member, and `u64`
    /// weight addition is exact and order-independent — the coarse counts
    /// equal a from-scratch group-by over `keep`.
    pub fn coarsen(&self, keep: &[usize], value_of: &dyn Fn(u32, usize) -> u32) -> Partition {
        let g_old = self.n_groups();
        let mut key_to_group: FxHashMap<Box<[u32]>, u32> = fx_map_with_capacity(g_old);
        let mut coarse: Vec<u32> = Vec::with_capacity(g_old);
        let mut weights: Vec<u64> = Vec::new();
        let mut reps: Vec<u32> = Vec::new();
        for (g, (&rep, &w)) in self.reps.iter().zip(&self.weights).enumerate() {
            let key: Box<[u32]> = keep.iter().map(|&a| value_of(rep, a)).collect();
            let next = weights.len() as u32;
            let cg = *key_to_group.entry(key).or_insert(next);
            if cg == next {
                weights.push(0);
                reps.push(rep);
            }
            weights[cg as usize] += w;
            coarse.push(cg);
            debug_assert_eq!(g + 1, coarse.len());
        }
        let ids = self.ids.iter().map(|&g| coarse[g as usize]).collect();
        let all_missing: Box<[u32]> = vec![MISSING; keep.len()].into();
        let missing = key_to_group.get(&all_missing).copied();
        Partition {
            ids,
            weights,
            reps,
            missing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrset::AttrSet;
    use crate::counting::GroupCounts;
    use pclabel_data::dataset::{Dataset, DatasetBuilder};
    use pclabel_data::generate::figure2_sample;

    /// Builds the partition for `attrs` over `dataset` (no pattern rows)
    /// by successive refinement, in increasing attribute order.
    fn partition_over(dataset: &Dataset, attrs: AttrSet, dweights: &[u64]) -> Partition {
        let total: u64 = dweights.iter().sum();
        let mut part = Partition::unit(dataset.n_rows(), total);
        for a in attrs.iter() {
            let card = dataset.schema().attr(a).map_or(0, |at| at.cardinality()) as u32;
            part = part.refine(dataset.column(a), &[], card, dweights);
        }
        part
    }

    #[test]
    fn refined_weights_match_group_counts() {
        let d = figure2_sample();
        let w = vec![1u64; d.n_rows()];
        for attrs in [
            AttrSet::from_indices([0]),
            AttrSet::from_indices([1, 3]),
            AttrSet::full(4),
        ] {
            let part = partition_over(&d, attrs, &w);
            let gc = GroupCounts::build(&d, None, attrs);
            assert_eq!(part.pattern_count_size(), gc.pattern_count_size());
            for r in 0..d.n_rows() {
                assert_eq!(
                    part.weight_of_row(r),
                    gc.weight_of_row(&d, r),
                    "{attrs} row {r}"
                );
            }
        }
    }

    #[test]
    fn unit_partition_carries_total_weight() {
        let part = Partition::unit(5, 42);
        assert_eq!(part.n_groups(), 1);
        assert_eq!(part.pattern_count_size(), 0);
        assert_eq!(part.n_rows(), 5);
        for r in 0..5 {
            assert_eq!(part.weight_of_row(r), 42);
            assert_eq!(part.group_of(r), 0);
        }
    }

    #[test]
    fn refine_tracks_missing_as_own_code() {
        let mut b = DatasetBuilder::new(["a"]);
        b.push_row_opt(&[Some("x")]).unwrap();
        b.push_row_opt(&[None::<&str>]).unwrap();
        b.push_row_opt(&[Some("x")]).unwrap();
        let d = b.finish();
        let w = vec![1u64; 3];
        let part = partition_over(&d, AttrSet::singleton(0), &w);
        assert_eq!(part.n_groups(), 2);
        assert_eq!(part.group_of(0), part.group_of(2));
        assert_ne!(part.group_of(0), part.group_of(1));
        assert_eq!(part.weight_of_row(0), 2);
        assert_eq!(part.weight_of_row(1), 1);
        // The all-missing group is not a pattern: |P_S| = 1.
        assert_eq!(part.pattern_count_size(), 1);
        let unit = Partition::unit(3, 3);
        assert_eq!(
            unit.refine_bounded(d.column(0), 1, 1).unwrap().n_groups(),
            2
        );
        assert!(unit.refine_bounded(d.column(0), 1, 0).is_none());
    }

    #[test]
    fn pattern_rows_are_passive() {
        // Universe: 3 data rows + 2 pattern rows; the pattern rows get
        // ids (and read group weights) but add no weight.
        let data = [0u32, 1, 0];
        let patterns = [0u32, 2];
        let w = [5u64, 7, 11];
        let part = Partition::unit(5, 23).refine(&data, &patterns, 3, &w);
        assert_eq!(part.weight_of_row(3), 16); // pattern "0" joins rows 0+2
        assert_eq!(part.weight_of_row(4), 0); // value 2 unseen in data
        assert_eq!(part.weight_of_row(1), 7);
    }

    #[test]
    fn coarsen_equals_rebuild_from_scratch() {
        let d = figure2_sample();
        let w = vec![1u64; d.n_rows()];
        let fine = partition_over(&d, AttrSet::full(4), &w);
        let keep = AttrSet::from_indices([1, 3]);
        let coarse = fine.coarsen(&keep.to_vec(), &|row, a| d.value_raw(row as usize, a));
        let fresh = partition_over(&d, keep, &w);
        for r in 0..d.n_rows() {
            assert_eq!(coarse.weight_of_row(r), fresh.weight_of_row(r), "row {r}");
        }
        assert_eq!(coarse.n_groups(), fresh.n_groups());
        assert_eq!(coarse.pattern_count_size(), fresh.pattern_count_size());
    }

    #[test]
    fn hash_fallback_matches_dense() {
        // Two high-cardinality columns: the second refinement's composite
        // space (~997 groups × 992 codes) exceeds the dense-remap budget
        // and takes the hash path; both paths must agree.
        let n = 2000usize;
        let names = ["hi", "hi2"];
        let mut b = DatasetBuilder::new(names);
        for r in 0..n {
            b.push_row(&[format!("v{}", r % 997), format!("w{}", (r * 7) % 991)])
                .unwrap();
        }
        let d = b.finish();
        let w = vec![1u64; n];
        let part = partition_over(&d, AttrSet::full(2), &w);
        let gc = GroupCounts::build(&d, None, AttrSet::full(2));
        for r in 0..n {
            assert_eq!(part.weight_of_row(r), gc.weight_of_row(&d, r));
        }
    }
}
