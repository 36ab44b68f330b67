//! Algorithm 1: top-down lattice search for the optimal label.
//!
//! The walk visits each lattice node at most once (Proposition 3.8, by
//! the `gen` operator's index ordering) and examines a node's `gen`
//! children only when its own label fits the bound. So it explores exactly
//! the within-budget subsets plus, in the worst case, their immediate
//! children — a tiny fraction of the `2^n` lattice (54–99 % fewer nodes
//! than the naive algorithm in the paper's Figure 9).
//!
//! **Depth-first, sized by bounded refinement.** The paper drains the
//! `gen` tree breadth-first with a queue and prices every node with a cold
//! `labelSize(S, D)` scan. Here the same tree is walked depth-first, and a
//! child `S ∪ {a}` is sized by one
//! [`refine_bounded`](crate::search::refine::Partition::refine_bounded)
//! pass over its parent's partition of the distinct rows: one column read
//! and one array probe per row, stopping as soon as the group count passes
//! the bound. The answers equal the cold scan's
//! ([`label_size_bounded`](crate::counting::label_size_bounded)), and so
//! does `nodes_examined`, since the set of examined nodes does not depend
//! on the visiting order. Only the partitions on the root-to-node chain
//! are live, at most `n_attrs + 1` of them, each `4·U + 12·G` bytes for
//! `U` distinct rows and `G ≤ bound + 1` groups; one partition per queued
//! node of a breadth-first walk would hold a whole lattice level.
//!
//! **Candidates.** The paper collects candidates as it goes and drops the
//! direct parents of each new one (`removeParents`). Label size is
//! monotone in `S`, so that leaves exactly the fitting subsets with no
//! fitting direct superset; the walk records which subsets fit and takes
//! those maximal ones at the end.

use std::time::Instant;

use pclabel_data::dataset::Dataset;
use pclabel_data::error::Result;

use crate::attrset::AttrSet;
use crate::hash::FxHashSet;
use crate::label::Label;
use crate::lattice::{children, gen};
use crate::search::refine::Partition;
use crate::search::{
    argmin_candidate, check_dataset, Evaluator, SearchOptions, SearchOutcome, SearchStats,
};

/// Runs Algorithm 1 and returns the best label within `opts.bound`.
///
/// Deviation from the paper (which leaves the case unspecified): when *no*
/// pair of attributes fits the bound, the candidate set is empty and the
/// empty-subset label (pure independence estimation, `|PC| = 0`) is
/// returned as a fallback rather than failing.
pub fn top_down_search(dataset: &Dataset, opts: &SearchOptions) -> Result<SearchOutcome> {
    check_dataset(dataset)?;
    let n = dataset.n_attrs();
    let search_start = Instant::now();

    // The evaluator also holds the compressed distinct-tuple table the
    // sizing partitions are built over: group counts over distinct tuples
    // equal those over raw rows, but each pass touches fewer rows.
    let evaluator = Evaluator::new(dataset, &opts.patterns)
        .with_count_threads(opts.count_threads)
        .with_count_shards(opts.count_shards);

    let mut stats = SearchStats::default();
    let mut fits: FxHashSet<AttrSet> = FxHashSet::default();
    descend(
        &evaluator,
        opts.bound,
        AttrSet::EMPTY,
        &evaluator.sizing_root(),
        &mut fits,
        &mut stats.nodes_examined,
    );
    // Singletons fit and seed the pairs (their sizes count as examined,
    // matching the paper's Figure 9 node counts) but are not candidates:
    // a one-attribute PC duplicates information already in VC, and
    // Example 3.7's candidate set contains only pairs.
    let mut cand_list: Vec<AttrSet> = fits
        .iter()
        .copied()
        .filter(|&s| s.len() >= 2 && children(s, n).all(|c| !fits.contains(&c)))
        .collect();
    stats.search_time = search_start.elapsed();

    // Final arg-min over the candidate set (the paper's line 10).
    let eval_start = Instant::now();
    cand_list.sort_by_key(|s| (s.len(), s.bits()));
    stats.candidates_evaluated = cand_list.len() as u64;
    // Candidates are sorted by (size, bits), so consecutive subsets share
    // prefixes and the refinement contexts inside evaluate_many derive
    // most partitions by a single-column pass or a coarsening.
    let errors = evaluator.evaluate_many(&cand_list, opts);
    let best = argmin_candidate(&cand_list, &errors);
    stats.eval_time = eval_start.elapsed();

    let best_attrs = best.map(|(s, _)| s).unwrap_or(AttrSet::EMPTY);
    let best_stats = Some(evaluator.context_for(opts).error_of(best_attrs, false));
    let (distinct, dweights) = evaluator.compressed();
    let label = Some(Label::from_parts(
        distinct,
        Some(dweights),
        best_attrs,
        evaluator.value_counts(),
        evaluator.n_rows(),
    ));
    Ok(SearchOutcome {
        best_attrs: Some(best_attrs),
        best_stats,
        candidates: cand_list,
        stats,
        label,
    })
}

/// Examines the `gen` children of `node` (whose sizing partition is
/// `part`), recording those that fit in `fits` and descending into them.
fn descend(
    ev: &Evaluator,
    bound: u64,
    node: AttrSet,
    part: &Partition,
    fits: &mut FxHashSet<AttrSet>,
    nodes_examined: &mut u64,
) {
    for child in gen(node, ev.n_attrs()) {
        *nodes_examined += 1;
        let attr = child.max_index().expect("a gen child is non-empty");
        if let Some(child_part) = ev.size_child(part, attr, bound) {
            fits.insert(child);
            descend(ev, bound, child, &child_part, fits, nodes_examined);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorMetric;
    use crate::patterns::PatternSet;
    use pclabel_data::generate::{
        correlated_pair, figure2_sample, functional_chain, zipf_correlated,
    };

    #[test]
    fn example_3_7_returns_age_marital() {
        // Figure 2 data, bound 5: candidates are {g,a} (size 4) and {a,m}
        // (size 3); {a,m} wins. (Note the paper's prose swaps {a,r}/{a,m};
        // the conclusion — return L_{a,m} — matches the data.)
        let d = figure2_sample();
        let out = top_down_search(&d, &SearchOptions::with_bound(5)).unwrap();
        let mut cands = out.candidates.clone();
        cands.sort_by_key(|s| s.bits());
        assert_eq!(
            cands,
            vec![AttrSet::from_indices([0, 1]), AttrSet::from_indices([1, 3])]
        );
        assert_eq!(out.best_attrs, Some(AttrSet::from_indices([1, 3])));
        let label = out.best_label().unwrap();
        assert_eq!(label.pattern_count_size(), 3);
        assert!(label.pattern_count_size() <= 5);
    }

    #[test]
    fn large_bound_selects_full_set() {
        // With an unbounded budget, the full attribute set fits and has
        // zero error, so it must win.
        let d = figure2_sample();
        let out = top_down_search(&d, &SearchOptions::with_bound(1000)).unwrap();
        assert_eq!(out.best_attrs, Some(AttrSet::full(4)));
        assert_eq!(out.best_stats.unwrap().max_abs, 0.0);
    }

    #[test]
    fn impossible_bound_falls_back_to_independence() {
        let d = figure2_sample();
        let out = top_down_search(&d, &SearchOptions::with_bound(1)).unwrap();
        assert_eq!(out.best_attrs, Some(AttrSet::EMPTY));
        assert_eq!(out.candidates.len(), 0);
        let label = out.best_label().unwrap();
        assert_eq!(label.pattern_count_size(), 0);
        // The fallback label still estimates (independence assumption).
        let p = crate::pattern::Pattern::parse(&d, &[("gender", "Female")]).unwrap();
        assert_eq!(label.estimate(&p), 9.0);
    }

    #[test]
    fn candidates_are_exactly_the_maximal_fitting_subsets() {
        // Brute force over all 2^n subsets with the cold sizing scan: a
        // candidate is a fitting subset of ≥ 2 attributes none of whose
        // direct supersets fits (so the candidates form an antichain).
        use crate::counting::label_size_bounded;
        let cases = [
            (
                zipf_correlated(5, 4, 1.1, 0.5, 800, 9).unwrap(),
                [3u64, 10, 40, 150],
            ),
            (
                zipf_correlated(6, 5, 1.2, 0.4, 2500, 13).unwrap(),
                [25, 60, 120, 400],
            ),
        ];
        for (d, bounds) in &cases {
            let n = d.n_attrs();
            for &bound in bounds {
                let out = top_down_search(d, &SearchOptions::with_bound(bound)).unwrap();
                let fits = |s: AttrSet| label_size_bounded(d, s, bound).is_some();
                let mut maximal: Vec<AttrSet> = (0..1u64 << n)
                    .map(AttrSet::from_bits)
                    .filter(|&s| s.len() >= 2 && fits(s) && !children(s, n).any(fits))
                    .collect();
                maximal.sort_by_key(|s| (s.len(), s.bits()));
                assert_eq!(out.candidates, maximal, "{n} attrs, bound {bound}");
            }
        }
    }

    #[test]
    fn finds_perfect_label_on_functional_data() {
        // In a functional chain every attribute determines the rest, so a
        // 2-attribute label over adjacent attributes is exact. The search
        // must find a zero-error label with a tiny budget.
        let d = functional_chain(5, 4, 2000, 1).unwrap();
        let out = top_down_search(&d, &SearchOptions::with_bound(4)).unwrap();
        assert_eq!(out.best_stats.unwrap().max_abs, 0.0);
    }

    #[test]
    fn nodes_examined_is_reported() {
        let d = figure2_sample();
        let out = top_down_search(&d, &SearchOptions::with_bound(5)).unwrap();
        // gen({}) = 4 singletons; each singleton fits trivially? No —
        // singleton sizes are the domain sizes (2, 2, 3, 3), all ≤ 5, so
        // they are enqueued and their gen() children are examined:
        // 4 (singletons) + 3 + 2 + 1 + 0 (pairs via gen) + children of the
        // two surviving pairs.
        assert!(out.stats.nodes_examined >= 10);
        assert!(out.stats.candidates_evaluated >= 2);
    }

    #[test]
    fn metric_q_error_search() {
        let d = correlated_pair(5, 2000, 0.3, 4).unwrap();
        let opts = SearchOptions::with_bound(30).metric(ErrorMetric::MeanQ);
        let out = top_down_search(&d, &opts).unwrap();
        assert!(out.best_attrs.is_some());
        let s = out.best_stats.unwrap();
        assert!(s.mean_q >= 1.0);
    }

    #[test]
    fn threads_do_not_change_result() {
        let d = correlated_pair(6, 3000, 0.5, 10).unwrap();
        let seq = top_down_search(&d, &SearchOptions::with_bound(20)).unwrap();
        let par = top_down_search(&d, &SearchOptions::with_bound(20).threads(4)).unwrap();
        assert_eq!(seq.best_attrs, par.best_attrs);
    }

    #[test]
    fn empty_dataset_rejected() {
        use pclabel_data::dataset::DatasetBuilder;
        let d = DatasetBuilder::new(["a"]).finish();
        assert!(top_down_search(&d, &SearchOptions::with_bound(5)).is_err());
    }

    #[test]
    fn explicit_pattern_set_drives_selection() {
        // When P contains only patterns over {X}, a label over {X, Y} and
        // one over {X} are both exact; the tie-break prefers smaller sets,
        // and every candidate containing X yields zero error.
        let d = correlated_pair(4, 500, 0.7, 2).unwrap();
        let patterns = PatternSet::OverAttrs(AttrSet::singleton(0));
        let opts = SearchOptions::with_bound(100).patterns(patterns);
        let out = top_down_search(&d, &opts).unwrap();
        assert_eq!(out.best_stats.unwrap().max_abs, 0.0);
    }
}
