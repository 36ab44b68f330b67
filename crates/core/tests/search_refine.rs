//! Bit-identity pins for the lattice-aware refinement evaluator.
//!
//! [`EvalContext::error_of`] must produce *exactly* the same
//! [`ErrorStats`] — every field, every `f64` bit — as the cold
//! [`GroupCounts::build_parallel_sharded`] path ([`Evaluator::error_of`]),
//! across metrics, early-exit on/off, shard/thread grids and both key
//! widths; and the searches must return identical outcomes with
//! refinement on and off.
//!
//! The top-down and greedy searches size lattice nodes by bounded
//! refinement; they must return exactly what a breadth-first walk (and a
//! greedy walk) sized by the cold [`label_size_bounded`] scan returns.

use proptest::prelude::*;

use std::collections::{HashSet, VecDeque};

use pclabel_core::attrset::AttrSet;
use pclabel_core::counting::{label_size_bounded, KeyCodec};
use pclabel_core::error::{ErrorMetric, ErrorStats};
use pclabel_core::lattice::gen;
use pclabel_core::patterns::PatternSet;
use pclabel_core::search::{
    greedy_search, naive_search, top_down_search, Evaluator, SearchOptions, SearchOutcome,
};
use pclabel_data::dataset::{Dataset, DatasetBuilder, MISSING};
use pclabel_data::generate::{
    bluenile, compas, correlated_pair, creditcard, figure2_sample, functional_chain,
    BlueNileConfig, CompasConfig, CreditCardConfig,
};

/// Small random dataset with optional missing cells (mirrors the core
/// proptests' generator).
fn arb_dataset_missing() -> impl Strategy<Value = Dataset> {
    (2usize..=4, 1usize..=40, 1u32..=3).prop_flat_map(|(n_attrs, n_rows, dom)| {
        proptest::collection::vec(
            proptest::collection::vec(proptest::option::weighted(0.85, 0..dom), n_attrs),
            n_rows,
        )
        .prop_map(move |rows| {
            let names: Vec<String> = (0..n_attrs).map(|i| format!("a{i}")).collect();
            let mut b = DatasetBuilder::new(&names);
            let full: Vec<String> = (0..dom).map(|v| format!("v{v}")).collect();
            b.push_row(
                &full[..1]
                    .iter()
                    .cycle()
                    .take(n_attrs)
                    .cloned()
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            for row in rows {
                let fields: Vec<Option<String>> =
                    row.iter().map(|c| c.map(|v| format!("v{v}"))).collect();
                b.push_row_opt(&fields).unwrap();
            }
            b.finish()
        })
    })
}

/// Asserts the refinement context and the cold build agree bit-for-bit on
/// every subset of the schema, for both early-exit settings, against an
/// evaluator configured with the given counting grid.
fn assert_paths_identical(d: &Dataset, ps: &PatternSet, threads: usize, shards: usize) {
    let ev = Evaluator::new(d, ps)
        .with_count_threads(threads)
        .with_count_shards(shards);
    let mut ctx = ev.context();
    for bits in 0..(1u64 << d.n_attrs().min(4)) {
        let attrs = AttrSet::from_bits(bits);
        for early in [false, true] {
            let cold = ev.error_of(attrs, early);
            let warm = ctx.error_of(attrs, early);
            assert_eq!(
                cold, warm,
                "paths diverged: attrs {attrs} early {early} threads {threads} shards {shards}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Refinement vs cold build: bit-identical `ErrorStats` (all fields,
    /// hence all metrics) on random datasets with missing cells, across
    /// the cold path's shard and thread grid.
    #[test]
    fn refinement_identical_to_cold_build(
        d in arb_dataset_missing(),
        threads in 1usize..=3,
    ) {
        for shards in [1usize, 8] {
            assert_paths_identical(&d, &PatternSet::AllTuples, threads, shards);
        }
    }

    /// The same identity holds for restricted pattern sets, where the
    /// pattern rows are a passive suffix of the refinement universe and
    /// the marginal-coarsening path is exercised.
    #[test]
    fn refinement_identical_on_over_attrs_patterns(
        d in arb_dataset_missing(),
        bits in any::<u64>(),
    ) {
        let over = AttrSet::from_bits(bits & ((1u64 << d.n_attrs()) - 1));
        if over.is_empty() {
            return;
        }
        assert_paths_identical(&d, &PatternSet::OverAttrs(over), 1, 1);
    }

    /// Greedy and top-down return identical outcomes with refinement on
    /// and off, under every metric.
    #[test]
    fn searches_identical_with_refinement_on_and_off(
        d in arb_dataset_missing(),
        bound in 1u64..40,
        metric_id in 0usize..4,
    ) {
        let metric = [
            ErrorMetric::MaxAbsolute,
            ErrorMetric::MeanAbsolute,
            ErrorMetric::MaxQ,
            ErrorMetric::MeanQ,
        ][metric_id];
        let on = SearchOptions::with_bound(bound).metric(metric);
        let off = on.clone().refine(false);
        let (g_on, g_off) = (greedy_search(&d, &on).unwrap(), greedy_search(&d, &off).unwrap());
        prop_assert_eq!(g_on.best_attrs, g_off.best_attrs);
        prop_assert_eq!(g_on.best_stats, g_off.best_stats);
        prop_assert_eq!(g_on.candidates, g_off.candidates);
        let (t_on, t_off) =
            (top_down_search(&d, &on).unwrap(), top_down_search(&d, &off).unwrap());
        prop_assert_eq!(t_on.best_attrs, t_off.best_attrs);
        prop_assert_eq!(t_on.best_stats, t_off.best_stats);
    }
}

#[test]
fn key_width_boundary_64_bits_is_identical() {
    // 8 attributes × cardinality 255 = exactly 64 packed key bits on the
    // cold path; the refinement path never packs keys but must agree.
    let domains: Vec<Vec<String>> = (0..8)
        .map(|_| (0..255).map(|v| format!("v{v}")).collect())
        .collect();
    let mut b = DatasetBuilder::with_domains(
        ["a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"]
            .iter()
            .zip(&domains)
            .map(|(n, d)| (*n, d.iter().map(|s| s.as_str()))),
    );
    b.push_ids(&[0, 254, 7, 100, 254, 0, 31, 200]).unwrap();
    b.push_ids(&[MISSING, 254, 7, 100, 254, 0, 31, 200])
        .unwrap();
    b.push_ids(&[0, 254, 7, 100, 254, 0, 31, 100]).unwrap();
    let d = b.finish();
    assert_eq!(KeyCodec::new(&d, AttrSet::full(8)).total_bits(), 64);
    let ev = Evaluator::new(&d, &PatternSet::AllTuples);
    let mut ctx = ev.context();
    for bits in [0u64, 1, 0b11, 0b1011, 0xFF] {
        let attrs = AttrSet::from_bits(bits);
        for early in [false, true] {
            assert_eq!(ev.error_of(attrs, early), ctx.error_of(attrs, early));
        }
    }
}

#[test]
fn key_width_boundary_65_bits_is_identical() {
    // One more binary attribute pushes the cold path onto wide (boxed)
    // keys; the refinement path is key-width-oblivious and must agree.
    let mut domains: Vec<Vec<String>> = (0..8)
        .map(|_| (0..255).map(|v| format!("v{v}")).collect())
        .collect();
    domains.push(vec!["y".into(), "n".into()]);
    let names: Vec<String> = (0..9).map(|i| format!("a{i}")).collect();
    let mut b = DatasetBuilder::with_domains(
        names
            .iter()
            .zip(&domains)
            .map(|(n, d)| (n.as_str(), d.iter().map(|s| s.as_str()))),
    );
    b.push_ids(&[0, 254, 7, 100, 254, 0, 31, 200, 0]).unwrap();
    b.push_ids(&[0, 254, 7, 100, 254, 0, 31, 200, 1]).unwrap();
    b.push_ids(&[3, 11, 7, 100, 254, 0, 31, 200, 1]).unwrap();
    b.push_ids(&[MISSING, 11, 7, 100, 254, 0, 31, 200, 1])
        .unwrap();
    let d = b.finish();
    assert!(!KeyCodec::new(&d, AttrSet::full(9)).fits_u64());
    let ev = Evaluator::new(&d, &PatternSet::AllTuples);
    let mut ctx = ev.context();
    for bits in [0u64, 1, 0b101, 0x1FF, 0x100, 0b110000011] {
        let attrs = AttrSet::from_bits(bits);
        for early in [false, true] {
            assert_eq!(ev.error_of(attrs, early), ctx.error_of(attrs, early));
        }
    }
}

#[test]
fn greedy_and_topdown_regression_on_generators() {
    // The acceptance regression: identical best_attrs/best_stats with
    // refinement on and off on the bench generators and Figure 2.
    let datasets = vec![
        figure2_sample(),
        correlated_pair(6, 3000, 0.4, 9).unwrap(),
        functional_chain(5, 4, 1500, 8).unwrap(),
    ];
    for d in &datasets {
        for bound in [4u64, 20, 100] {
            let on = SearchOptions::with_bound(bound);
            let off = on.clone().refine(false);
            let (g_on, g_off) = (
                greedy_search(d, &on).unwrap(),
                greedy_search(d, &off).unwrap(),
            );
            assert_eq!(g_on.best_attrs, g_off.best_attrs, "greedy bound {bound}");
            assert_eq!(g_on.best_stats, g_off.best_stats, "greedy bound {bound}");
            assert_eq!(g_on.candidates, g_off.candidates);
            let (t_on, t_off) = (
                top_down_search(d, &on).unwrap(),
                top_down_search(d, &off).unwrap(),
            );
            assert_eq!(t_on.best_attrs, t_off.best_attrs, "topdown bound {bound}");
            assert_eq!(t_on.best_stats, t_off.best_stats, "topdown bound {bound}");
            assert_eq!(t_on.candidates, t_off.candidates);
            let (n_on, n_off) = (
                naive_search(d, &on).unwrap(),
                naive_search(d, &off).unwrap(),
            );
            assert_eq!(n_on.best_attrs, n_off.best_attrs, "naive bound {bound}");
            assert_eq!(n_on.best_stats, n_off.best_stats, "naive bound {bound}");
        }
    }
}

#[test]
fn parallel_evaluate_many_identical_with_refinement() {
    let d = correlated_pair(8, 4000, 0.5, 21).unwrap();
    let ev = Evaluator::new(&d, &PatternSet::AllTuples);
    let cands = vec![
        AttrSet::EMPTY,
        AttrSet::from_indices([0]),
        AttrSet::from_indices([1]),
        AttrSet::from_indices([0, 1]),
    ];
    for metric in [ErrorMetric::MaxAbsolute, ErrorMetric::MeanQ] {
        let base = SearchOptions::with_bound(100).metric(metric);
        let seq = ev.evaluate_many(&cands, &base);
        for threads in [2usize, 4] {
            let par = ev.evaluate_many(&cands, &base.clone().threads(threads));
            assert_eq!(seq, par, "{metric} threads {threads}");
            let cold = ev.evaluate_many(&cands, &base.clone().threads(threads).refine(false));
            assert_eq!(seq, cold, "{metric} cold threads {threads}");
        }
    }
}

/// Algorithm 1 as the paper states it: a breadth-first walk over `gen`,
/// every node sized by the cold scan, direct parents of each new
/// candidate removed (`removeParents`); then the arg-min of the
/// candidates' errors (ties: fewer attributes, then bitmask).
fn reference_top_down(d: &Dataset, opts: &SearchOptions) -> Outcome {
    let ev = Evaluator::new(d, &opts.patterns);
    let (distinct, _) = ev.compressed();
    let mut nodes = 0u64;
    let mut queue = VecDeque::from([AttrSet::EMPTY]);
    let mut cands: HashSet<AttrSet> = HashSet::new();
    while let Some(curr) = queue.pop_front() {
        for child in gen(curr, d.n_attrs()) {
            nodes += 1;
            if label_size_bounded(distinct, child, opts.bound).is_some() {
                queue.push_back(child);
                if child.len() >= 2 {
                    for parent in child.parents() {
                        cands.remove(&parent);
                    }
                    cands.insert(child);
                }
            }
        }
    }
    let mut cands: Vec<AttrSet> = cands.into_iter().collect();
    cands.sort_by_key(|s| (s.len(), s.bits()));
    let early = opts.early_exit && opts.metric.supports_early_exit();
    let scored = cands
        .iter()
        .map(|&s| (s, opts.metric.of(&ev.error_of(s, early))));
    let best = argmin(scored).unwrap_or(AttrSet::EMPTY);
    reference_outcome(&ev, best, cands, nodes)
}

/// The subset with the least error; ties go to fewer attributes, then
/// the smaller bitmask.
fn argmin(scored: impl Iterator<Item = (AttrSet, f64)>) -> Option<AttrSet> {
    scored
        .min_by(|(sa, ea), (sb, eb)| {
            ea.total_cmp(eb)
                .then_with(|| (sa.len(), sa.bits()).cmp(&(sb.len(), sb.bits())))
        })
        .map(|(s, _)| s)
}

/// Greedy forward selection with every step sized by the cold scan.
fn reference_greedy(d: &Dataset, opts: &SearchOptions) -> Outcome {
    let ev = Evaluator::new(d, &opts.patterns);
    let (distinct, _) = ev.compressed();
    let early = opts.early_exit && opts.metric.supports_early_exit();
    let err = |s: AttrSet| opts.metric.of(&ev.error_of(s, early));
    let mut nodes = 0u64;
    let mut current = AttrSet::EMPTY;
    let mut visited = vec![(current, err(current))];
    loop {
        let mut best_step: Option<(AttrSet, f64)> = None;
        for a in (0..d.n_attrs()).filter(|&a| !current.contains(a)) {
            let candidate = current.insert(a);
            nodes += 1;
            if label_size_bounded(distinct, candidate, opts.bound).is_none() {
                continue;
            }
            let e = err(candidate);
            if best_step.is_none_or(|(bs, be)| e < be || (e == be && candidate.bits() < bs.bits()))
            {
                best_step = Some((candidate, e));
            }
        }
        let Some(step) = best_step else { break };
        current = step.0;
        visited.push(step);
    }
    let best = argmin(visited.iter().copied()).unwrap();
    let path = visited.iter().skip(1).map(|&(s, _)| s).collect();
    reference_outcome(&ev, best, path, nodes)
}

/// The parts of a search outcome the reference must reproduce exactly.
#[derive(Debug, PartialEq)]
struct Outcome {
    candidates: Vec<AttrSet>,
    nodes_examined: u64,
    best_attrs: Option<AttrSet>,
    best_stats: Option<ErrorStats>,
}

impl From<SearchOutcome> for Outcome {
    fn from(out: SearchOutcome) -> Self {
        Outcome {
            candidates: out.candidates,
            nodes_examined: out.stats.nodes_examined,
            best_attrs: out.best_attrs,
            best_stats: out.best_stats,
        }
    }
}

fn reference_outcome(
    ev: &Evaluator,
    best: AttrSet,
    candidates: Vec<AttrSet>,
    nodes: u64,
) -> Outcome {
    Outcome {
        candidates,
        nodes_examined: nodes,
        best_attrs: Some(best),
        best_stats: Some(ev.error_of(best, false)),
    }
}

#[test]
fn searches_match_cold_sized_reference_on_paper_generators() {
    let datasets = [
        (
            "bluenile",
            bluenile(&BlueNileConfig {
                n_rows: 2000,
                seed: 1,
            }),
        ),
        (
            "compas",
            compas(&CompasConfig {
                n_rows: 2000,
                seed: 1,
            }),
        ),
        (
            "creditcard",
            creditcard(&CreditCardConfig {
                n_rows: 2000,
                seed: 1,
            }),
        ),
    ];
    for (name, d) in &datasets {
        let d = d.as_ref().unwrap();
        for bound in [10u64, 50] {
            let opts = SearchOptions::with_bound(bound);
            let what = format!("{name} bound {bound}");
            assert_eq!(
                Outcome::from(top_down_search(d, &opts).unwrap()),
                reference_top_down(d, &opts),
                "top-down {what}"
            );
            assert_eq!(
                Outcome::from(greedy_search(d, &opts).unwrap()),
                reference_greedy(d, &opts),
                "greedy {what}"
            );
        }
    }
}
