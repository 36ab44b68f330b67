//! Answer checks. Exact answers are compared with the benchmark's own
//! scan of the rows it sent; estimated answers must be bit-equal to
//! `Label::estimate` on a label built in-process over the same rows and
//! the same attribute set.

use std::collections::HashMap;

use pclabel_core::attrset::AttrSet;
use pclabel_core::label::Label;
use pclabel_core::pattern::Pattern;
use pclabel_data::dataset::Dataset;
use pclabel_engine::json::Json;

use crate::data::Terms;

pub fn resolve(terms: &Terms) -> Pattern {
    Pattern::from_terms(terms.iter())
}

/// Exact row counts by the benchmark's own scan. Patterns that share an
/// attribute list with many others are counted together in one pass over
/// those columns; the rest walk the row list of their rarest term and
/// check the other terms row by row.
pub fn exact_counts(ds: &Dataset, patterns: &[Pattern]) -> Vec<u64> {
    const GROUP_SCAN: usize = 64;
    let mut groups: HashMap<Vec<usize>, Vec<usize>> = HashMap::new();
    for (i, p) in patterns.iter().enumerate() {
        groups
            .entry(p.terms().map(|(a, _)| a).collect())
            .or_default()
            .push(i);
    }
    let mut out = vec![0u64; patterns.len()];
    let mut postings: Vec<Option<Vec<Vec<u32>>>> = vec![None; ds.n_attrs()];
    for (attrs, members) in groups {
        let columns: Vec<&[u32]> = attrs.iter().map(|&a| ds.column(a)).collect();
        if members.len() < GROUP_SCAN {
            for i in members {
                let terms: Vec<(usize, u32)> = patterns[i].terms().collect();
                for &(a, _) in &terms {
                    postings[a].get_or_insert_with(|| {
                        let mut lists = Vec::new();
                        for (r, &v) in ds.column(a).iter().enumerate() {
                            let v = v as usize;
                            if v >= lists.len() {
                                lists.resize(v + 1, Vec::new());
                            }
                            lists[v].push(r as u32);
                        }
                        lists
                    });
                }
                let list = |&(a, v): &(usize, u32)| -> &[u32] {
                    postings[a]
                        .as_ref()
                        .expect("built")
                        .get(v as usize)
                        .map_or(&[], Vec::as_slice)
                };
                let rarest = terms
                    .iter()
                    .min_by_key(|t| list(t).len())
                    .expect("non-empty pattern");
                out[i] = list(rarest)
                    .iter()
                    .filter(|&&r| terms.iter().all(|&(a, v)| ds.column(a)[r as usize] == v))
                    .count() as u64;
            }
            continue;
        }
        let mut counts: HashMap<Vec<u32>, u64> = members
            .iter()
            .map(|&i| (patterns[i].terms().map(|(_, v)| v).collect(), 0))
            .collect();
        let mut key = vec![0u32; attrs.len()];
        for r in 0..ds.n_rows() {
            for (k, col) in key.iter_mut().zip(&columns) {
                *k = col[r];
            }
            if let Some(c) = counts.get_mut(&key) {
                *c += 1;
            }
        }
        for i in members {
            let key: Vec<u32> = patterns[i].terms().map(|(_, v)| v).collect();
            out[i] = counts[&key];
        }
    }
    out
}

/// What the daemon must answer for one pattern.
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    pub value: f64,
    pub exact: bool,
    /// The true count (for the error metrics of Def. 2.13).
    pub truth: u64,
}

/// Expected answers for `patterns` against a label over `attrs` built
/// from `ds`. The true count of an estimated pattern is only needed for
/// the error metrics; without `truth_for_all` it is left at 0.
pub fn expected(
    ds: &Dataset,
    attrs: AttrSet,
    patterns: &[Terms],
    truth_for_all: bool,
) -> Vec<Expected> {
    let label = Label::build(ds, attrs);
    let resolved: Vec<Pattern> = patterns.iter().map(resolve).collect();
    let counted: Vec<usize> = (0..resolved.len())
        .filter(|&i| truth_for_all || resolved[i].attrs().is_subset_of(attrs))
        .collect();
    let subset: Vec<Pattern> = counted.iter().map(|&i| resolved[i].clone()).collect();
    let mut truth = vec![0u64; resolved.len()];
    for (i, c) in counted.into_iter().zip(exact_counts(ds, &subset)) {
        truth[i] = c;
    }
    resolved
        .iter()
        .zip(truth)
        .map(|(p, truth)| {
            let exact = p.attrs().is_subset_of(attrs);
            Expected {
                value: if exact {
                    truth as f64
                } else {
                    label.estimate(p)
                },
                exact,
                truth,
            }
        })
        .collect()
}

/// The attribute set named by a response's `label_attrs`.
pub fn attrs_of(ds: &Dataset, names: &[String]) -> Result<AttrSet, String> {
    let mut set = AttrSet::EMPTY;
    for n in names {
        let i = ds
            .schema()
            .index_of(n)
            .ok_or_else(|| format!("unknown label attribute {n:?}"))?;
        set = set.insert(i);
    }
    Ok(set)
}

pub fn string_list(json: Option<&Json>) -> Vec<String> {
    json.and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|j| j.as_str().map(str::to_string))
        .collect()
}

/// Checks a `query` response against the expected answers (in order) and,
/// when given, the row count the response must report.
pub fn check_query(resp: &Json, want: &[&Expected], rows: Option<u64>) -> Result<(), String> {
    if !crate::wire::ok(resp) {
        return Err(format!("query failed: {resp}"));
    }
    if let Some(rows) = rows {
        let got = resp.get("rows").and_then(Json::as_u64);
        if got != Some(rows) {
            return Err(format!("query reports rows {got:?}, acked rows are {rows}"));
        }
    }
    let results = resp
        .get("results")
        .and_then(Json::as_array)
        .ok_or("query response has no results")?;
    if results.len() != want.len() {
        return Err(format!(
            "{} results for {} patterns",
            results.len(),
            want.len()
        ));
    }
    for (i, (r, w)) in results.iter().zip(want).enumerate() {
        let got = r.get("estimate").and_then(Json::as_f64);
        let exact = r.get("exact").and_then(Json::as_bool);
        if got.map(f64::to_bits) != Some(w.value.to_bits()) || exact != Some(w.exact) {
            return Err(format!(
                "pattern {i}: got estimate {got:?} exact {exact:?}, want {} exact {}",
                w.value, w.exact
            ));
        }
    }
    Ok(())
}

/// Max and mean |estimate − exact| (Def. 2.13) over checked answers.
pub fn errors(answers: &[Expected]) -> (f64, f64) {
    let mut max: f64 = 0.0;
    let mut sum = 0.0;
    for a in answers {
        let e = (a.value - a.truth as f64).abs();
        max = max.max(e);
        sum += e;
    }
    (max, sum / answers.len().max(1) as f64)
}
