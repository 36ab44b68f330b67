//! Seeded inputs: the paper-shaped datasets, append batches and query
//! patterns. The daemon only ever receives the CSV text, row arrays and
//! pattern objects built here.

use pclabel_data::csv::{read_dataset_from_str, write_csv, CsvOptions, CsvWriteOptions};
use pclabel_data::dataset::{Dataset, MISSING};
use pclabel_data::generate::{
    bluenile, compas, creditcard, BlueNileConfig, CompasConfig, CreditCardConfig,
};
use pclabel_engine::json::Json;

use crate::util::Rng;

/// Rows per `append_rows` request in every workload.
pub const APPEND_ROWS: usize = 100;

/// A query pattern of at most four `(attribute, value id)` terms,
/// ascending by attribute. Value ids are those of the registration CSV's
/// parse; appends only add ids, so they stay valid as the data grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Terms {
    len: u8,
    terms: [(u8, u32); 4],
}

impl Terms {
    fn new(terms: impl Iterator<Item = (usize, u32)>) -> Terms {
        let mut out = Terms {
            len: 0,
            terms: [(0, 0); 4],
        };
        for (a, v) in terms {
            out.terms[out.len as usize] = (a as u8, v);
            out.len += 1;
        }
        out
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.terms[..self.len as usize]
            .iter()
            .map(|&(a, v)| (a as usize, v))
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    BlueNile,
    Compas,
    CreditCard,
}

impl Shape {
    pub fn rows(self) -> usize {
        match self {
            Shape::BlueNile => 116_300,
            Shape::Compas => 60_843,
            Shape::CreditCard => 30_000,
        }
    }

    fn generate(self, n_rows: usize, seed: u64) -> Dataset {
        match self {
            Shape::BlueNile => bluenile(&BlueNileConfig { n_rows, seed }),
            Shape::Compas => compas(&CompasConfig { n_rows, seed }),
            Shape::CreditCard => creditcard(&CreditCardConfig { n_rows, seed }),
        }
        .expect("generator config is valid")
    }
}

/// One dataset as the client sees it: the registration CSV, the parsed
/// copy the checks run against (parsed exactly as the daemon parses it),
/// and fresh rows for later appends.
#[derive(Clone)]
pub struct Source {
    pub csv: String,
    pub base: Dataset,
    pub fresh: Vec<Vec<Option<String>>>,
}

impl Source {
    pub fn new(shape: Shape, fresh_rows: usize, seed: u64) -> Source {
        let n = shape.rows();
        let full = shape.generate(n + fresh_rows, seed);
        let head: Vec<usize> = (0..n).collect();
        let csv = write_csv(&full.take_rows(&head), &CsvWriteOptions::default());
        let base = read_dataset_from_str(&csv, &CsvOptions::default()).expect("own CSV parses");
        let fresh = (n..n + fresh_rows)
            .map(|r| {
                (0..full.n_attrs())
                    .map(|a| match full.value_raw(r, a) {
                        MISSING => None,
                        id => Some(full.label_of(a, id).to_string()),
                    })
                    .collect()
            })
            .collect();
        Source { csv, base, fresh }
    }

    pub fn attr_index(&self, name: &str) -> usize {
        self.base
            .schema()
            .index_of(name)
            .unwrap_or_else(|| panic!("attribute {name:?} in generated schema"))
    }
}

/// Draws a pattern of `k ≤ 4` attributes from `pool`. With `Rows::Same`
/// the values are one random row's (the pattern occurs in the data, and
/// missing cells are skipped, so it can be shorter than `k`); with
/// `Rows::Uniform` each value is uniform over the attribute's domain, so
/// combinations need not occur and the pattern universe is large.
fn draw_pattern(ds: &Dataset, rows: Rows, pool: &[usize], k: usize, rng: &mut Rng) -> Terms {
    let (picks, len) = rng.choose4(pool.len(), k);
    let r = rng.below(ds.n_rows());
    Terms::new(picks[..len].iter().filter_map(|&i| {
        let a = pool[i];
        let id = match rows {
            Rows::Same => ds.value_raw(r, a),
            Rows::Uniform => {
                let card = ds.schema().attr(a).expect("attr").cardinality();
                rng.below(card.max(1)) as u32
            }
        };
        (id != MISSING).then_some((a, id))
    }))
}

#[derive(Debug, Clone, Copy)]
pub enum Rows {
    Same,
    Uniform,
}

/// Distinct non-empty patterns drawn from `ds`'s rows (see
/// [`draw_pattern`]). Attribute subsets come from `label_attrs` with
/// probability `exact_share` (answered exactly by a label over those
/// attributes), otherwise from all attributes; sizes are uniform in
/// `sizes`.
pub fn pattern_pool(
    ds: &Dataset,
    rows: Rows,
    count: usize,
    sizes: std::ops::RangeInclusive<usize>,
    label_attrs: &[usize],
    exact_share: f64,
    rng: &mut Rng,
) -> Vec<Terms> {
    let all: Vec<usize> = (0..ds.n_attrs()).collect();
    let mut seen: std::collections::HashSet<Terms, crate::util::FastBuild> =
        std::collections::HashSet::with_capacity_and_hasher(count * 2, Default::default());
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0usize;
    while out.len() < count {
        attempts += 1;
        assert!(
            attempts < count * 50,
            "pattern universe too small for {count} distinct patterns"
        );
        let k = *sizes.start() + rng.below(sizes.end() - sizes.start() + 1);
        let pool = if !label_attrs.is_empty() && rng.unit() < exact_share {
            label_attrs
        } else {
            &all[..]
        };
        let terms = draw_pattern(ds, rows, pool, k, rng);
        if !terms.is_empty() && seen.insert(terms) {
            out.push(terms);
        }
    }
    out
}

/// The wire form `{"attr": "value", ...}`; `ds` is any dataset whose
/// dictionaries hold the pattern's value ids.
pub fn pattern_json(ds: &Dataset, terms: &Terms) -> Json {
    Json::Obj(
        terms
            .iter()
            .map(|(a, v)| {
                let name = ds.schema().attr(a).expect("attr").name().to_string();
                (name, Json::str(ds.label_of(a, v)))
            })
            .collect(),
    )
}

pub fn query_line(dataset: &str, patterns: Vec<Json>) -> String {
    Json::obj([
        ("op", Json::str("query")),
        ("dataset", Json::str(dataset)),
        ("patterns", Json::Arr(patterns)),
    ])
    .to_string()
}

pub fn append_line(dataset: &str, rows: &[Vec<Option<String>>]) -> String {
    let rows = rows
        .iter()
        .map(|row| {
            Json::Arr(
                row.iter()
                    .map(|c| c.as_ref().map_or(Json::Null, Json::str))
                    .collect(),
            )
        })
        .collect();
    Json::obj([
        ("op", Json::str("append_rows")),
        ("dataset", Json::str(dataset)),
        ("rows", Json::Arr(rows)),
    ])
    .to_string()
}

/// `register` with either a search bound or fixed label attributes.
pub fn register_line(dataset: &str, csv: &str, policy: &Policy) -> String {
    let mut members = vec![
        ("op".to_string(), Json::str("register")),
        ("dataset".to_string(), Json::str(dataset)),
        ("csv".to_string(), Json::str(csv)),
    ];
    members.push(policy.member());
    Json::Obj(members).to_string()
}

pub fn refresh_line(dataset: &str, policy: &Policy) -> String {
    Json::Obj(vec![
        ("op".to_string(), Json::str("refresh")),
        ("dataset".to_string(), Json::str(dataset)),
        policy.member(),
    ])
    .to_string()
}

pub fn simple_line(op: &str, dataset: Option<&str>) -> String {
    let mut members = vec![("op".to_string(), Json::str(op))];
    if let Some(d) = dataset {
        members.push(("dataset".to_string(), Json::str(d)));
    }
    Json::Obj(members).to_string()
}

#[derive(Debug, Clone)]
pub enum Policy {
    Bound(u64),
    Attrs(Vec<String>),
}

impl Policy {
    fn member(&self) -> (String, Json) {
        match self {
            Policy::Bound(b) => ("bound".to_string(), Json::num(*b as f64)),
            Policy::Attrs(names) => (
                "label_attrs".to_string(),
                Json::Arr(names.iter().map(Json::str).collect()),
            ),
        }
    }
}
