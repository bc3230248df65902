//! Query descriptions: scans, predicates, aggregates.
//!
//! Queries in this engine are what the papers' workload needs them to be:
//! one or more scans, each with a row predicate, an aggregation, and a
//! CPU class. That covers TPC-H Q1/Q6 faithfully and parameterizes the
//! remaining templates.

use scanshare_relstore::RowRef;
use serde::{Deserialize, Serialize};

use crate::cost::CpuClass;

/// How a scan accesses its table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Access {
    /// Sequential scan over every page of a heap or MDC table.
    FullTable,
    /// Block index scan over clustering-key cells in `[lo, hi]`.
    IndexRange {
        /// Lowest cell key, inclusive.
        lo: i64,
        /// Highest cell key, inclusive.
        hi: i64,
    },
    /// RID index scan: traverse the secondary index over `[lo, hi]` and
    /// fetch each qualifying row by RID. Keys come back in order, but
    /// the underlying heap pages do not (§3.2 of the paper) — this is
    /// the seek-heavy general case of index scans.
    RidRange {
        /// Lowest key, inclusive.
        lo: i64,
        /// Highest key, inclusive.
        hi: i64,
    },
}

/// A row predicate. Column indexes refer to the table schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Pred {
    /// Every row qualifies.
    True,
    /// `lo <= int32_col <= hi`.
    I32Between(usize, i32, i32),
    /// `float_col < x`.
    F64LessThan(usize, f64),
    /// `char_col == c`.
    CharEq(usize, u8),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
}

impl Pred {
    /// Evaluate against a row.
    pub fn eval(&self, row: &RowRef<'_>) -> bool {
        match self {
            Pred::True => true,
            Pred::I32Between(col, lo, hi) => {
                let v = row.get_i32(*col);
                *lo <= v && v <= *hi
            }
            Pred::F64LessThan(col, x) => row.get_f64(*col) < *x,
            Pred::CharEq(col, c) => row.get_char(*col) == *c,
            Pred::And(a, b) => a.eval(row) && b.eval(row),
        }
    }
}

/// What to aggregate over qualifying rows.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AggSpec {
    /// Float columns to sum.
    pub sum_cols: Vec<usize>,
    /// `Char` columns to group by (packed into one group key, one byte
    /// per column — TPC-H Q1's `GROUP BY l_returnflag, l_linestatus`).
    /// Empty = a single global group.
    #[serde(default)]
    pub group_by: Vec<usize>,
}

impl AggSpec {
    /// Count-only aggregation.
    pub fn count_only() -> Self {
        AggSpec {
            sum_cols: vec![],
            group_by: vec![],
        }
    }

    /// Sum the given float columns.
    pub fn sums(cols: Vec<usize>) -> Self {
        AggSpec {
            sum_cols: cols,
            group_by: vec![],
        }
    }

    /// Sum the given float columns per group of the given `Char` columns.
    pub fn grouped_sums(cols: Vec<usize>, group_by: Vec<usize>) -> Self {
        AggSpec {
            sum_cols: cols,
            group_by,
        }
    }

    /// Pack a row's group-by values into one key (one byte per column:
    /// a scan refuses more than eight).
    pub fn group_key(&self, row: &RowRef<'_>) -> i64 {
        let mut key = 0i64;
        for &col in &self.group_by {
            key = (key << 8) | row.get_char(col) as i64;
        }
        key
    }
}

/// Per-group aggregation state.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GroupAgg {
    /// Qualifying rows in the group.
    pub count: u64,
    /// Column sums, in `sum_cols` order.
    pub sums: Vec<f64>,
}

/// One scan of a query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScanSpec {
    /// Name of the table to scan.
    pub table: String,
    /// Access path.
    pub access: Access,
    /// Row predicate.
    pub pred: Pred,
    /// Aggregation over qualifying rows.
    pub agg: AggSpec,
    /// CPU weight of the scan.
    pub cpu: CpuClass,
    /// The plan requires rows in key order (e.g. to feed a merge join or
    /// an ordered group-by). §4.1 of the paper: "if the query optimizer
    /// decides to use an index scan for getting records ordered on the
    /// index key value, it can only use IXSCANs" — ordered scans never
    /// participate in sharing, because a SISCAN's two-phase traversal
    /// breaks key order.
    #[serde(default)]
    pub require_order: bool,
    /// Importance of the owning query, forwarded to the sharing manager
    /// for the dynamic-fairness extension.
    #[serde(default)]
    pub query_priority: scanshare::QueryPriority,
    /// Execute the scan this many times back to back (default 1). Models
    /// the inner of a nested-loop join, which §6.1 of the paper calls
    /// out as a scan "repeated multiple times" — a prime target for the
    /// last-finished-scan placement.
    #[serde(default = "default_repeat")]
    pub repeat: u32,
}

fn default_repeat() -> u32 {
    1
}

/// A named query: its scans run sequentially.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Query {
    /// Query name (e.g. "Q6").
    pub name: String,
    /// The scans, executed in order.
    pub scans: Vec<ScanSpec>,
}

impl Query {
    /// A single-scan query.
    pub fn single(name: impl Into<String>, scan: ScanSpec) -> Self {
        Query {
            name: name.into(),
            scans: vec![scan],
        }
    }
}

/// The numeric answer of a query — used to assert that base and
/// scan-sharing runs compute identical results.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct QueryResult {
    /// Rows that qualified, across all scans.
    pub count: u64,
    /// Column sums, concatenated across scans in scan order.
    pub sums: Vec<f64>,
    /// Per-group aggregates, sorted by group key (empty unless a scan
    /// grouped). Keys from different scans are merged.
    #[serde(default)]
    pub groups: Vec<(i64, GroupAgg)>,
}

impl QueryResult {
    /// Merge another scan's result into this query result.
    pub fn absorb(&mut self, other: QueryResult) {
        self.count += other.count;
        self.sums.extend(other.sums);
        for (key, agg) in other.groups {
            match self.groups.binary_search_by_key(&key, |g| g.0) {
                Ok(i) => {
                    self.groups[i].1.count += agg.count;
                    if self.groups[i].1.sums.len() == agg.sums.len() {
                        for (a, b) in self.groups[i].1.sums.iter_mut().zip(&agg.sums) {
                            *a += b;
                        }
                    } else {
                        self.groups[i].1.sums.extend(agg.sums);
                    }
                }
                Err(i) => self.groups.insert(i, (key, agg)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_relstore::{ColType, Column, Schema, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", ColType::Int32),
            Column::new("b", ColType::Float64),
            Column::new("c", ColType::Char),
        ])
    }

    fn row_bytes(s: &Schema, a: i32, b: f64, c: u8) -> Vec<u8> {
        let mut buf = vec![0u8; s.row_width()];
        s.encode_row(&[Value::I32(a), Value::F64(b), Value::Ch(c)], &mut buf);
        buf
    }

    #[test]
    fn predicates_evaluate() {
        let s = schema();
        let bytes = row_bytes(&s, 5, 2.5, b'R');
        let row = RowRef {
            bytes: &bytes,
            schema: &s,
        };
        assert!(Pred::True.eval(&row));
        assert!(Pred::I32Between(0, 0, 10).eval(&row));
        assert!(!Pred::I32Between(0, 6, 10).eval(&row));
        assert!(Pred::F64LessThan(1, 3.0).eval(&row));
        assert!(!Pred::F64LessThan(1, 2.5).eval(&row));
        assert!(Pred::CharEq(2, b'R').eval(&row));
        assert!(Pred::And(
            Box::new(Pred::I32Between(0, 5, 5)),
            Box::new(Pred::CharEq(2, b'R'))
        )
        .eval(&row));
        assert!(!Pred::And(
            Box::new(Pred::I32Between(0, 5, 5)),
            Box::new(Pred::CharEq(2, b'X'))
        )
        .eval(&row));
    }

    #[test]
    fn result_absorb_concatenates() {
        let mut r = QueryResult {
            count: 2,
            sums: vec![1.0],
            groups: vec![],
        };
        r.absorb(QueryResult {
            count: 3,
            sums: vec![4.0, 5.0],
            groups: vec![],
        });
        assert_eq!(r.count, 5);
        assert_eq!(r.sums, vec![1.0, 4.0, 5.0]);
    }

    #[test]
    fn group_keys_pack_chars() {
        let s = schema();
        let bytes = row_bytes(&s, 1, 0.0, b'R');
        let row = RowRef {
            bytes: &bytes,
            schema: &s,
        };
        let agg = AggSpec::grouped_sums(vec![1], vec![2, 2]);
        assert_eq!(agg.group_key(&row), ((b'R' as i64) << 8) | b'R' as i64);
        assert_eq!(AggSpec::sums(vec![1]).group_key(&row), 0);
    }

    #[test]
    fn absorb_merges_groups_by_key() {
        let g = |count, sums: Vec<f64>| GroupAgg { count, sums };
        let mut r = QueryResult {
            count: 1,
            sums: vec![],
            groups: vec![(1, g(1, vec![10.0])), (3, g(2, vec![30.0]))],
        };
        r.absorb(QueryResult {
            count: 2,
            sums: vec![],
            groups: vec![(1, g(4, vec![1.0])), (2, g(5, vec![2.0]))],
        });
        assert_eq!(r.groups.len(), 3);
        assert_eq!(r.groups[0], (1, g(5, vec![11.0])));
        assert_eq!(r.groups[1], (2, g(5, vec![2.0])));
        assert_eq!(r.groups[2], (3, g(2, vec![30.0])));
    }
}
