//! Seeded TPC-H-like data generation.
//!
//! `lineitem` is MDC-clustered on `shipmonth` (month 0 is the oldest of
//! `months` months — the warehouse keeps 7 years of history, and the
//! analysts' queries concentrate on the most recent year, exactly the
//! hotspot scenario of the papers' introduction). Rows are generated in
//! random ship-month order so that the cells' blocks interleave on disk,
//! which is what makes a key-ordered block index scan pay seeks.

use scanshare_engine::Database;
use scanshare_prng::Rng;
use scanshare_relstore::{ColType, Column, Schema, Value};

/// Column indexes of the `lineitem` table.
pub mod lineitem_cols {
    /// `l_orderkey: Int64`
    pub const ORDERKEY: usize = 0;
    /// `l_quantity: Float64`
    pub const QUANTITY: usize = 1;
    /// `l_extendedprice: Float64`
    pub const EXTENDEDPRICE: usize = 2;
    /// `l_discount: Float64`
    pub const DISCOUNT: usize = 3;
    /// `l_tax: Float64`
    pub const TAX: usize = 4;
    /// `l_shipdate: Int32` (day number since epoch of month 0)
    pub const SHIPDATE: usize = 5;
    /// `l_returnflag: Char`
    pub const RETURNFLAG: usize = 6;
    /// `l_linestatus: Char`
    pub const LINESTATUS: usize = 7;
    /// `l_shipmonth: Int32` — the MDC clustering key
    pub const SHIPMONTH: usize = 8;
}

/// Column indexes of the `orders` table.
pub mod orders_cols {
    /// `o_orderkey: Int64`
    pub const ORDERKEY: usize = 0;
    /// `o_custkey: Int64`
    pub const CUSTKEY: usize = 1;
    /// `o_totalprice: Float64`
    pub const TOTALPRICE: usize = 2;
    /// `o_ordermonth: Int32`
    pub const ORDERMONTH: usize = 3;
}

/// Column indexes of the `part` table.
pub mod part_cols {
    /// `p_partkey: Int64`
    pub const PARTKEY: usize = 0;
    /// `p_size: Int32`
    pub const SIZE: usize = 1;
    /// `p_retailprice: Float64`
    pub const RETAILPRICE: usize = 2;
}

/// Column indexes of the `customer` table.
pub mod customer_cols {
    /// `c_custkey: Int64`
    pub const CUSTKEY: usize = 0;
    /// `c_nationkey: Int32`
    pub const NATIONKEY: usize = 1;
    /// `c_acctbal: Float64`
    pub const ACCTBAL: usize = 2;
}

/// Generator configuration.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TpchConfig {
    /// Scale factor: 1.0 generates ~600k lineitem rows (~4k pages).
    pub scale: f64,
    /// Months of history (the papers' scenario keeps 7 years = 84).
    pub months: u32,
    /// Pages per MDC block (the papers use 16).
    pub block_pages: u32,
    /// Generator seed.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale: 1.0,
            months: 84,
            block_pages: 16,
            seed: 42,
        }
    }
}

impl TpchConfig {
    /// A small configuration for fast tests.
    pub fn tiny() -> Self {
        TpchConfig {
            scale: 0.05,
            months: 24,
            block_pages: 4,
            seed: 7,
        }
    }

    /// Lineitem rows at this scale.
    pub fn lineitem_rows(&self) -> u64 {
        (600_000.0 * self.scale) as u64
    }

    /// Orders rows at this scale.
    pub fn orders_rows(&self) -> u64 {
        (150_000.0 * self.scale) as u64
    }

    /// Part rows at this scale.
    pub fn part_rows(&self) -> u64 {
        (120_000.0 * self.scale) as u64
    }

    /// Customer rows at this scale.
    pub fn customer_rows(&self) -> u64 {
        (150_000.0 * self.scale) as u64
    }

    /// The most recent month (the hotspot's upper cell key).
    pub fn last_month(&self) -> i64 {
        self.months as i64 - 1
    }
}

/// The `lineitem` schema.
pub fn lineitem_schema() -> Schema {
    Schema::new(vec![
        Column::new("l_orderkey", ColType::Int64),
        Column::new("l_quantity", ColType::Float64),
        Column::new("l_extendedprice", ColType::Float64),
        Column::new("l_discount", ColType::Float64),
        Column::new("l_tax", ColType::Float64),
        Column::new("l_shipdate", ColType::Int32),
        Column::new("l_returnflag", ColType::Char),
        Column::new("l_linestatus", ColType::Char),
        Column::new("l_shipmonth", ColType::Int32),
    ])
}

/// The `orders` schema.
pub fn orders_schema() -> Schema {
    Schema::new(vec![
        Column::new("o_orderkey", ColType::Int64),
        Column::new("o_custkey", ColType::Int64),
        Column::new("o_totalprice", ColType::Float64),
        Column::new("o_ordermonth", ColType::Int32),
    ])
}

/// The `part` schema.
pub fn part_schema() -> Schema {
    Schema::new(vec![
        Column::new("p_partkey", ColType::Int64),
        Column::new("p_size", ColType::Int32),
        Column::new("p_retailprice", ColType::Float64),
    ])
}

/// The `customer` schema.
pub fn customer_schema() -> Schema {
    Schema::new(vec![
        Column::new("c_custkey", ColType::Int64),
        Column::new("c_nationkey", ColType::Int32),
        Column::new("c_acctbal", ColType::Float64),
    ])
}

/// Generate the database.
pub fn generate(cfg: &TpchConfig) -> Database {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut db = Database::new(cfg.block_pages.max(16));

    // lineitem: MDC on shipmonth, inserted in random month order.
    let months = cfg.months.max(1) as i64;
    let n_li = cfg.lineitem_rows();
    let flags = [b'A', b'N', b'R'];
    let statuses = [b'F', b'O'];
    let li_rows = (0..n_li).map(|i| {
        let month = rng.random_range(0..months);
        let day = month as i32 * 30 + rng.random_range(0..30);
        let qty = rng.random_range(1..=50) as f64;
        let price = qty * rng.random_range(900.0..=10_000.0_f64) / 10.0;
        let row = [
            Value::I64(i as i64 / 4),
            Value::F64(qty),
            Value::F64((price * 100.0).round() / 100.0),
            Value::F64(rng.random_range(0..=10) as f64 / 100.0),
            Value::F64(rng.random_range(0..=8) as f64 / 100.0),
            Value::I32(day),
            Value::Ch(flags[rng.random_range(0..flags.len())]),
            Value::Ch(statuses[rng.random_range(0..statuses.len())]),
            Value::I32(month as i32),
        ];
        (month, row)
    });
    db.create_mdc_table("lineitem", lineitem_schema(), cfg.block_pages, li_rows)
        .expect("lineitem load");

    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x6f72646572);
    let n_orders = cfg.orders_rows();
    let orders_rows = (0..n_orders).map(|i| {
        [
            Value::I64(i as i64),
            Value::I64(rng.random_range(0..cfg.customer_rows().max(1)) as i64),
            Value::F64(rng.random_range(1000.0..500_000.0_f64)),
            Value::I32(rng.random_range(0..months) as i32),
        ]
    });
    db.create_heap_table("orders", orders_schema(), orders_rows)
        .expect("orders load");

    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x70617274);
    let part_rows = (0..cfg.part_rows()).map(|i| {
        [
            Value::I64(i as i64),
            Value::I32(rng.random_range(1..=50)),
            Value::F64(rng.random_range(900.0..2000.0_f64)),
        ]
    });
    db.create_heap_table("part", part_schema(), part_rows)
        .expect("part load");

    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x63757374);
    let cust_rows = (0..cfg.customer_rows()).map(|i| {
        [
            Value::I64(i as i64),
            Value::I32(rng.random_range(0..25)),
            Value::F64(rng.random_range(-999.0..10_000.0_f64)),
        ]
    });
    db.create_heap_table("customer", customer_schema(), cust_rows)
        .expect("customer load");

    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_database_has_all_tables() {
        let cfg = TpchConfig::tiny();
        let db = generate(&cfg);
        assert_eq!(
            db.table_names(),
            vec!["customer", "lineitem", "orders", "part"]
        );
        assert_eq!(
            db.table("lineitem").unwrap().num_rows(),
            cfg.lineitem_rows()
        );
        assert_eq!(db.table("orders").unwrap().num_rows(), cfg.orders_rows());
        let li = db.table("lineitem").unwrap().as_mdc().unwrap();
        assert_eq!(li.block_pages, cfg.block_pages);
        assert!(li.min_key >= 0);
        assert_eq!(li.max_key, cfg.last_month());
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TpchConfig::tiny();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(
            a.table("lineitem").unwrap().num_pages(),
            b.table("lineitem").unwrap().num_pages()
        );
        // Spot-check identical bytes on a few pages.
        let f = a.table("lineitem").unwrap().file();
        for p in [0u32, 7, 19] {
            let pa = a
                .store()
                .read_page(scanshare_storage::PageId::new(f, p))
                .unwrap();
            let pb = b
                .store()
                .read_page(scanshare_storage::PageId::new(f, p))
                .unwrap();
            assert_eq!(pa, pb, "page {p} differs");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TpchConfig::tiny());
        let b = generate(&TpchConfig {
            seed: 8,
            ..TpchConfig::tiny()
        });
        let fa = a.table("lineitem").unwrap().file();
        let fb = b.table("lineitem").unwrap().file();
        let pa = a
            .store()
            .read_page(scanshare_storage::PageId::new(fa, 0))
            .unwrap();
        let pb = b
            .store()
            .read_page(scanshare_storage::PageId::new(fb, 0))
            .unwrap();
        assert_ne!(pa, pb);
    }

    #[test]
    fn months_are_spread_across_cells() {
        let cfg = TpchConfig::tiny();
        let db = generate(&cfg);
        let li = db.table("lineitem").unwrap().as_mdc().unwrap();
        for month in 0..cfg.months as i64 {
            let blocks = li.blocks_for_range(db.store(), month, month).unwrap();
            assert!(!blocks.is_empty(), "month {month} has no blocks");
        }
    }
}
