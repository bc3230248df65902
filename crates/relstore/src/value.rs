//! Column types, schemas, and a fixed-width row codec.
//!
//! Rows are encoded at fixed per-column offsets so that the scan operators
//! can evaluate predicates through a zero-copy [`RowRef`] without decoding
//! the whole tuple — page processing cost is dominated by the simulated
//! CPU model, not by the host's allocator.

use std::fmt;

/// The column types supported by the mini engine. All are fixed width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 64-bit signed integer (keys, counts).
    Int64,
    /// 32-bit signed integer (dates encoded as days/months).
    Int32,
    /// 64-bit float (prices, quantities).
    Float64,
    /// Single ASCII character (flags).
    Char,
}

impl ColType {
    /// Encoded width in bytes.
    pub const fn width(self) -> usize {
        match self {
            ColType::Int64 => 8,
            ColType::Int32 => 4,
            ColType::Float64 => 8,
            ColType::Char => 1,
        }
    }
}

/// A typed value, used on the write path and in tests. The read path uses
/// [`RowRef`] accessors instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    I64(i64),
    /// 32-bit integer.
    I32(i32),
    /// 64-bit float.
    F64(f64),
    /// Single character.
    Ch(u8),
}

impl Value {
    /// The type this value encodes as.
    pub fn col_type(&self) -> ColType {
        match self {
            Value::I64(_) => ColType::Int64,
            Value::I32(_) => ColType::Int32,
            Value::F64(_) => ColType::Float64,
            Value::Ch(_) => ColType::Char,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I64(v) => write!(f, "{v}"),
            Value::I32(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Ch(v) => write!(f, "{}", *v as char),
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ColType,
}

impl Column {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: ColType) -> Self {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered set of columns with precomputed encoding offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    cols: Vec<Column>,
    offsets: Vec<usize>,
    row_width: usize,
}

impl Schema {
    /// Build a schema from columns, computing fixed offsets.
    pub fn new(cols: Vec<Column>) -> Self {
        let mut offsets = Vec::with_capacity(cols.len());
        let mut off = 0usize;
        for c in &cols {
            offsets.push(off);
            off += c.ty.width();
        }
        Schema {
            cols,
            offsets,
            row_width: off,
        }
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// Width of an encoded row in bytes.
    pub fn row_width(&self) -> usize {
        self.row_width
    }

    /// Byte offset of column `idx` within an encoded row.
    pub fn offset(&self, idx: usize) -> usize {
        self.offsets[idx]
    }

    /// Encode a row of values into `out`. Panics if the values do not
    /// match the schema (this is a load-time API; loads are trusted).
    pub fn encode_row(&self, values: &[Value], out: &mut [u8]) {
        assert_eq!(values.len(), self.cols.len(), "arity mismatch");
        assert!(out.len() >= self.row_width, "output buffer too small");
        for (i, v) in values.iter().enumerate() {
            assert_eq!(v.col_type(), self.cols[i].ty, "type mismatch in col {i}");
            let off = self.offsets[i];
            match *v {
                Value::I64(x) => out[off..off + 8].copy_from_slice(&x.to_le_bytes()),
                Value::I32(x) => out[off..off + 4].copy_from_slice(&x.to_le_bytes()),
                Value::F64(x) => out[off..off + 8].copy_from_slice(&x.to_le_bytes()),
                Value::Ch(x) => out[off] = x,
            }
        }
    }
}

/// A zero-copy view over one encoded row.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    /// The encoded row bytes (at least `schema.row_width()` long).
    pub bytes: &'a [u8],
    /// The schema describing the encoding.
    pub schema: &'a Schema,
}

impl<'a> RowRef<'a> {
    /// Read an `Int64` column.
    #[inline]
    pub fn get_i64(&self, col: usize) -> i64 {
        let off = self.schema.offset(col);
        i64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Read an `Int32` column.
    #[inline]
    pub fn get_i32(&self, col: usize) -> i32 {
        let off = self.schema.offset(col);
        i32::from_le_bytes(self.bytes[off..off + 4].try_into().unwrap())
    }

    /// Read a `Float64` column.
    #[inline]
    pub fn get_f64(&self, col: usize) -> f64 {
        let off = self.schema.offset(col);
        f64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Read a `Char` column.
    #[inline]
    pub fn get_char(&self, col: usize) -> u8 {
        self.bytes[self.schema.offset(col)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lineitem_like() -> Schema {
        Schema::new(vec![
            Column::new("orderkey", ColType::Int64),
            Column::new("quantity", ColType::Float64),
            Column::new("shipdate", ColType::Int32),
            Column::new("returnflag", ColType::Char),
        ])
    }

    #[test]
    fn offsets_are_packed() {
        let s = lineitem_like();
        assert_eq!(s.offset(0), 0);
        assert_eq!(s.offset(1), 8);
        assert_eq!(s.offset(2), 16);
        assert_eq!(s.offset(3), 20);
        assert_eq!(s.row_width(), 21);
    }

    #[test]
    fn row_ref_accessors_read_in_place() {
        let s = lineitem_like();
        let mut buf = vec![0u8; s.row_width()];
        s.encode_row(
            &[
                Value::I64(7),
                Value::F64(1.5),
                Value::I32(99),
                Value::Ch(b'A'),
            ],
            &mut buf,
        );
        let r = RowRef {
            bytes: &buf,
            schema: &s,
        };
        assert_eq!(r.get_i64(0), 7);
        assert_eq!(r.get_f64(1), 1.5);
        assert_eq!(r.get_i32(2), 99);
        assert_eq!(r.get_char(3), b'A');
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn encode_wrong_arity_panics() {
        let s = lineitem_like();
        let mut buf = vec![0u8; s.row_width()];
        s.encode_row(&[Value::I64(1)], &mut buf);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn encode_wrong_type_panics() {
        let s = lineitem_like();
        let mut buf = vec![0u8; s.row_width()];
        s.encode_row(
            &[
                Value::I32(1),
                Value::F64(0.0),
                Value::I32(0),
                Value::Ch(b'x'),
            ],
            &mut buf,
        );
    }
}
