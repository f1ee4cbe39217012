//! Runtime values with SQLite-flavoured dynamic typing.
//!
//! Values are `NULL`, 64-bit integers, 64-bit floats, or text. Comparison
//! and arithmetic follow SQLite's affinity rules closely enough for the
//! benchmark workloads: numeric types compare across Int/Real, NULL sorts
//! first and never equals anything under predicate evaluation (three-valued
//! logic lives in the evaluator; [`Value::sql_cmp`] is the deterministic
//! total order used for ORDER BY and DISTINCT).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A runtime SQL value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Real(f64),
    /// UTF-8 text.
    Text(String),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// Is this NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Human-readable type name, for ingest-validation error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Real(_) => "real",
            Value::Text(_) => "text",
        }
    }

    /// Numeric view: Int and Real yield a float; text parses if numeric
    /// (SQLite affinity); NULL and non-numeric text yield `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Real(v) => Some(*v),
            Value::Text(s) => s.trim().parse::<f64>().ok(),
            Value::Null => None,
        }
    }

    /// SQL truthiness: NULL → None (unknown), numbers → non-zero,
    /// text → parses-to-nonzero (SQLite semantics).
    pub fn truth(&self) -> Option<bool> {
        match self {
            Value::Null => None,
            Value::Int(v) => Some(*v != 0),
            Value::Real(v) => Some(*v != 0.0),
            Value::Text(s) => Some(s.trim().parse::<f64>().map(|v| v != 0.0).unwrap_or(false)),
        }
    }

    /// Deterministic total order for sorting / DISTINCT / grouping:
    /// NULL < numbers < text; numbers compare numerically across Int/Real;
    /// NaN sorts before all other reals.
    pub fn sql_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Int(_) | Real(_) => 1,
                Text(_) => 2,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Int(a), Real(b)) => cmp_f64(*a as f64, *b),
            (Real(a), Int(b)) => cmp_f64(*a, *b as f64),
            (Real(a), Real(b)) => cmp_f64(*a, *b),
            (Text(a), Text(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// Three-valued SQL equality for predicates: `None` when either side is
    /// NULL, otherwise whether the values compare equal (numeric across
    /// Int/Real; text equality is exact).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.sql_cmp(other) == Ordering::Equal)
    }

    /// Three-valued SQL ordering comparison for predicates; `None` when
    /// either side is NULL or the types are incomparable in a meaningful way
    /// (number vs text compares by type rank, as SQLite does, so it still
    /// yields a result).
    pub fn sql_ord(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.sql_cmp(other))
    }

    /// Render the value the way a result cell prints (NULL as empty marker).
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(v) => v.to_string(),
            Value::Real(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    v.to_string()
                }
            }
            Value::Text(s) => s.clone(),
        }
    }

    /// Canonical key for hashing/equivalence in multiset comparison: floats
    /// that hold integral values collapse to the integer representation so
    /// `1` and `1.0` compare equal, mirroring the Spider execution-match
    /// convention.
    pub fn canonical_key(&self) -> String {
        match self {
            Value::Null => "\u{0}NULL".to_string(),
            Value::Int(v) => format!("n:{v}"),
            Value::Real(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 9e15 {
                    format!("n:{}", *v as i64)
                } else {
                    // round to 1e-6 to absorb float noise across plans
                    format!("r:{:.6}", v)
                }
            }
            Value::Text(s) => format!("t:{s}"),
        }
    }

    /// Structured hash/equality key with exactly the [`Value::canonical_key`]
    /// equivalence classes, but without the string round-trip — and, when
    /// collected into a `Vec<KeyPart>` row key, without the separator-byte
    /// collision a joined string key has (a text value containing the
    /// separator could previously merge two distinct rows).
    pub fn key_part(&self) -> KeyPart {
        match self {
            Value::Null => KeyPart::Null,
            Value::Int(v) => KeyPart::Num(*v),
            Value::Real(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 9e15 {
                    KeyPart::Num(*v as i64)
                } else {
                    // same 1e-6 rounding as the canonical string key so the
                    // equivalence classes stay byte-for-byte identical
                    KeyPart::Real(format!("{v:.6}"))
                }
            }
            Value::Text(s) => KeyPart::Text(s.clone()),
        }
    }
}

/// One component of a structured row key: the hashable canonicalization of a
/// single [`Value`]. A whole row keys as `Vec<KeyPart>`, which is collision
/// free by construction (no in-band separator).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyPart {
    /// NULL (all NULLs group together under grouping/DISTINCT semantics).
    Null,
    /// Integers and integral floats, collapsed (`1` ≡ `1.0`).
    Num(i64),
    /// Non-integral floats, canonicalized to 6 decimal places.
    Real(String),
    /// Text, kept distinct from numbers (`1` ≢ `'1'`).
    Text(String),
}

/// Structured key for a whole row.
pub fn row_key_parts(row: &[Value]) -> Vec<KeyPart> {
    row.iter().map(Value::key_part).collect()
}

/// Fibonacci-multiplicative hasher for trusted in-memory keys (raw `i64`
/// cells, [`KeyPart`] rows). std's SipHash is DoS-hardened but costs tens
/// of ns per key, which dominates tight grouping / dedup / join-build
/// loops over engine-owned data. Only bucket placement depends on the
/// hasher — every caller preserves first-encounter order and never
/// iterates the map — so swapping it is unobservable in results.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn mix(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 29);
    }
}

impl std::hash::Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8-byte chunks")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // length in the top byte so "ab" and "ab\0" stay distinct
            tail[7] = rest.len() as u8;
            self.mix(u64::from_le_bytes(tail));
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.mix(n as u64);
    }
}

/// `HashMap`/`HashSet` state plugging in [`KeyHasher`].
pub(crate) type KeyHashBuilder = std::hash::BuildHasherDefault<KeyHasher>;

fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| {
        // NaN sorts before everything
        match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => unreachable!(),
        }
    })
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.sql_cmp(other) == Ordering::Equal
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_ordering() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), Ordering::Equal);
        assert_eq!(Value::text("a").sql_cmp(&Value::Int(99)), Ordering::Greater);
    }

    #[test]
    fn numeric_cross_type_compare() {
        assert_eq!(Value::Int(2).sql_cmp(&Value::Real(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).sql_cmp(&Value::Real(2.5)), Ordering::Less);
        assert!(Value::Int(2) == Value::Real(2.0));
    }

    #[test]
    fn three_valued_eq() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::text("a").sql_eq(&Value::text("b")), Some(false));
    }

    #[test]
    fn truthiness() {
        assert_eq!(Value::Int(0).truth(), Some(false));
        assert_eq!(Value::Int(3).truth(), Some(true));
        assert_eq!(Value::Null.truth(), None);
        assert_eq!(Value::text("2").truth(), Some(true));
        assert_eq!(Value::text("abc").truth(), Some(false));
    }

    #[test]
    fn text_numeric_affinity() {
        assert_eq!(Value::text(" 3.5 ").as_f64(), Some(3.5));
        assert_eq!(Value::text("x").as_f64(), None);
    }

    #[test]
    fn canonical_key_collapses_integral_floats() {
        assert_eq!(Value::Int(1).canonical_key(), Value::Real(1.0).canonical_key());
        assert_ne!(Value::Int(1).canonical_key(), Value::Real(1.5).canonical_key());
        assert_ne!(Value::Int(1).canonical_key(), Value::text("1").canonical_key());
    }

    #[test]
    fn nan_sorts_first_among_reals() {
        assert_eq!(Value::Real(f64::NAN).sql_cmp(&Value::Real(0.0)), Ordering::Less);
        assert_eq!(Value::Real(f64::NAN).sql_cmp(&Value::Real(f64::NAN)), Ordering::Equal);
    }

    #[test]
    fn render() {
        assert_eq!(Value::Real(2.0).render(), "2.0");
        assert_eq!(Value::Int(7).render(), "7");
        assert_eq!(Value::Null.render(), "NULL");
    }

    #[test]
    fn key_part_matches_canonical_key_classes() {
        let samples = [
            Value::Null,
            Value::Int(1),
            Value::Int(-7),
            Value::Real(1.0),
            Value::Real(1.5),
            Value::Real(0.000_000_4),
            Value::Real(-0.0),
            Value::text("1"),
            Value::text("a"),
            Value::text(""),
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(
                    a.key_part() == b.key_part(),
                    a.canonical_key() == b.canonical_key(),
                    "class mismatch for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn structured_row_key_has_no_separator_collision() {
        // the old "\u{1}"-joined key merged these two distinct rows
        let a = vec![Value::text("x\u{1}t:y"), Value::text("z")];
        let b = vec![Value::text("x"), Value::text("y\u{1}t:z")];
        assert_ne!(row_key_parts(&a), row_key_parts(&b));
    }
}
