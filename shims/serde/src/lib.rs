//! Offline stand-in for the parts of `serde` 1.x this workspace uses.
//!
//! Instead of serde's visitor architecture, everything funnels through a
//! JSON-shaped [`Value`] tree: `Serialize` renders into a `Value`,
//! `Deserialize` rebuilds from one. `serde_json` (the sibling shim) maps
//! `Value` to and from JSON text. The derive macros re-exported here
//! generate the same data layout serde's derives would produce for the
//! shapes used in this workspace (named structs, tuple structs, unit and
//! tuple enum variants).

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped tree: the interchange format between `Serialize`,
/// `Deserialize` and `serde_json`.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A negative integer (positive ones parse as [`Value::UInt`]).
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// A float (integral-valued JSON numbers may still parse as ints).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object, in insertion order.
    Map(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Looks up a key in a [`Value::Map`], yielding `Null` when absent.
    pub fn get(&self, key: &str) -> &Value {
        match self {
            Value::Map(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "array",
            Value::Map(_) => "object",
        }
    }
}

/// Serialization / deserialization error.
#[derive(Clone, Debug)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Convenience constructor.
    pub fn msg(s: impl Into<String>) -> Self {
        Error(s.into())
    }
}

fn mismatch(expected: &str, got: &Value) -> Error {
    Error(format!("expected {expected}, found {}", got.type_name()))
}

/// Renders `self` into a [`Value`].
pub trait Serialize {
    /// The value tree representing `self`.
    fn to_value(&self) -> Value;
}

/// Rebuilds `Self` from a [`Value`].
pub trait Deserialize: Sized {
    /// Parses the value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Fetches a named struct field out of an object value (derive support).
pub fn field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, Error> {
    match v {
        Value::Map(pairs) => Ok(pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, val)| val)
            .unwrap_or(&NULL)),
        other => Err(mismatch("object", other)),
    }
}

// --- primitive impls -----------------------------------------------------

/// `f` when it is integral and inside `[lo, hi)`, the range of the 64-bit
/// integer type an integer field is read through; an error naming `f`
/// and the field's type `ty` otherwise. No saturating cast: `1e300` is
/// not a `u64`.
fn integral(f: f64, lo: f64, hi: f64, ty: &str) -> Result<f64, Error> {
    if f.fract() == 0.0 && f >= lo && f < hi {
        Ok(f)
    } else {
        Err(Error::msg(format!("{f:?} is not a {ty}")))
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let u = match *v {
                    Value::UInt(u) => u,
                    Value::Int(i) if i >= 0 => i as u64,
                    // `u64::MAX as f64` rounds up to 2^64, the first float
                    // past `u64::MAX`.
                    Value::Float(f) => integral(f, 0.0, u64::MAX as f64, stringify!($t))? as u64,
                    ref other => return Err(mismatch("unsigned integer", other)),
                };
                <$t>::try_from(u).map_err(|_| Error::msg(format!(
                    "{} out of range for {}", u, stringify!($t)
                )))
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let i = *self as i64;
                if i >= 0 { Value::UInt(i as u64) } else { Value::Int(i) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let i = match *v {
                    Value::Int(i) => i,
                    Value::UInt(u) if u <= i64::MAX as u64 => u as i64,
                    // `i64::MIN` is -2^63, and 2^63 the first float past
                    // `i64::MAX`.
                    Value::Float(f) => {
                        let lo = i64::MIN as f64;
                        integral(f, lo, -lo, stringify!($t))? as i64
                    }
                    ref other => return Err(mismatch("integer", other)),
                };
                <$t>::try_from(i).map_err(|_| Error::msg(format!(
                    "{} out of range for {}", i, stringify!($t)
                )))
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match *v {
            Value::Float(f) => Ok(f),
            Value::UInt(u) => Ok(u as f64),
            Value::Int(i) => Ok(i as f64),
            // serde_json has no representation for NaN; the json shim
            // writes it as null and we resurrect it here.
            Value::Null => Ok(f64::NAN),
            ref other => Err(mismatch("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(mismatch("bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(mismatch("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(mismatch("single-char string", other)),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(|x| x.to_value()).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(|x| x.to_value()).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(mismatch("array", other)),
        }
    }
}

macro_rules! impl_serde_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $n; 1 })+;
                match v {
                    Value::Seq(items) if items.len() == LEN => {
                        Ok(($($t::from_value(&items[$n])?,)+))
                    }
                    other => Err(mismatch("fixed-size array", other)),
                }
            }
        }
    )*};
}
impl_serde_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<T: Serialize> Serialize for std::ops::Range<T> {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("start".to_string(), self.start.to_value()),
            ("end".to_string(), self.end.to_value()),
        ])
    }
}

impl<T: Deserialize> Deserialize for std::ops::Range<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(T::from_value(field(v, "start")?)?..T::from_value(field(v, "end")?)?)
    }
}

impl<T: Serialize> Serialize for std::ops::RangeInclusive<T> {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("start".to_string(), self.start().to_value()),
            ("end".to_string(), self.end().to_value()),
        ])
    }
}

impl<T: Deserialize> Deserialize for std::ops::RangeInclusive<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(T::from_value(field(v, "start")?)?..=T::from_value(field(v, "end")?)?)
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-3i64).to_value()).unwrap(), -3);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(f64::from_value(&Value::Null).unwrap().is_nan());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
        let r = 2usize..=7;
        assert_eq!(
            std::ops::RangeInclusive::<usize>::from_value(&r.to_value()).unwrap(),
            r
        );
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![(1u32, 2u32), (3, 4)];
        let back = Vec::<(u32, u32)>::from_value(&v.to_value()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(f64::from_value(&Value::UInt(3)).unwrap(), 3.0);
        assert_eq!(u64::from_value(&Value::Float(4.0)).unwrap(), 4);
        assert_eq!(u64::from_value(&Value::Float(-0.0)).unwrap(), 0);
        assert_eq!(i64::from_value(&Value::Float(-0.0)).unwrap(), 0);
        assert!(u8::from_value(&Value::UInt(900)).is_err());
    }

    #[test]
    fn integral_floats_outside_the_type_are_errors_not_saturated() {
        let two_pow_64 = 18446744073709551616.0;
        for (f, ty, err) in [
            (1e308, "u64", u64::from_value(&Value::Float(1e308)).err()),
            (
                1e308,
                "usize",
                usize::from_value(&Value::Float(1e308)).err(),
            ),
            (
                two_pow_64,
                "u64",
                u64::from_value(&Value::Float(two_pow_64)).err(),
            ),
            (-1e300, "i64", i64::from_value(&Value::Float(-1e300)).err()),
            (-1e300, "u64", u64::from_value(&Value::Float(-1e300)).err()),
            (1e308, "i64", i64::from_value(&Value::Float(1e308)).err()),
            (4.5, "u64", u64::from_value(&Value::Float(4.5)).err()),
        ] {
            let err = err
                .unwrap_or_else(|| panic!("{f:?} read as a {ty}"))
                .to_string();
            assert!(err.contains(&format!("{f:?}")) && err.contains(ty), "{err}");
        }
        // The range ends themselves: the largest float below 2^64, and
        // i64::MIN, which is a power of two.
        let below = 18446744073709549568.0;
        assert_eq!(
            u64::from_value(&Value::Float(below)).unwrap(),
            18446744073709549568
        );
        let min = -9223372036854775808.0;
        assert_eq!(i64::from_value(&Value::Float(min)).unwrap(), i64::MIN);
        // A narrower type still reports its own range.
        assert!(u8::from_value(&Value::Float(900.0)).is_err());
    }
}
