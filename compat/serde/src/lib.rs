//! Offline stand-in for `serde` (value-tree flavoured).
//!
//! The workspace builds in a container with no crates.io access, so the
//! external dependencies are vendored as minimal API-compatible stubs.
//! Instead of serde's zero-copy visitor architecture, this stub serializes
//! through an owned JSON [`Value`] tree: [`Serialize`] renders `Self` into a
//! `Value`, [`Deserialize`] rebuilds `Self` from one. The derive macros
//! (re-exported from `serde_derive`) generate externally tagged enum
//! representations matching real serde's default, so JSON produced by the
//! stub round-trips the same way.
#![allow(clippy::all)] // vendored stand-in for an external crate

pub use serde_derive::{Deserialize, Serialize};

pub mod value;

pub use value::{Number, Value};

/// Types renderable into a JSON [`Value`].
pub trait Serialize {
    /// Renders `self` as a value tree.
    fn serialize_value(&self) -> Value;
}

/// Types rebuildable from a JSON [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    fn deserialize_value(v: &Value) -> Result<Self, String>;
}

// Integers travel exactly: a value above i64::MAX is encoded as
// `Number::UInt`, and decoding rejects a fraction or an out-of-range value
// instead of truncating or saturating it.
macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::Number(match i64::try_from(*self) {
                    Ok(i) => Number::Int(i),
                    Err(_) => Number::UInt(*self as u64),
                })
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<$t, String> {
                match v {
                    Value::Number(n) => {
                        let i = n.as_i128().ok_or_else(|| format!("expected integer, got {n}"))?;
                        <$t>::try_from(i)
                            .map_err(|_| format!("{i} is out of range for {}", stringify!($t)))
                    }
                    _ => Err(format!("expected number, got {v:?}")),
                }
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::Number(Number::from_f64(*self as f64))
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<$t, String> {
                match v {
                    Value::Number(n) => Ok(n.as_f64() as $t),
                    _ => Err(format!("expected number, got {v:?}")),
                }
            }
        }
    )*};
}

float_impls!(f32, f64);

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn deserialize_value(v: &Value) -> Result<bool, String> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("expected bool, got {v:?}")),
        }
    }
}

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::String(self.clone())
    }
}
impl Deserialize for String {
    fn deserialize_value(v: &Value) -> Result<String, String> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(format!("expected string, got {v:?}")),
        }
    }
}

impl Serialize for &str {
    fn serialize_value(&self) -> Value {
        Value::String((*self).to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            Some(x) => x.serialize_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(v: &Value) -> Result<Option<T>, String> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_value(v: &Value) -> Result<Vec<T>, String> {
        match v {
            Value::Array(items) => items.iter().map(T::deserialize_value).collect(),
            _ => Err(format!("expected array, got {v:?}")),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize_value(v: &Value) -> Result<Box<T>, String> {
        T::deserialize_value(v).map(Box::new)
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn serialize_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.serialize_value()))
                .collect(),
        )
    }
}
impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn deserialize_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Object(map) => map
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::deserialize_value(v)?)))
                .collect(),
            _ => Err(format!("expected object, got {v:?}")),
        }
    }
}

impl<V: Serialize> Serialize for std::collections::HashMap<String, V> {
    fn serialize_value(&self) -> Value {
        // Sorted for deterministic output.
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.clone(), v.serialize_value()))
                .collect(),
        )
    }
}
impl<V: Deserialize> Deserialize for std::collections::HashMap<String, V> {
    fn deserialize_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Object(map) => map
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::deserialize_value(v)?)))
                .collect(),
            _ => Err(format!("expected object, got {v:?}")),
        }
    }
}

impl Serialize for Value {
    fn serialize_value(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn deserialize_value(v: &Value) -> Result<Value, String> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let v = 42u32.serialize_value();
        assert_eq!(u32::deserialize_value(&v).unwrap(), 42);
        let v = (-7i64).serialize_value();
        assert_eq!(i64::deserialize_value(&v).unwrap(), -7);
        let v = true.serialize_value();
        assert!(bool::deserialize_value(&v).unwrap());
        let v = "hi".to_string().serialize_value();
        assert_eq!(String::deserialize_value(&v).unwrap(), "hi");
    }

    #[test]
    fn integers_round_trip_exactly() {
        for x in [0, (1u64 << 53) + 1, u64::MAX] {
            assert_eq!(u64::deserialize_value(&x.serialize_value()).unwrap(), x);
        }
        for x in [i64::MIN, -((1i64 << 53) + 1), i64::MAX] {
            assert_eq!(i64::deserialize_value(&x.serialize_value()).unwrap(), x);
        }
    }

    #[test]
    fn integer_decoding_rejects_fractions_and_range_errors() {
        let num = |f: f64| Value::Number(Number::from_f64(f));
        assert!(u32::deserialize_value(&num(2.9)).is_err());
        assert!(u32::deserialize_value(&num(-5.0)).is_err());
        assert!(u8::deserialize_value(&num(256.0)).is_err());
        assert!(i64::deserialize_value(&u64::MAX.serialize_value()).is_err());
        assert_eq!(u32::deserialize_value(&num(7.0)), Ok(7));
    }

    #[test]
    fn containers_round_trip() {
        let xs = vec![1u64, 2, 3];
        assert_eq!(
            Vec::<u64>::deserialize_value(&xs.serialize_value()).unwrap(),
            xs
        );
        let mut m = std::collections::BTreeMap::new();
        m.insert("a".to_string(), 1i64);
        assert_eq!(
            std::collections::BTreeMap::<String, i64>::deserialize_value(&m.serialize_value())
                .unwrap(),
            m
        );
        let o: Option<u32> = None;
        assert_eq!(
            Option::<u32>::deserialize_value(&o.serialize_value()).unwrap(),
            None
        );
    }
}
