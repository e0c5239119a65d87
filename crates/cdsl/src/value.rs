//! Runtime values and canonical JSON emission.
//!
//! Compiled configs are JSON files (§3.1 of the paper). The emitter here is
//! canonical: struct fields appear in schema order, dict keys in sorted
//! order, with deterministic number formatting — so identical config values
//! always serialize to byte-identical JSON and hash to the same blob id in
//! gitstore.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::ast::{BinOp, FuncDef, UnOp};

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String.
    Str(Arc<str>),
    /// List.
    List(Arc<Vec<Value>>),
    /// String-keyed map (JSON-compatible).
    Dict(Arc<BTreeMap<String, Value>>),
    /// An instance of a schema struct; fields in schema order.
    Struct(Arc<StructValue>),
    /// A user-defined function (closure over its defining module).
    Func(Arc<FuncValue>),
    /// A built-in function.
    Builtin(&'static str),
    /// An enum variant (`JobKind.SERVICE`).
    Enum(Arc<EnumValue>),
}

/// An instantiated schema struct.
#[derive(Debug, Clone, PartialEq)]
pub struct StructValue {
    /// The schema type name.
    pub type_name: String,
    /// Fields in schema declaration order.
    pub fields: Vec<(String, Value)>,
}

impl StructValue {
    /// Looks up a field by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// A user function plus the module whose scope it closes over.
#[derive(Debug)]
pub struct FuncValue {
    /// The definition.
    pub def: Arc<FuncDef>,
    /// Path of the defining module. A path rather than an index or a
    /// pointer: the value may be called from an interpreter other than
    /// the one that created it (see [`crate::module`]), which resolves
    /// the path in its own module table — and a scope that owned pointers
    /// back to itself through its functions would never be freed.
    pub module: Arc<str>,
}

/// An enum variant value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumValue {
    /// Enum type name.
    pub enum_name: String,
    /// Variant name.
    pub variant: String,
    /// Numeric value.
    pub number: i64,
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Builds a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Arc::new(items))
    }

    /// Builds a dict value.
    pub fn dict(map: BTreeMap<String, Value>) -> Value {
        Value::Dict(Arc::new(map))
    }

    /// A short name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::List(_) => "list",
            Value::Dict(_) => "dict",
            Value::Struct(_) => "struct",
            Value::Func(_) => "function",
            Value::Builtin(_) => "builtin",
            Value::Enum(_) => "enum",
        }
    }

    /// Truthiness, Python-style: empty containers, zero, empty strings and
    /// null are falsy.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::List(l) => !l.is_empty(),
            Value::Dict(d) => !d.is_empty(),
            Value::Struct(_) | Value::Func(_) | Value::Builtin(_) | Value::Enum(_) => true,
        }
    }

    /// The value as a float, if it is a number.
    pub(crate) fn num(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Applies a unary operator. This and the three functions after it are
    /// the language's operator semantics, stated once: the interpreter adds
    /// a source location to the `Err` text, the static verifier takes any
    /// `Err` as "not a constant". Integer arithmetic is checked everywhere,
    /// so a result never depends on the build profile.
    pub fn unary(&self, op: UnOp) -> Result<Value, String> {
        match (op, self) {
            (UnOp::Not, v) => Ok(Value::Bool(!v.truthy())),
            (UnOp::Neg, Value::Int(i)) => int_result(i.checked_neg(), '-'),
            (UnOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
            (UnOp::Neg, other) => Err(format!("cannot negate a {}", other.type_name())),
        }
    }

    /// Applies a binary operator to two evaluated operands. `and`/`or`
    /// yield the operand Python would; leaving the right one *unevaluated*
    /// when the left decides is the caller's business.
    pub fn binary(&self, op: BinOp, rhs: &Value) -> Result<Value, String> {
        let (l, r) = (self, rhs);
        let types = |what: &str, joiner: &str| {
            format!("{what} {} {joiner} {}", l.type_name(), r.type_name())
        };
        match op {
            BinOp::And => Ok(if l.truthy() { r } else { l }.clone()),
            BinOp::Or => Ok(if l.truthy() { l } else { r }.clone()),
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => match (l, r) {
                (Value::Int(a), Value::Int(b)) if op != BinOp::Div => match op {
                    BinOp::Add => int_result(a.checked_add(*b), '+'),
                    BinOp::Sub => int_result(a.checked_sub(*b), '-'),
                    BinOp::Mul => int_result(a.checked_mul(*b), '*'),
                    _ if *b == 0 => Err("modulo by zero".into()),
                    _ => int_result(a.checked_rem_euclid(*b), '%'),
                },
                (Value::Str(a), Value::Str(b)) if op == BinOp::Add => {
                    Ok(Value::str(format!("{a}{b}")))
                }
                (Value::List(a), Value::List(b)) if op == BinOp::Add => {
                    Ok(Value::list(a.iter().chain(b.iter()).cloned().collect()))
                }
                _ => match (l.num(), r.num(), op) {
                    (Some(a), Some(b), BinOp::Add) => Ok(Value::Float(a + b)),
                    (Some(a), Some(b), BinOp::Sub) => Ok(Value::Float(a - b)),
                    (Some(a), Some(b), BinOp::Mul) => Ok(Value::Float(a * b)),
                    (Some(_), Some(0.0), BinOp::Div) => Err("division by zero".into()),
                    (Some(a), Some(b), BinOp::Div) => Ok(Value::Float(a / b)),
                    (Some(_), Some(0.0), _) => Err("modulo by zero".into()),
                    (Some(a), Some(b), _) => Ok(Value::Float(a.rem_euclid(b))),
                    (_, _, BinOp::Add) => Err(types("cannot add", "and")),
                    _ => Err(types("numeric operator on", "and")),
                },
            },
            BinOp::Eq => Ok(Value::Bool(l == r)),
            BinOp::Ne => Ok(Value::Bool(l != r)),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let ord = match (l, r) {
                    (Value::Str(a), Value::Str(b)) => a.cmp(b),
                    _ => match (l.num(), r.num()) {
                        (Some(a), Some(b)) => a.partial_cmp(&b).ok_or("cannot order NaN")?,
                        _ => return Err(types("cannot order", "and")),
                    },
                };
                Ok(Value::Bool(match op {
                    BinOp::Lt => ord.is_lt(),
                    BinOp::Le => ord.is_le(),
                    BinOp::Gt => ord.is_gt(),
                    _ => ord.is_ge(),
                }))
            }
            BinOp::In => match (l, r) {
                (v, Value::List(items)) => Ok(Value::Bool(items.contains(v))),
                (Value::Str(k), Value::Dict(d)) => Ok(Value::Bool(d.contains_key(&**k))),
                (Value::Str(needle), Value::Str(hay)) => Ok(Value::Bool(hay.contains(&**needle))),
                _ => Err(types("cannot test", "in")),
            },
        }
    }

    /// `self[idx]`: a list element (negative indices count from the end)
    /// or a dict entry.
    pub fn index(&self, idx: &Value) -> Result<Value, String> {
        match (self, idx) {
            (Value::List(l), Value::Int(n)) => {
                let len = l.len() as i64;
                let k = if *n < 0 { n + len } else { *n };
                usize::try_from(k)
                    .ok()
                    .and_then(|k| l.get(k))
                    .cloned()
                    .ok_or_else(|| format!("list index {n} out of range (len {len})"))
            }
            (Value::Dict(d), Value::Str(k)) => d
                .get(&**k)
                .cloned()
                .ok_or_else(|| format!("missing dict key: {k}")),
            _ => Err(format!(
                "cannot index {} with {}",
                self.type_name(),
                idx.type_name()
            )),
        }
    }

    /// `self.name`: a struct field, or an enum variant's `name`/`value`.
    pub fn attr(&self, name: &str) -> Result<Value, String> {
        match self {
            Value::Struct(s) => s
                .get(name)
                .cloned()
                .ok_or_else(|| format!("struct {} has no field {name}", s.type_name)),
            Value::Enum(e) if name == "name" => Ok(Value::str(&e.variant)),
            Value::Enum(e) if name == "value" => Ok(Value::Int(e.number)),
            other => Err(format!(
                "cannot access attribute {name} on {}",
                other.type_name()
            )),
        }
    }

    /// Serializes the value to canonical JSON.
    ///
    /// Structs serialize as objects in schema field order; dicts in sorted
    /// key order; enum variants as their variant name strings (readable in
    /// the compiled config, like Thrift's JSON protocol in string mode).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Serializes as pretty-printed JSON with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_json_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::Float(v) => write_f64(out, *v),
            Value::Str(s) => write_json_string(out, s),
            Value::Enum(e) => write_json_string(out, &e.variant),
            Value::List(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_json(out);
                }
                out.push(']');
            }
            Value::Dict(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
            Value::Struct(s) => {
                out.push('{');
                for (i, (k, v)) in s.fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
            Value::Func(_) | Value::Builtin(_) => out.push_str("null"),
        }
    }

    fn write_json_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Value::List(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    v.write_json_pretty(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push(']');
            }
            Value::Dict(map) if !map.is_empty() => {
                let entries: Vec<(&String, &Value)> = map.iter().collect();
                write_object_pretty(out, depth, &entries);
            }
            Value::Struct(s) if !s.fields.is_empty() => {
                let entries: Vec<(&String, &Value)> =
                    s.fields.iter().map(|(k, v)| (k, v)).collect();
                write_object_pretty(out, depth, &entries);
            }
            other => other.write_json(out),
        }
    }
}

/// The outcome of a checked `i64` operation written `op` in source.
pub(crate) fn int_result(checked: Option<i64>, op: impl fmt::Display) -> Result<Value, String> {
    checked
        .map(Value::Int)
        .ok_or_else(|| format!("integer overflow in {op}"))
}

fn write_object_pretty(out: &mut String, depth: usize, entries: &[(&String, &Value)]) {
    out.push_str("{\n");
    for (i, (k, v)) in entries.iter().enumerate() {
        indent(out, depth + 1);
        write_json_string(out, k);
        out.push_str(": ");
        v.write_json_pretty(out, depth + 1);
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    indent(out, depth);
    out.push('}');
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            // Keep integral floats distinguishable from ints.
            out.push_str(&format!("{v:.1}"));
        } else {
            out.push_str(&format!("{v}"));
        }
    } else {
        // JSON has no NaN/Inf; emit null as serde_json does by default.
        out.push_str("null");
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::List(a), Value::List(b)) => a == b,
            (Value::Dict(a), Value::Dict(b)) => a == b,
            (Value::Struct(a), Value::Struct(b)) => a == b,
            (Value::Enum(a), Value::Enum(b)) => a == b,
            (Value::Builtin(a), Value::Builtin(b)) => a == b,
            (Value::Func(a), Value::Func(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Renders strings bare and everything else as compact JSON (used in error
/// messages and the Sitevars UI).
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Func(v) => write!(f, "<function {}>", v.def.name),
            Value::Builtin(n) => write!(f, "<builtin {n}>"),
            other => f.write_str(&other.to_json()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> Value {
        Value::str(v)
    }

    #[test]
    fn scalar_json() {
        assert_eq!(Value::Null.to_json(), "null");
        assert_eq!(Value::Bool(true).to_json(), "true");
        assert_eq!(Value::Int(-3).to_json(), "-3");
        assert_eq!(Value::Float(2.5).to_json(), "2.5");
        assert_eq!(Value::Float(2.0).to_json(), "2.0");
        assert_eq!(s("hi").to_json(), "\"hi\"");
    }

    #[test]
    fn string_escaping() {
        assert_eq!(s("a\"b\\c\nd").to_json(), r#""a\"b\\c\nd""#);
        assert_eq!(s("\u{1}").to_json(), "\"\\u0001\"");
    }

    #[test]
    fn dict_keys_sorted() {
        let mut m = BTreeMap::new();
        m.insert("b".to_string(), Value::Int(2));
        m.insert("a".to_string(), Value::Int(1));
        assert_eq!(Value::dict(m).to_json(), r#"{"a":1,"b":2}"#);
    }

    #[test]
    fn struct_fields_keep_schema_order() {
        let sv = Value::Struct(Arc::new(StructValue {
            type_name: "Job".into(),
            fields: vec![
                ("zeta".into(), Value::Int(1)),
                ("alpha".into(), Value::Int(2)),
            ],
        }));
        assert_eq!(sv.to_json(), r#"{"zeta":1,"alpha":2}"#);
    }

    #[test]
    fn enum_serializes_as_variant_name() {
        let e = Value::Enum(Arc::new(EnumValue {
            enum_name: "JobKind".into(),
            variant: "SERVICE".into(),
            number: 1,
        }));
        assert_eq!(e.to_json(), "\"SERVICE\"");
    }

    #[test]
    fn pretty_round_trips_compact_semantics() {
        let mut m = BTreeMap::new();
        m.insert(
            "x".to_string(),
            Value::list(vec![Value::Int(1), Value::Int(2)]),
        );
        m.insert("y".to_string(), Value::dict(BTreeMap::new()));
        let v = Value::dict(m);
        let pretty = v.to_json_pretty();
        assert!(pretty.contains("\n"));
        // Identical content modulo whitespace.
        let strip = |s: &str| s.replace([' ', '\n'], "");
        assert_eq!(strip(&pretty), strip(&v.to_json()));
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_ne!(Value::Int(2), Value::Float(2.5));
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!s("").truthy());
        assert!(!Value::list(vec![]).truthy());
        assert!(Value::Int(1).truthy());
        assert!(s("x").truthy());
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn struct_get() {
        let sv = StructValue {
            type_name: "T".into(),
            fields: vec![("a".into(), Value::Int(1))],
        };
        assert_eq!(sv.get("a"), Some(&Value::Int(1)));
        assert_eq!(sv.get("b"), None);
    }
}
