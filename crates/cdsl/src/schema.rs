//! Thrift-style config schemas.
//!
//! The paper defines each config's data schema "in the platform-independent
//! Thrift language" (§3.1, Figure 2). CDSL schema files use a Thrift-like
//! syntax:
//!
//! ```text
//! enum JobKind {
//!   BATCH = 0
//!   SERVICE = 1
//! }
//!
//! struct Job {
//!   1: string name
//!   2: optional i64 memory_mb = 1024
//!   3: list<i64> ports
//!   4: map<string, string> labels
//!   5: JobKind kind = BATCH
//! }
//! ```
//!
//! Struct construction in config programs is checked against the schema:
//! unknown fields and type mismatches are compile errors, defaults are
//! filled in, and missing required fields are rejected — the first line of
//! defense against configuration errors (§3.3).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{CdslError, ErrorKind, Result};
use crate::parser::MAX_NESTING;
use crate::value::{EnumValue, Value};

/// A field or container type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// `bool`
    Bool,
    /// `i32`
    I32,
    /// `i64`
    I64,
    /// `double`
    Double,
    /// `string`
    String,
    /// `list<T>`
    List(Box<Type>),
    /// `map<string, T>` (keys are always strings, as in JSON)
    Map(Box<Type>),
    /// A struct or enum defined elsewhere in the schema set.
    Named(String),
}

impl Type {
    /// Renders the type in schema syntax.
    pub fn render(&self) -> String {
        match self {
            Type::Bool => "bool".into(),
            Type::I32 => "i32".into(),
            Type::I64 => "i64".into(),
            Type::Double => "double".into(),
            Type::String => "string".into(),
            Type::List(t) => format!("list<{}>", t.render()),
            Type::Map(t) => format!("map<string, {}>", t.render()),
            Type::Named(n) => n.clone(),
        }
    }
}

/// A struct field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Thrift-style field id.
    pub id: u32,
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Whether the field may be omitted (serializes as `null` if absent and
    /// without default).
    pub optional: bool,
    /// Default value, if declared.
    pub default: Option<Value>,
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<Field>,
}

/// An enum definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumDef {
    /// Type name.
    pub name: String,
    /// Variants in declaration order: (name, number).
    pub variants: Vec<(String, i64)>,
}

impl EnumDef {
    /// Looks up a variant by name.
    pub fn variant(&self, name: &str) -> Option<Value> {
        self.variants
            .iter()
            .find(|(n, _)| n == name)
            .map(|(n, num)| {
                Value::Enum(Arc::new(EnumValue {
                    enum_name: self.name.clone(),
                    variant: n.clone(),
                    number: *num,
                }))
            })
    }
}

/// A named type definition.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeDef {
    /// A struct.
    Struct(StructDef),
    /// An enum.
    Enum(EnumDef),
}

impl TypeDef {
    /// The definition's type name.
    pub fn name(&self) -> &str {
        match self {
            TypeDef::Struct(s) => &s.name,
            TypeDef::Enum(e) => &e.name,
        }
    }
}

/// How [`SchemaSet::coerce`]'s `Err` text begins when the field's type names
/// a type no loaded schema defines. The interpreter reports it like any
/// other; the verifier, whose schema set may be narrower than the one the
/// code would run under, stays silent on exactly this case.
pub(crate) const UNKNOWN_TYPE: &str = "unknown type";

/// A set of type definitions accumulated from loaded schema files.
#[derive(Debug, Clone, Default)]
pub struct SchemaSet {
    types: BTreeMap<String, TypeDef>,
    /// Which schema file defined each type (drives validator discovery).
    origins: BTreeMap<String, String>,
}

impl SchemaSet {
    /// Creates an empty set.
    pub fn new() -> SchemaSet {
        SchemaSet::default()
    }

    /// Looks up a type by name.
    pub fn get(&self, name: &str) -> Option<&TypeDef> {
        self.types.get(name)
    }

    /// Looks up a struct definition by name.
    pub fn get_struct(&self, name: &str) -> Option<&StructDef> {
        match self.types.get(name) {
            Some(TypeDef::Struct(s)) => Some(s),
            _ => None,
        }
    }

    /// Looks up an enum definition by name.
    pub fn get_enum(&self, name: &str) -> Option<&EnumDef> {
        match self.types.get(name) {
            Some(TypeDef::Enum(e)) => Some(e),
            _ => None,
        }
    }

    /// Returns the schema file that defined `type_name`.
    pub fn origin(&self, type_name: &str) -> Option<&str> {
        self.origins.get(type_name).map(String::as_str)
    }

    /// Number of defined types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Returns whether no types are defined.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Checks `v` against `ty` and returns it as a field of that type
    /// holds it (an int widened to `double`, a bare variant name resolved
    /// to its enum). This is the one rule for what a typed field accepts:
    /// struct construction reports the `Err` text, prefixed with the
    /// field, and so does the static verifier.
    pub fn coerce(&self, v: &Value, ty: &Type) -> std::result::Result<Value, String> {
        let mismatch = || Err(format!("expected {}, found {}", ty.render(), v.type_name()));
        match (ty, v) {
            (Type::Bool, Value::Bool(_))
            | (Type::I64, Value::Int(_))
            | (Type::Double, Value::Float(_))
            | (Type::String, Value::Str(_)) => Ok(v.clone()),
            (Type::I32, Value::Int(i)) if i32::try_from(*i).is_ok() => Ok(v.clone()),
            (Type::I32, Value::Int(i)) => Err(format!("{i} out of range for i32")),
            (Type::Double, Value::Int(i)) => Ok(Value::Float(*i as f64)),
            (Type::List(inner), Value::List(items)) => {
                let items: std::result::Result<_, _> =
                    items.iter().map(|item| self.coerce(item, inner)).collect();
                items.map(Value::list)
            }
            (Type::Map(inner), Value::Dict(map)) => {
                let entries: std::result::Result<_, _> = map
                    .iter()
                    .map(|(k, item)| Ok((k.clone(), self.coerce(item, inner)?)))
                    .collect();
                entries.map(Value::dict)
            }
            (Type::Named(tname), v) => match (self.get(tname), v) {
                (Some(TypeDef::Enum(_)), Value::Enum(ev)) if ev.enum_name == *tname => {
                    Ok(v.clone())
                }
                // A bare string (e.g. a schema default) resolves to the
                // variant of that name.
                (Some(TypeDef::Enum(e)), Value::Str(s)) => e
                    .variant(s)
                    .ok_or_else(|| format!("enum {tname} has no variant {s}")),
                (Some(TypeDef::Struct(_)), Value::Struct(sv)) if sv.type_name == *tname => {
                    Ok(v.clone())
                }
                (Some(_), _) => mismatch(),
                (None, _) => Err(format!("{UNKNOWN_TYPE} {tname}")),
            },
            _ => mismatch(),
        }
    }

    /// Parses the schema source at `path` and merges its definitions.
    /// Redefining an existing type with different content is an error;
    /// identical redefinition (the same file loaded twice) is a no-op.
    pub fn load(&mut self, src: &str, path: &str) -> Result<()> {
        let defs = parse_schema(src, path)?;
        self.load_defs(&defs, path)
    }

    /// Whether [`SchemaSet::load_defs`] would accept `defs`: none of them
    /// redefines a loaded type differently.
    pub fn accepts(&self, defs: &[TypeDef]) -> bool {
        defs.iter()
            .all(|def| !matches!(self.types.get(def.name()), Some(known) if known != def))
    }

    /// Merges already-parsed definitions (e.g. from a
    /// [`crate::cache::ParseCache`]) under the same redefinition rules as
    /// [`SchemaSet::load`].
    pub fn load_defs(&mut self, defs: &[TypeDef], path: &str) -> Result<()> {
        for def in defs {
            let name = def.name().to_string();
            if let Some(existing) = self.types.get(&name) {
                if existing != def {
                    return Err(CdslError::new(
                        ErrorKind::Schema(format!("conflicting redefinition of type {name}")),
                        path,
                        0,
                    ));
                }
            } else {
                self.origins.insert(name.clone(), path.to_string());
                self.types.insert(name, def.clone());
            }
        }
        Ok(())
    }
}

/// Parses a schema file into its type definitions.
pub fn parse_schema(src: &str, path: &str) -> Result<Vec<TypeDef>> {
    let mut p = SchemaParser {
        toks: schema_lex(src, path)?,
        pos: 0,
        path,
        nesting: 0,
    };
    let mut defs = Vec::new();
    while !p.at_eof() {
        defs.push(p.type_def()?);
    }
    Ok(defs)
}

#[derive(Debug, Clone, PartialEq)]
enum STok {
    Word(String),
    Int(i64),
    Str(String),
    LBrace,
    RBrace,
    Lt,
    Gt,
    Colon,
    Comma,
    Assign,
    Eof,
}

fn schema_lex(src: &str, path: &str) -> Result<Vec<(STok, u32)>> {
    let mut out = Vec::new();
    let mut line: u32 = 1;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '/' => {
                chars.next();
                if chars.peek() == Some(&'/') {
                    for c in chars.by_ref() {
                        if c == '\n' {
                            line += 1;
                            break;
                        }
                    }
                } else {
                    return Err(CdslError::new(
                        ErrorKind::Schema("unexpected '/'".into()),
                        path,
                        line,
                    ));
                }
            }
            '{' => {
                out.push((STok::LBrace, line));
                chars.next();
            }
            '}' => {
                out.push((STok::RBrace, line));
                chars.next();
            }
            '<' => {
                out.push((STok::Lt, line));
                chars.next();
            }
            '>' => {
                out.push((STok::Gt, line));
                chars.next();
            }
            ':' => {
                out.push((STok::Colon, line));
                chars.next();
            }
            ',' => {
                out.push((STok::Comma, line));
                chars.next();
            }
            ';' => {
                chars.next();
            }
            '=' => {
                out.push((STok::Assign, line));
                chars.next();
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some(c) if c != '\n' => s.push(c),
                        _ => {
                            return Err(CdslError::new(
                                ErrorKind::Schema("unterminated string".into()),
                                path,
                                line,
                            ))
                        }
                    }
                }
                out.push((STok::Str(s), line));
            }
            c if c.is_ascii_digit() || c == '-' => {
                let mut s = String::new();
                s.push(c);
                chars.next();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() || d == '.' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let v: i64 = s.parse().map_err(|_| {
                    CdslError::new(ErrorKind::Schema(format!("bad number: {s}")), path, line)
                })?;
                out.push((STok::Int(v), line));
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((STok::Word(s), line));
            }
            other => {
                return Err(CdslError::new(
                    ErrorKind::Schema(format!("unexpected character: {other:?}")),
                    path,
                    line,
                ));
            }
        }
    }
    out.push((STok::Eof, line));
    Ok(out)
}

struct SchemaParser<'a> {
    toks: Vec<(STok, u32)>,
    pos: usize,
    path: &'a str,
    /// Containers open around the type being parsed.
    nesting: u32,
}

impl SchemaParser<'_> {
    fn cur(&self) -> &STok {
        &self.toks[self.pos].0
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].1
    }

    fn at_eof(&self) -> bool {
        *self.cur() == STok::Eof
    }

    fn bump(&mut self) -> STok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> CdslError {
        CdslError::new(ErrorKind::Schema(msg.into()), self.path, self.line())
    }

    fn word(&mut self, what: &str) -> Result<String> {
        match self.bump() {
            STok::Word(s) => Ok(s),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect(&mut self, t: STok, what: &str) -> Result<()> {
        if *self.cur() == t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.cur())))
        }
    }

    fn type_def(&mut self) -> Result<TypeDef> {
        match self.word("'struct' or 'enum'")?.as_str() {
            "struct" => self.struct_def().map(TypeDef::Struct),
            "enum" => self.enum_def().map(TypeDef::Enum),
            other => Err(self.err(format!("expected 'struct' or 'enum', found {other:?}"))),
        }
    }

    fn struct_def(&mut self) -> Result<StructDef> {
        let name = self.word("struct name")?;
        self.expect(STok::LBrace, "'{'")?;
        let mut fields: Vec<Field> = Vec::new();
        while *self.cur() != STok::RBrace {
            let id = match self.bump() {
                STok::Int(v) if v > 0 => v as u32,
                other => return Err(self.err(format!("expected field id, found {other:?}"))),
            };
            self.expect(STok::Colon, "':'")?;
            let mut optional = false;
            if matches!(self.cur(), STok::Word(w) if w == "optional") {
                optional = true;
                self.bump();
            }
            let ty = self.parse_type()?;
            let fname = self.word("field name")?;
            let default = if *self.cur() == STok::Assign {
                self.bump();
                Some(self.default_value(&ty)?)
            } else {
                None
            };
            if fields.iter().any(|f| f.name == fname) {
                return Err(self.err(format!("duplicate field name: {fname}")));
            }
            if fields.iter().any(|f| f.id == id) {
                return Err(self.err(format!("duplicate field id: {id}")));
            }
            fields.push(Field {
                id,
                name: fname,
                ty,
                optional,
                default,
            });
        }
        self.bump(); // `}`
        Ok(StructDef { name, fields })
    }

    fn enum_def(&mut self) -> Result<EnumDef> {
        let name = self.word("enum name")?;
        self.expect(STok::LBrace, "'{'")?;
        let mut variants: Vec<(String, i64)> = Vec::new();
        let mut next = Some(0i64);
        while *self.cur() != STok::RBrace {
            let vname = self.word("variant name")?;
            let number = if *self.cur() == STok::Assign {
                self.bump();
                match self.bump() {
                    STok::Int(v) => v,
                    other => {
                        return Err(self.err(format!("expected variant number, found {other:?}")))
                    }
                }
            } else {
                next.ok_or_else(|| self.err(format!("variant {vname} overflows i64")))?
            };
            next = number.checked_add(1);
            if variants.iter().any(|(n, _)| *n == vname) {
                return Err(self.err(format!("duplicate variant: {vname}")));
            }
            variants.push((vname, number));
            if *self.cur() == STok::Comma {
                self.bump();
            }
        }
        self.bump(); // `}`
        if variants.is_empty() {
            return Err(self.err(format!("enum {name} has no variants")));
        }
        Ok(EnumDef { name, variants })
    }

    fn parse_type(&mut self) -> Result<Type> {
        self.nesting += 1;
        if self.nesting > MAX_NESTING {
            return Err(self.err(format!("type nested more than {MAX_NESTING} levels deep")));
        }
        let w = self.word("type")?;
        let ty = match w.as_str() {
            "bool" => Type::Bool,
            "i32" => Type::I32,
            "i64" => Type::I64,
            "double" => Type::Double,
            "string" => Type::String,
            "list" => {
                self.expect(STok::Lt, "'<'")?;
                let inner = self.parse_type()?;
                self.expect(STok::Gt, "'>'")?;
                Type::List(Box::new(inner))
            }
            "map" => {
                self.expect(STok::Lt, "'<'")?;
                let key = self.parse_type()?;
                if key != Type::String {
                    return Err(self.err("map keys must be strings (JSON compatibility)"));
                }
                self.expect(STok::Comma, "','")?;
                let val = self.parse_type()?;
                self.expect(STok::Gt, "'>'")?;
                Type::Map(Box::new(val))
            }
            other => Type::Named(other.to_string()),
        };
        self.nesting -= 1;
        Ok(ty)
    }

    /// Parses a default value literal appropriate to `ty`. Enum defaults are
    /// written as a bare variant name and resolved at construction time.
    fn default_value(&mut self, ty: &Type) -> Result<Value> {
        match self.bump() {
            STok::Int(v) => match ty {
                Type::Double => Ok(Value::Float(v as f64)),
                Type::I32 | Type::I64 => Ok(Value::Int(v)),
                _ => Err(self.err("integer default on non-numeric field")),
            },
            STok::Str(s) => {
                if *ty == Type::String {
                    Ok(Value::str(s))
                } else {
                    Err(self.err("string default on non-string field"))
                }
            }
            STok::Word(w) if w == "true" => Ok(Value::Bool(true)),
            STok::Word(w) if w == "false" => Ok(Value::Bool(false)),
            STok::Word(w) => {
                // Enum variant name; stored as a string placeholder and
                // resolved against the enum when the struct is built.
                if matches!(ty, Type::Named(_)) {
                    Ok(Value::str(w))
                } else {
                    Err(self.err(format!("bad default: {w}")))
                }
            }
            other => Err(self.err(format!("bad default: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const JOB: &str = r#"
        # The job schema from Figure 2.
        enum JobKind {
            BATCH = 0
            SERVICE = 1
        }
        struct Job {
            1: string name
            2: optional i64 memory_mb = 1024
            3: list<i64> ports
            4: map<string, string> labels
            5: JobKind kind = BATCH
        }
    "#;

    #[test]
    fn parses_figure2_style_schema() {
        let defs = parse_schema(JOB, "job.schema").unwrap();
        assert_eq!(defs.len(), 2);
        let TypeDef::Enum(e) = &defs[0] else { panic!() };
        assert_eq!(e.variants, vec![("BATCH".into(), 0), ("SERVICE".into(), 1)]);
        let TypeDef::Struct(s) = &defs[1] else {
            panic!()
        };
        assert_eq!(s.fields.len(), 5);
        assert_eq!(s.fields[1].default, Some(Value::Int(1024)));
        assert!(s.fields[1].optional);
        assert_eq!(s.fields[2].ty, Type::List(Box::new(Type::I64)));
        assert_eq!(s.fields[3].ty, Type::Map(Box::new(Type::String)));
        assert_eq!(s.fields[4].ty, Type::Named("JobKind".into()));
    }

    #[test]
    fn enum_auto_numbering() {
        let defs = parse_schema("enum E { A, B, C = 10, D }", "e").unwrap();
        let TypeDef::Enum(e) = &defs[0] else { panic!() };
        assert_eq!(
            e.variants,
            vec![
                ("A".into(), 0),
                ("B".into(), 1),
                ("C".into(), 10),
                ("D".into(), 11)
            ]
        );
    }

    #[test]
    fn duplicate_field_ids_and_names_rejected() {
        assert!(parse_schema("struct S { 1: i64 a 1: i64 b }", "s").is_err());
        assert!(parse_schema("struct S { 1: i64 a 2: i64 a }", "s").is_err());
    }

    #[test]
    fn non_string_map_keys_rejected() {
        assert!(parse_schema("struct S { 1: map<i64, string> m }", "s").is_err());
    }

    #[test]
    fn schema_set_conflicting_redefinition() {
        let mut set = SchemaSet::new();
        set.load("struct S { 1: i64 a }", "one.schema").unwrap();
        // Identical reload is fine.
        set.load("struct S { 1: i64 a }", "two.schema").unwrap();
        // Conflicting reload is not.
        assert!(set
            .load("struct S { 1: string a }", "three.schema")
            .is_err());
        assert_eq!(set.origin("S"), Some("one.schema"));
    }

    #[test]
    fn default_type_checking() {
        assert!(parse_schema("struct S { 1: i64 a = \"x\" }", "s").is_err());
        assert!(parse_schema("struct S { 1: string a = 3 }", "s").is_err());
        let ok = parse_schema("struct S { 1: double d = 3 }", "s").unwrap();
        let TypeDef::Struct(s) = &ok[0] else { panic!() };
        assert_eq!(s.fields[0].default, Some(Value::Float(3.0)));
    }

    #[test]
    fn comments_and_semicolons_tolerated() {
        let src = "// header\nstruct S {\n  1: i64 a;  # trailing\n}\n";
        assert!(parse_schema(src, "s").is_ok());
    }

    #[test]
    fn empty_enum_rejected() {
        assert!(parse_schema("enum E { }", "e").is_err());
    }
}
