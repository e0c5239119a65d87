//! Abstract syntax tree for CDSL config programs.

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and` (short-circuit)
    And,
    /// `or` (short-circuit)
    Or,
    /// `in` (membership)
    In,
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `not`
    Not,
}

/// An expression, annotated with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// 1-based source line.
    pub line: u32,
    /// The expression kind.
    pub kind: ExprKind,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Name reference.
    Name(String),
    /// `[a, b, c]`
    List(Vec<Expr>),
    /// `{"k": v, ...}`
    Dict(Vec<(Expr, Expr)>),
    /// `TypeName { field: expr, ... }`
    Struct {
        /// Schema type name.
        name: String,
        /// Field initializers in written order.
        fields: Vec<(String, Expr)>,
    },
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// `f(a, b, key=c)`
    Call {
        /// Callee expression.
        callee: Box<Expr>,
        /// Positional arguments.
        args: Vec<Expr>,
        /// Keyword arguments.
        kwargs: Vec<(String, Expr)>,
    },
    /// `x[i]`
    Index(Box<Expr>, Box<Expr>),
    /// `x.field`
    Attr(Box<Expr>, String),
    /// `a if cond else b`
    Cond {
        /// Value when the condition holds.
        then: Box<Expr>,
        /// The condition.
        cond: Box<Expr>,
        /// Value otherwise.
        otherwise: Box<Expr>,
    },
}

/// A statement, annotated with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// 1-based source line.
    pub line: u32,
    /// The statement kind.
    pub kind: StmtKind,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `name = expr`
    Assign {
        /// Target name.
        name: String,
        /// Value.
        value: Expr,
    },
    /// A bare expression evaluated for effect (e.g. `export_if_last(x)`).
    Expr(Expr),
    /// `import "path"` — brings the module's top-level bindings into scope
    /// (the paper's `import_python`).
    Import(String),
    /// `schema "path"` — loads type definitions (the paper's
    /// `import_thrift`).
    Schema(String),
    /// `def name(params): body`. Arc'd so binding the function at module
    /// evaluation is a refcount bump, not a deep clone of the body AST.
    Def(std::sync::Arc<FuncDef>),
    /// `return expr` (or bare `return`).
    Return(Option<Expr>),
    /// `if cond: ... elif ...: ... else: ...` — encoded as a chain.
    If {
        /// The condition.
        cond: Expr,
        /// Then-branch statements.
        then: Vec<Stmt>,
        /// Else-branch statements (possibly another `If` for `elif`).
        otherwise: Vec<Stmt>,
    },
    /// `for var in expr: body`
    For {
        /// Loop variable.
        var: String,
        /// Iterated expression (list, dict keys, or range).
        iter: Expr,
        /// Body statements.
        body: Vec<Stmt>,
    },
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Default value, if any. Parameters with defaults must follow those
    /// without.
    pub default: Option<Expr>,
}

/// A parsed module: a sequence of top-level statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Top-level statements.
    pub stmts: Vec<Stmt>,
}

impl Expr {
    /// Calls `f` on each direct sub-expression, in the one order every
    /// analysis pass visits them: a call's callee before its arguments, a
    /// conditional's `then` before its `cond` before its `otherwise`,
    /// everything else left to right.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match &self.kind {
            ExprKind::Null
            | ExprKind::Bool(_)
            | ExprKind::Int(_)
            | ExprKind::Float(_)
            | ExprKind::Str(_)
            | ExprKind::Name(_) => {}
            ExprKind::List(items) => items.iter().for_each(f),
            ExprKind::Dict(pairs) => {
                for (k, v) in pairs {
                    f(k);
                    f(v);
                }
            }
            ExprKind::Struct { fields, .. } => fields.iter().for_each(|(_, v)| f(v)),
            ExprKind::Bin(_, a, b) | ExprKind::Index(a, b) => {
                f(a);
                f(b);
            }
            ExprKind::Un(_, v) | ExprKind::Attr(v, _) => f(v),
            ExprKind::Call {
                callee,
                args,
                kwargs,
            } => {
                f(callee);
                args.iter().for_each(&mut *f);
                kwargs.iter().for_each(|(_, v)| f(v));
            }
            ExprKind::Cond {
                then,
                cond,
                otherwise,
            } => {
                f(then);
                f(cond);
                f(otherwise);
            }
        }
    }

    /// Calls `f` on this expression and then on everything under it,
    /// parents first, children in [`Expr::for_each_child`] order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        self.for_each_child(&mut |child| child.walk(f));
    }
}

/// How far [`walk_stmts`] goes into a `def` statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defs {
    /// Not at all.
    Skip,
    /// Parameter defaults only — what evaluating the `def` statement
    /// itself evaluates, in the enclosing scope.
    Defaults,
    /// Parameter defaults, then the body.
    Bodies,
}

/// Calls `f` on every expression in `stmts` ([`Expr::walk`] of each, in
/// source order; an `if`'s condition before its arms, a `for`'s iterable
/// before its body).
pub fn walk_stmts<'a>(stmts: &'a [Stmt], defs: Defs, f: &mut impl FnMut(&'a Expr)) {
    for stmt in stmts {
        match &stmt.kind {
            StmtKind::Assign { value: e, .. } | StmtKind::Expr(e) | StmtKind::Return(Some(e)) => {
                e.walk(f)
            }
            StmtKind::If {
                cond,
                then,
                otherwise,
            } => {
                cond.walk(f);
                walk_stmts(then, defs, f);
                walk_stmts(otherwise, defs, f);
            }
            StmtKind::For { iter, body, .. } => {
                iter.walk(f);
                walk_stmts(body, defs, f);
            }
            StmtKind::Def(def) if defs != Defs::Skip => {
                for default in def.params.iter().filter_map(|p| p.default.as_ref()) {
                    default.walk(f);
                }
                if defs == Defs::Bodies {
                    walk_stmts(&def.body, defs, f);
                }
            }
            StmtKind::Def(_)
            | StmtKind::Import(_)
            | StmtKind::Schema(_)
            | StmtKind::Return(None) => {}
        }
    }
}
