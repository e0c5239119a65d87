//! Recursive-descent parser for CDSL.
//!
//! Grammar sketch (statements are newline-terminated, blocks are indented):
//!
//! ```text
//! module   := stmt*
//! stmt     := import | schema | def | return | if | for | assign | expr
//! import   := "import" STRING
//! schema   := "schema" STRING
//! def      := "def" IDENT "(" params ")" ":" block
//! if       := "if" expr ":" block ("elif" expr ":" block)* ("else" ":" block)?
//! for      := "for" IDENT "in" expr ":" block
//! assign   := IDENT "=" expr
//! expr     := ternary
//! ternary  := or ("if" or "else" ternary)?
//! or       := and ("or" and)*
//! and      := not ("and" not)*
//! not      := "not" not | cmp
//! cmp      := add (("=="|"!="|"<"|"<="|">"|">="|"in"|"not in") add)?
//! add      := mul (("+"|"-") mul)*
//! mul      := unary (("*"|"/"|"%") unary)*
//! unary    := "-" unary | postfix
//! postfix  := atom (call | index | attr)*
//! atom     := literal | name | struct | list | dict | "(" expr ")"
//! struct   := IDENT "{" (IDENT ":" expr),* "}"
//! ```

use crate::ast::{BinOp, Expr, ExprKind, FuncDef, Module, Param, Stmt, StmtKind, UnOp};
use crate::error::{CdslError, ErrorKind, Result};
use crate::lexer::{lex, Spanned, Tok};

/// Deepest nesting the parsers accept: blocks within blocks, expressions
/// within expressions, counted from the module down to the innermost
/// operand (and, in [`crate::schema`], containers within a field type).
/// Everything that recurses over syntax — this parser, the verifier's
/// passes, `Drop` — recurses at most this deep, so a few kilobytes of
/// brackets cannot overflow the native stack. It is sized by
/// `tests/nesting.rs`, which takes the deepest accepted programs through
/// all of those on a 1 MiB stack in the debug build, where one level of
/// parentheses is ten parser frames and 20 KB. A constant rather than a
/// [`crate::Limits`] field because it guards the process, not the config:
/// hand-written configs nest a quarter as deep, and no caller has a reason
/// to set it differently.
pub(crate) const MAX_NESTING: u32 = 40;

/// Parses `src` (reporting errors against `path`) into a [`Module`].
pub fn parse(src: &str, path: &str) -> Result<Module> {
    let mut p = Parser::new(lex(src, path)?, path);
    let mut stmts = Vec::new();
    while !p.at(&Tok::Eof) {
        stmts.push(p.stmt()?);
    }
    Ok(Module { stmts })
}

/// Parses a single expression (used by the Sitevars shim and tests).
pub fn parse_expr(src: &str, path: &str) -> Result<Expr> {
    let mut p = Parser::new(lex(src, path)?, path);
    let e = p.expr()?;
    p.eat_newlines();
    if !p.at(&Tok::Eof) {
        return Err(p.err("trailing input after expression"));
    }
    Ok(e)
}

/// Keyword arguments of a call: `(name, value)` pairs in written order.
type KwArgs = Vec<(String, Expr)>;

struct Parser<'a> {
    toks: Vec<Spanned>,
    pos: usize,
    path: &'a str,
    /// Blocks and expressions open around the current token.
    depth: u32,
    /// Levels of syntax tree in the expression parsed last (an atom is 1).
    /// A run of left-associative operators or postfixes grows the tree
    /// downwards without the parser recursing, so `depth` alone would not
    /// see it.
    height: u32,
}

impl<'a> Parser<'a> {
    fn new(toks: Vec<Spanned>, path: &'a str) -> Parser<'a> {
        Parser {
            toks,
            pos: 0,
            path,
            depth: 0,
            height: 0,
        }
    }

    /// Enters a nested block or expression; the caller leaves it with
    /// `self.depth -= 1` (a parse error abandons the parser instead).
    fn nest(&mut self) -> Result<()> {
        self.depth += 1;
        self.check_nesting(0)
    }

    fn check_nesting(&self, below: u32) -> Result<()> {
        if self.depth + below > MAX_NESTING {
            return Err(self.err(format!("nested more than {MAX_NESTING} levels deep")));
        }
        Ok(())
    }

    /// Builds the expression `kind` over sub-expressions of which the
    /// tallest is `below` levels high.
    fn node(&mut self, line: u32, kind: ExprKind, below: u32) -> Result<Expr> {
        self.height = below + 1;
        self.check_nesting(self.height)?;
        Ok(Expr { line, kind })
    }

    fn bin(&mut self, line: u32, op: BinOp, lhs: Expr, lhs_height: u32, rhs: Expr) -> Result<Expr> {
        let kind = ExprKind::Bin(op, Box::new(lhs), Box::new(rhs));
        self.node(line, kind, lhs_height.max(self.height))
    }

    fn un(&mut self, line: u32, op: UnOp, operand: Expr) -> Result<Expr> {
        self.node(line, ExprKind::Un(op, Box::new(operand)), self.height)
    }

    fn cur(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn at(&self, t: &Tok) -> bool {
        self.cur() == t
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.cur(), Tok::Ident(s) if s == kw)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> CdslError {
        CdslError::new(ErrorKind::Parse(msg.into()), self.path, self.line())
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<()> {
        if self.at(t) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.cur())))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.cur().clone() {
            Tok::Ident(s) if !is_keyword(&s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_string(&mut self, what: &str) -> Result<String> {
        match self.cur().clone() {
            Tok::Str(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn eat_newlines(&mut self) {
        while self.at(&Tok::Newline) {
            self.bump();
        }
    }

    fn end_stmt(&mut self) -> Result<()> {
        if self.at(&Tok::Newline) {
            self.bump();
            Ok(())
        } else if self.at(&Tok::Eof) || self.at(&Tok::Dedent) {
            Ok(())
        } else {
            Err(self.err(format!("expected end of statement, found {:?}", self.cur())))
        }
    }

    fn stmt(&mut self) -> Result<Stmt> {
        self.eat_newlines();
        let line = self.line();
        let kind = if self.at_kw("import") {
            self.bump();
            let path = self.expect_string("import path")?;
            self.end_stmt()?;
            StmtKind::Import(path)
        } else if self.at_kw("schema") {
            self.bump();
            let path = self.expect_string("schema path")?;
            self.end_stmt()?;
            StmtKind::Schema(path)
        } else if self.at_kw("def") {
            self.bump();
            let def = self.func_def()?;
            StmtKind::Def(std::sync::Arc::new(def))
        } else if self.at_kw("return") {
            self.bump();
            let value = if self.at(&Tok::Newline) || self.at(&Tok::Eof) || self.at(&Tok::Dedent) {
                None
            } else {
                Some(self.expr()?)
            };
            self.end_stmt()?;
            StmtKind::Return(value)
        } else if self.at_kw("if") {
            self.bump();
            self.if_stmt()?
        } else if self.at_kw("for") {
            self.bump();
            let var = self.expect_ident("loop variable")?;
            if !self.at_kw("in") {
                return Err(self.err("expected 'in' in for statement"));
            }
            self.bump();
            let iter = self.expr()?;
            self.expect(&Tok::Colon, "':'")?;
            let body = self.block()?;
            StmtKind::For { var, iter, body }
        } else if matches!(self.cur(), Tok::Ident(s) if !is_keyword(s))
            && self.toks.get(self.pos + 1).map(|s| &s.tok) == Some(&Tok::Assign)
        {
            let name = self.expect_ident("name")?;
            self.bump(); // `=`
            let value = self.expr()?;
            self.end_stmt()?;
            StmtKind::Assign { name, value }
        } else {
            let e = self.expr()?;
            self.end_stmt()?;
            StmtKind::Expr(e)
        };
        Ok(Stmt { line, kind })
    }

    fn if_stmt(&mut self) -> Result<StmtKind> {
        let cond = self.expr()?;
        self.expect(&Tok::Colon, "':'")?;
        let then = self.block()?;
        let otherwise = if self.at_kw("elif") {
            // An `elif` arm is an `if` nested in the `else` of the last.
            let line = self.line();
            self.bump();
            self.nest()?;
            let inner = self.if_stmt()?;
            self.depth -= 1;
            vec![Stmt { line, kind: inner }]
        } else if self.at_kw("else") {
            self.bump();
            self.expect(&Tok::Colon, "':'")?;
            self.block()?
        } else {
            Vec::new()
        };
        Ok(StmtKind::If {
            cond,
            then,
            otherwise,
        })
    }

    fn func_def(&mut self) -> Result<FuncDef> {
        let name = self.expect_ident("function name")?;
        self.expect(&Tok::LParen, "'('")?;
        let mut params = Vec::new();
        let mut seen_default = false;
        while !self.at(&Tok::RParen) {
            let pname = self.expect_ident("parameter name")?;
            let default = if self.at(&Tok::Assign) {
                self.bump();
                seen_default = true;
                Some(self.expr()?)
            } else {
                if seen_default {
                    return Err(self.err("parameter without default after one with default"));
                }
                None
            };
            params.push(Param {
                name: pname,
                default,
            });
            if self.at(&Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&Tok::RParen, "')'")?;
        self.expect(&Tok::Colon, "':'")?;
        let body = self.block()?;
        Ok(FuncDef { name, params, body })
    }

    /// Parses an indented block: NEWLINE INDENT stmt+ DEDENT.
    fn block(&mut self) -> Result<Vec<Stmt>> {
        self.nest()?;
        self.expect(&Tok::Newline, "newline before block")?;
        self.expect(&Tok::Indent, "indented block")?;
        let mut stmts = Vec::new();
        loop {
            self.eat_newlines();
            if self.at(&Tok::Dedent) {
                self.bump();
                break;
            }
            if self.at(&Tok::Eof) {
                return Err(self.err("unexpected end of input in block"));
            }
            stmts.push(self.stmt()?);
        }
        if stmts.is_empty() {
            return Err(self.err("empty block"));
        }
        self.depth -= 1;
        Ok(stmts)
    }

    fn expr(&mut self) -> Result<Expr> {
        self.nest()?;
        let line = self.line();
        let mut value = self.or_expr()?;
        // Python-style conditional expression: `a if cond else b`.
        if self.at_kw("if") {
            let mut below = self.height;
            self.bump();
            let cond = self.or_expr()?;
            below = below.max(self.height);
            if !self.at_kw("else") {
                return Err(self.err("expected 'else' in conditional expression"));
            }
            self.bump();
            let otherwise = self.expr()?;
            below = below.max(self.height);
            let kind = ExprKind::Cond {
                then: Box::new(value),
                cond: Box::new(cond),
                otherwise: Box::new(otherwise),
            };
            value = self.node(line, kind, below)?;
        }
        self.depth -= 1;
        Ok(value)
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.at_kw("or") {
            let (line, lhs_height) = (self.line(), self.height);
            self.bump();
            let rhs = self.and_expr()?;
            lhs = self.bin(line, BinOp::Or, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.at_kw("and") {
            let (line, lhs_height) = (self.line(), self.height);
            self.bump();
            let rhs = self.not_expr()?;
            lhs = self.bin(line, BinOp::And, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.at_kw("not") {
            let line = self.line();
            self.bump();
            self.nest()?;
            let e = self.not_expr()?;
            self.depth -= 1;
            return self.un(line, UnOp::Not, e);
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        let (line, lhs_height) = (self.line(), self.height);
        let op = match self.cur() {
            Tok::Eq => Some(BinOp::Eq),
            Tok::Ne => Some(BinOp::Ne),
            Tok::Lt => Some(BinOp::Lt),
            Tok::Le => Some(BinOp::Le),
            Tok::Gt => Some(BinOp::Gt),
            Tok::Ge => Some(BinOp::Ge),
            Tok::Ident(s) if s == "in" => Some(BinOp::In),
            Tok::Ident(s) if s == "not" => {
                // `a not in b`
                if matches!(
                    self.toks.get(self.pos + 1).map(|s| &s.tok),
                    Some(Tok::Ident(k)) if k == "in"
                ) {
                    self.bump();
                    self.bump();
                    let rhs = self.add_expr()?;
                    let inner = self.bin(line, BinOp::In, lhs, lhs_height, rhs)?;
                    return self.un(line, UnOp::Not, inner);
                }
                None
            }
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let rhs = self.add_expr()?;
                self.bin(line, op, lhs, lhs_height, rhs)
            }
            None => Ok(lhs),
        }
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let (line, lhs_height) = (self.line(), self.height);
            let op = match self.cur() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = self.bin(line, op, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (line, lhs_height) = (self.line(), self.height);
            let op = match self.cur() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = self.bin(line, op, lhs, lhs_height, rhs)?;
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.at(&Tok::Minus) {
            let line = self.line();
            self.bump();
            self.nest()?;
            let e = self.unary_expr()?;
            self.depth -= 1;
            return self.un(line, UnOp::Neg, e);
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr> {
        let mut e = self.atom()?;
        loop {
            let (line, base_height) = (self.line(), self.height);
            // Each arm: the node, and the height of what it adds beside `e`.
            let (kind, beside) = match self.cur() {
                Tok::LParen => {
                    self.bump();
                    let (args, kwargs) = self.call_args()?;
                    let callee = Box::new(e);
                    let kind = ExprKind::Call {
                        callee,
                        args,
                        kwargs,
                    };
                    (kind, self.height)
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(&Tok::RBracket, "']'")?;
                    (ExprKind::Index(Box::new(e), Box::new(idx)), self.height)
                }
                Tok::Dot => {
                    self.bump();
                    let name = self.expect_ident("attribute name")?;
                    (ExprKind::Attr(Box::new(e), name), 0)
                }
                _ => break,
            };
            e = self.node(line, kind, base_height.max(beside))?;
        }
        Ok(e)
    }

    /// Parses call arguments, leaving the height of the tallest in
    /// `self.height`.
    fn call_args(&mut self) -> Result<(Vec<Expr>, KwArgs)> {
        let mut args = Vec::new();
        let mut kwargs: Vec<(String, Expr)> = Vec::new();
        let mut tallest = 0;
        while !self.at(&Tok::RParen) {
            // Lookahead for `name=`.
            let is_kw = matches!(self.cur(), Tok::Ident(s) if !is_keyword(s))
                && self.toks.get(self.pos + 1).map(|s| &s.tok) == Some(&Tok::Assign);
            if is_kw {
                let name = self.expect_ident("keyword argument")?;
                self.bump(); // `=`
                let value = self.expr()?;
                if kwargs.iter().any(|(n, _)| *n == name) {
                    return Err(self.err(format!("duplicate keyword argument: {name}")));
                }
                kwargs.push((name, value));
            } else {
                if !kwargs.is_empty() {
                    return Err(self.err("positional argument after keyword argument"));
                }
                args.push(self.expr()?);
            }
            tallest = tallest.max(self.height);
            if self.at(&Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&Tok::RParen, "')'")?;
        self.height = tallest;
        Ok((args, kwargs))
    }

    fn atom(&mut self) -> Result<Expr> {
        let line = self.line();
        let mut below = 0;
        let kind = match self.cur().clone() {
            Tok::Int(v) => {
                self.bump();
                ExprKind::Int(v)
            }
            Tok::Float(v) => {
                self.bump();
                ExprKind::Float(v)
            }
            Tok::Str(s) => {
                self.bump();
                ExprKind::Str(s)
            }
            Tok::Ident(s) if s == "true" => {
                self.bump();
                ExprKind::Bool(true)
            }
            Tok::Ident(s) if s == "false" => {
                self.bump();
                ExprKind::Bool(false)
            }
            Tok::Ident(s) if s == "null" => {
                self.bump();
                ExprKind::Null
            }
            Tok::Ident(s) if !is_keyword(&s) => {
                self.bump();
                if self.at(&Tok::LBrace) {
                    self.bump();
                    let fields = self.struct_fields()?;
                    below = self.height;
                    ExprKind::Struct { name: s, fields }
                } else {
                    ExprKind::Name(s)
                }
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen, "')'")?;
                return Ok(e);
            }
            Tok::LBracket => {
                self.bump();
                let mut items = Vec::new();
                while !self.at(&Tok::RBracket) {
                    items.push(self.expr()?);
                    below = below.max(self.height);
                    if self.at(&Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::RBracket, "']'")?;
                ExprKind::List(items)
            }
            Tok::LBrace => {
                self.bump();
                let mut items = Vec::new();
                while !self.at(&Tok::RBrace) {
                    let k = self.expr()?;
                    below = below.max(self.height);
                    self.expect(&Tok::Colon, "':' in dict literal")?;
                    let v = self.expr()?;
                    below = below.max(self.height);
                    items.push((k, v));
                    if self.at(&Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::RBrace, "'}'")?;
                ExprKind::Dict(items)
            }
            other => return Err(self.err(format!("unexpected token: {other:?}"))),
        };
        self.node(line, kind, below)
    }

    /// Parses struct literal fields, leaving the height of the tallest in
    /// `self.height`.
    fn struct_fields(&mut self) -> Result<Vec<(String, Expr)>> {
        let mut fields: Vec<(String, Expr)> = Vec::new();
        let mut tallest = 0;
        while !self.at(&Tok::RBrace) {
            let name = self.expect_ident("field name")?;
            self.expect(&Tok::Colon, "':' in struct literal")?;
            let value = self.expr()?;
            tallest = tallest.max(self.height);
            if fields.iter().any(|(n, _)| *n == name) {
                return Err(self.err(format!("duplicate field: {name}")));
            }
            fields.push((name, value));
            if self.at(&Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&Tok::RBrace, "'}'")?;
        self.height = tallest;
        Ok(fields)
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "import"
            | "schema"
            | "def"
            | "return"
            | "if"
            | "elif"
            | "else"
            | "for"
            | "in"
            | "and"
            | "or"
            | "not"
            | "true"
            | "false"
            | "null"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(src: &str) -> Module {
        parse(src, "t").unwrap()
    }

    #[test]
    fn assignment_and_expression_statements() {
        let m = p("x = 1 + 2 * 3\nexport_if_last(x)");
        assert_eq!(m.stmts.len(), 2);
        assert!(matches!(&m.stmts[0].kind, StmtKind::Assign { name, .. } if name == "x"));
        assert!(matches!(&m.stmts[1].kind, StmtKind::Expr(_)));
    }

    #[test]
    fn precedence_mul_over_add() {
        let m = p("x = 1 + 2 * 3");
        let StmtKind::Assign { value, .. } = &m.stmts[0].kind else {
            panic!()
        };
        let ExprKind::Bin(BinOp::Add, _, rhs) = &value.kind else {
            panic!("expected +: {value:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Bin(BinOp::Mul, _, _)));
    }

    #[test]
    fn imports_and_schemas() {
        let m = p("import \"shared/ports.cinc\"\nschema \"job.schema\"");
        assert_eq!(
            m.stmts[0].kind,
            StmtKind::Import("shared/ports.cinc".into())
        );
        assert_eq!(m.stmts[1].kind, StmtKind::Schema("job.schema".into()));
    }

    #[test]
    fn function_with_defaults_and_kwargs_call() {
        let m = p("def create_job(name, memory_mb=1024):\n    return name\nj = create_job(name=\"cache\")");
        let StmtKind::Def(def) = &m.stmts[0].kind else {
            panic!()
        };
        assert_eq!(def.params.len(), 2);
        assert!(def.params[0].default.is_none());
        assert!(def.params[1].default.is_some());
        let StmtKind::Assign { value, .. } = &m.stmts[1].kind else {
            panic!()
        };
        let ExprKind::Call { kwargs, .. } = &value.kind else {
            panic!()
        };
        assert_eq!(kwargs[0].0, "name");
    }

    #[test]
    fn non_default_after_default_rejected() {
        assert!(parse("def f(a=1, b):\n    return a\n", "t").is_err());
    }

    #[test]
    fn struct_literal() {
        let m = p("j = Job {\n    name: \"cache\",\n    replicas: 3,\n}");
        let StmtKind::Assign { value, .. } = &m.stmts[0].kind else {
            panic!()
        };
        let ExprKind::Struct { name, fields } = &value.kind else {
            panic!()
        };
        assert_eq!(name, "Job");
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn duplicate_struct_field_rejected() {
        assert!(parse("j = Job { a: 1, a: 2 }", "t").is_err());
    }

    #[test]
    fn if_elif_else_chain() {
        let m = p("if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3");
        let StmtKind::If { otherwise, .. } = &m.stmts[0].kind else {
            panic!()
        };
        assert_eq!(otherwise.len(), 1);
        let StmtKind::If { otherwise: o2, .. } = &otherwise[0].kind else {
            panic!("elif should nest as If")
        };
        assert_eq!(o2.len(), 1);
    }

    #[test]
    fn for_loop() {
        let m = p("for x in range(3):\n    y = x");
        assert!(matches!(&m.stmts[0].kind, StmtKind::For { var, .. } if var == "x"));
    }

    #[test]
    fn conditional_expression() {
        let m = p("x = 1 if flag else 2");
        let StmtKind::Assign { value, .. } = &m.stmts[0].kind else {
            panic!()
        };
        assert!(matches!(&value.kind, ExprKind::Cond { .. }));
    }

    #[test]
    fn not_in_operator() {
        let m = p("x = a not in b");
        let StmtKind::Assign { value, .. } = &m.stmts[0].kind else {
            panic!()
        };
        let ExprKind::Un(UnOp::Not, inner) = &value.kind else {
            panic!()
        };
        assert!(matches!(inner.kind, ExprKind::Bin(BinOp::In, _, _)));
    }

    #[test]
    fn dict_and_list_literals() {
        let m = p("x = {\"a\": [1, 2], \"b\": {}}");
        let StmtKind::Assign { value, .. } = &m.stmts[0].kind else {
            panic!()
        };
        let ExprKind::Dict(items) = &value.kind else {
            panic!()
        };
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn attribute_and_index_postfix() {
        let m = p("x = cfg.jobs[0].name");
        let StmtKind::Assign { value, .. } = &m.stmts[0].kind else {
            panic!()
        };
        assert!(matches!(&value.kind, ExprKind::Attr(_, name) if name == "name"));
    }

    #[test]
    fn parse_expr_rejects_trailing() {
        assert!(parse_expr("1 + 2", "t").is_ok());
        assert!(parse_expr("1 + 2 extra", "t").is_err());
    }

    #[test]
    fn keyword_as_name_rejected() {
        assert!(parse("def = 1", "t").is_err());
        assert!(parse("x = return", "t").is_err());
    }

    #[test]
    fn positional_after_keyword_rejected() {
        assert!(parse("x = f(a=1, 2)", "t").is_err());
    }

    #[test]
    fn the_parser_knows_how_tall_the_tree_it_built_is() {
        fn height(e: &Expr) -> u32 {
            let mut below = 0;
            e.for_each_child(&mut |child| below = below.max(height(child)));
            below + 1
        }
        // Every node kind, with its tallest operand in each position.
        for src in [
            "1",
            "((x))",
            "[1, [2, [3]], 4]",
            "{\"a\": {\"b\": 1}, [\"k\"][0]: 2}",
            "T { a: 1, b: U { c: [2] } }",
            "1 + 2 * 3 - (4 + (5 + 6))",
            "a or b and not c == d",
            "x not in [[y]]",
            "- - -x",
            "f(g(h(1)), k=[[2]])(3)",
            "f(k=g(h(1)))",
            "a[b[c[0]]].d.e[1]",
            "[[1]] if [2] else 3",
            "1 if [[2]] else 3",
            "1 if 2 else 3 if 4 else [[5]]",
        ] {
            let mut p = Parser::new(lex(src, "t").unwrap(), "t");
            let e = p.expr().unwrap();
            assert_eq!(p.height, height(&e), "{src}");
            assert_eq!(p.depth, 0, "{src}");
        }
        // The bound is on the whole tree, blocks included.
        let deep = format!("if a:\n    x = {}1{}", "[".repeat(37), "]".repeat(37));
        assert!(parse(&deep, "t").is_ok());
        let deeper = format!("if a:\n    x = {}1{}", "[".repeat(38), "]".repeat(38));
        let e = parse(&deeper, "t").unwrap_err();
        assert!(e.message().contains("nested more than 40"), "{e}");
    }

    #[test]
    fn multiline_call_via_parens() {
        let m = p("x = f(\n    1,\n    2,\n)");
        let StmtKind::Assign { value, .. } = &m.stmts[0].kind else {
            panic!()
        };
        let ExprKind::Call { args, .. } = &value.kind else {
            panic!()
        };
        assert_eq!(args.len(), 2);
    }
}
