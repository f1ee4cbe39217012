//! Recursive-descent parser for the Spider/BIRD SELECT dialect.
//!
//! Grammar (informal):
//!
//! ```text
//! query      := select_core (setop select_core)* order? limit?
//! setop      := UNION [ALL] | INTERSECT | EXCEPT
//! select_core:= SELECT [DISTINCT] items [FROM from] [WHERE expr]
//!               [GROUP BY exprs [HAVING expr]]
//! from       := table_ref (join)*
//! join       := ',' table_ref
//!             | [INNER|LEFT [OUTER]|RIGHT [OUTER]|CROSS] JOIN table_ref [ON expr]
//! expr       := or_expr  (standard precedence: OR < AND < NOT < cmp < add < mul < unary)
//! ```

use crate::ast::*;
use crate::error::{Error, Result};
use crate::lexer::tokenize;
use crate::token::{Keyword as K, Symbol as S, Token, TokenKind as T};

/// Parse a single SQL query (a SELECT statement, possibly compound).
///
/// Trailing semicolons are permitted; any other trailing tokens are an error.
pub fn parse_query(src: &str) -> Result<Query> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0, depth: 0, peak: 0 };
    let q = p.parse_query()?;
    p.eat_symbol(S::Semicolon);
    p.expect_eof()?;
    Ok(q)
}

/// Deepest nesting of expressions and subqueries [`parse_query`] accepts;
/// anything deeper is an [`ErrorKind::NestingTooDeep`](crate::ErrorKind)
/// error instead of a stack overflow. It bounds the parser's own recursion
/// and the height of the AST it returns, and with that every recursive walk
/// downstream (printer, analyzer, minidb's bind step and plan compiler,
/// evaluators, `Drop`). Sized
/// for a 2 MiB thread stack: one parenthesis level costs the parser nine
/// frames, 4–6 KiB measured, so the deepest accepted input needs under
/// 768 KiB and leaves the rest to the caller and the later walks. Generated
/// and gold queries nest under 10 deep.
pub const MAX_NESTING: usize = 128;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// How many [`Parser::nested`] scopes enclose the current position.
    depth: usize,
    /// Height of the tallest subtree finished inside the current scope.
    peak: usize,
}

impl Parser {
    /// Parse one nesting level down. Every cycle in this grammar passes
    /// through here, so `depth` bounds the recursion on the way down. On the
    /// way up the scope's height lands in the parent's `peak`: a left-deep
    /// operator chain (`1 + 1 + 1 + …`) is built by a loop, never recurses,
    /// and still nests the AST one level per operator — [`Parser::grow`]
    /// accounts for those.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(Error::nesting_too_deep(self.offset(), MAX_NESTING));
        }
        let siblings = std::mem::take(&mut self.peak);
        let out = f(self)?;
        self.depth -= 1;
        self.grow()?;
        self.peak = self.peak.max(siblings);
        Ok(out)
    }

    /// One more AST level on top of everything finished in this scope.
    fn grow(&mut self) -> Result<()> {
        self.peak += 1;
        if self.depth + self.peak > MAX_NESTING {
            return Err(Error::nesting_too_deep(self.offset(), MAX_NESTING));
        }
        Ok(())
    }

    fn peek(&self) -> &T {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, ahead: usize) -> &T {
        let i = (self.pos + ahead).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> T {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: K) -> bool {
        if matches!(self.peek(), T::Keyword(k) if *k == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: K) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::new(
                self.offset(),
                format!("expected {}, found {}", kw.as_str(), self.peek()),
            ))
        }
    }

    fn eat_symbol(&mut self, sym: S) -> bool {
        if matches!(self.peek(), T::Symbol(s) if *s == sym) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: S) -> Result<()> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(Error::new(self.offset(), format!("expected `{sym}`, found {}", self.peek())))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if matches!(self.peek(), T::Eof) {
            Ok(())
        } else {
            Err(Error::new(self.offset(), format!("unexpected trailing token {}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            T::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(Error::new(self.offset(), format!("expected identifier, found {other}"))),
        }
    }

    // ---- query level ----

    fn parse_query(&mut self) -> Result<Query> {
        self.nested(Self::parse_query_body)
    }

    fn parse_query_body(&mut self) -> Result<Query> {
        let body = self.parse_select_core()?;
        let mut set_ops = Vec::new();
        loop {
            let op = if self.eat_kw(K::Union) {
                if self.eat_kw(K::All) {
                    SetOp::UnionAll
                } else {
                    SetOp::Union
                }
            } else if self.eat_kw(K::Intersect) {
                SetOp::Intersect
            } else if self.eat_kw(K::Except) {
                SetOp::Except
            } else {
                break;
            };
            set_ops.push((op, self.parse_select_core()?));
        }
        let order_by = self.parse_order_by()?;
        let limit = self.parse_limit()?;
        Ok(Query { body, set_ops, order_by, limit })
    }

    fn parse_order_by(&mut self) -> Result<Vec<OrderKey>> {
        if !self.eat_kw(K::Order) {
            return Ok(Vec::new());
        }
        self.expect_kw(K::By)?;
        let mut keys = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            let desc = if self.eat_kw(K::Desc) {
                true
            } else {
                self.eat_kw(K::Asc);
                false
            };
            keys.push(OrderKey { expr, desc });
            if !self.eat_symbol(S::Comma) {
                break;
            }
        }
        Ok(keys)
    }

    fn parse_limit(&mut self) -> Result<Option<Limit>> {
        if !self.eat_kw(K::Limit) {
            return Ok(None);
        }
        let count = self.expect_nonneg_int("LIMIT")?;
        let mut offset = 0;
        if self.eat_kw(K::Offset) {
            offset = self.expect_nonneg_int("OFFSET")?;
        } else if self.eat_symbol(S::Comma) {
            // `LIMIT off, count` SQLite form
            let second = self.expect_nonneg_int("LIMIT")?;
            return Ok(Some(Limit { count: second, offset: count }));
        }
        Ok(Some(Limit { count, offset }))
    }

    fn expect_nonneg_int(&mut self, what: &str) -> Result<u64> {
        match self.peek().clone() {
            T::Int(v) if v >= 0 => {
                self.bump();
                Ok(v as u64)
            }
            other => Err(Error::new(
                self.offset(),
                format!("expected non-negative integer after {what}, found {other}"),
            )),
        }
    }

    fn parse_select_core(&mut self) -> Result<SelectCore> {
        self.expect_kw(K::Select)?;
        let distinct = self.eat_kw(K::Distinct);
        let mut items = vec![self.parse_select_item()?];
        while self.eat_symbol(S::Comma) {
            items.push(self.parse_select_item()?);
        }
        let from = if self.eat_kw(K::From) { Some(self.parse_from()?) } else { None };
        let where_clause = if self.eat_kw(K::Where) { Some(self.parse_expr()?) } else { None };
        let mut group_by = Vec::new();
        let mut having = None;
        if self.eat_kw(K::Group) {
            self.expect_kw(K::By)?;
            group_by.push(self.parse_expr()?);
            while self.eat_symbol(S::Comma) {
                group_by.push(self.parse_expr()?);
            }
            if self.eat_kw(K::Having) {
                having = Some(self.parse_expr()?);
            }
        }
        Ok(SelectCore { distinct, items, from, where_clause, group_by, having })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.eat_symbol(S::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `t.*`
        if let (T::Ident(name), T::Symbol(S::Dot), T::Symbol(S::Star)) =
            (self.peek(), self.peek_at(1), self.peek_at(2))
        {
            let name = name.clone();
            self.bump();
            self.bump();
            self.bump();
            return Ok(SelectItem::QualifiedWildcard(name));
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_kw(K::As) {
            Some(self.expect_ident()?)
        } else if let T::Ident(name) = self.peek() {
            // bare alias (not followed by `.` which would be a new expression)
            let name = name.clone();
            self.bump();
            Some(name)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    // ---- FROM / joins ----

    fn parse_from(&mut self) -> Result<FromClause> {
        let base = self.parse_table_ref()?;
        let mut joins = Vec::new();
        loop {
            if self.eat_symbol(S::Comma) {
                let table = self.parse_table_ref()?;
                joins.push(Join { kind: JoinKind::Inner, table, on: None });
                continue;
            }
            let kind = if self.eat_kw(K::Join) {
                JoinKind::Inner
            } else if self.eat_kw(K::Inner) {
                self.expect_kw(K::Join)?;
                JoinKind::Inner
            } else if self.eat_kw(K::Left) {
                self.eat_kw(K::Outer);
                self.expect_kw(K::Join)?;
                JoinKind::Left
            } else if self.eat_kw(K::Right) {
                self.eat_kw(K::Outer);
                self.expect_kw(K::Join)?;
                JoinKind::Right
            } else if self.eat_kw(K::Cross) {
                self.expect_kw(K::Join)?;
                JoinKind::Cross
            } else {
                break;
            };
            let table = self.parse_table_ref()?;
            let on = if self.eat_kw(K::On) { Some(self.parse_expr()?) } else { None };
            joins.push(Join { kind, table, on });
        }
        Ok(FromClause { base, joins })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        if self.eat_symbol(S::LParen) {
            let query = Box::new(self.parse_query()?);
            self.expect_symbol(S::RParen)?;
            let alias = self.parse_opt_alias()?;
            return Ok(TableRef::Subquery { query, alias });
        }
        let name = self.expect_ident()?;
        let alias = self.parse_opt_alias()?;
        Ok(TableRef::Named { name, alias })
    }

    fn parse_opt_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw(K::As) {
            return Ok(Some(self.expect_ident()?));
        }
        if let T::Ident(name) = self.peek() {
            let name = name.clone();
            self.bump();
            return Ok(Some(name));
        }
        Ok(None)
    }

    // ---- expressions (precedence climbing) ----

    fn parse_expr(&mut self) -> Result<Expr> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_kw(K::Or) {
            let right = self.parse_and()?;
            self.grow()?;
            left = Expr::binary(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_kw(K::And) {
            let right = self.parse_not()?;
            self.grow()?;
            left = Expr::binary(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_kw(K::Not) {
            let inner = self.nested(Self::parse_not)?;
            return Ok(Expr::Unary { op: UnOp::Not, expr: Box::new(inner) });
        }
        self.parse_predicate()
    }

    /// Comparison operators plus the SQL predicates BETWEEN / IN / LIKE /
    /// IS NULL, which all bind looser than arithmetic.
    fn parse_predicate(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;
        let operand_end = self.pos;
        let expr = self.parse_predicate_tail(left)?;
        // tokens past the operand mean it was wrapped in a predicate node
        if self.pos != operand_end {
            self.grow()?;
        }
        Ok(expr)
    }

    fn parse_predicate_tail(&mut self, left: Expr) -> Result<Expr> {
        // optional NOT before BETWEEN/IN/LIKE
        let negated = if matches!(self.peek(), T::Keyword(K::Not))
            && matches!(self.peek_at(1), T::Keyword(K::Between | K::In | K::Like))
        {
            self.bump();
            true
        } else {
            false
        };
        if self.eat_kw(K::Between) {
            let low = self.parse_additive()?;
            self.expect_kw(K::And)?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                negated,
                low: Box::new(low),
                high: Box::new(high),
            });
        }
        if self.eat_kw(K::In) {
            self.expect_symbol(S::LParen)?;
            if matches!(self.peek(), T::Keyword(K::Select)) {
                let query = Box::new(self.parse_query()?);
                self.expect_symbol(S::RParen)?;
                return Ok(Expr::InSubquery { expr: Box::new(left), negated, query });
            }
            let mut list = vec![self.parse_expr()?];
            while self.eat_symbol(S::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect_symbol(S::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), negated, list });
        }
        if self.eat_kw(K::Like) {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like { expr: Box::new(left), negated, pattern: Box::new(pattern) });
        }
        if negated {
            return Err(Error::new(self.offset(), "expected BETWEEN, IN or LIKE after NOT"));
        }
        if self.eat_kw(K::Is) {
            let negated = self.eat_kw(K::Not);
            self.expect_kw(K::Null)?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        let op = match self.peek() {
            T::Symbol(S::Eq) => Some(BinOp::Eq),
            T::Symbol(S::NotEq) => Some(BinOp::NotEq),
            T::Symbol(S::Lt) => Some(BinOp::Lt),
            T::Symbol(S::LtEq) => Some(BinOp::LtEq),
            T::Symbol(S::Gt) => Some(BinOp::Gt),
            T::Symbol(S::GtEq) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.parse_additive()?;
            return Ok(Expr::binary(op, left, right));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                T::Symbol(S::Plus) => BinOp::Add,
                T::Symbol(S::Minus) => BinOp::Sub,
                T::Symbol(S::Concat) => BinOp::Concat,
                _ => break,
            };
            self.bump();
            let right = self.parse_multiplicative()?;
            self.grow()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                T::Symbol(S::Star) => BinOp::Mul,
                T::Symbol(S::Slash) => BinOp::Div,
                T::Symbol(S::Percent) => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let right = self.parse_unary()?;
            self.grow()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_symbol(S::Minus) {
            let inner = self.nested(Self::parse_unary)?;
            // fold negation of literals for cleaner ASTs
            return Ok(match inner {
                Expr::Literal(Literal::Int(v)) => Expr::Literal(Literal::Int(-v)),
                Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
                other => Expr::Unary { op: UnOp::Neg, expr: Box::new(other) },
            });
        }
        if self.eat_symbol(S::Plus) {
            return self.nested(Self::parse_unary);
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            T::Int(v) => {
                self.bump();
                Ok(Expr::Literal(Literal::Int(v)))
            }
            T::Float(v) => {
                self.bump();
                Ok(Expr::Literal(Literal::Float(v)))
            }
            T::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Literal::Str(s)))
            }
            T::Keyword(K::Null) => {
                self.bump();
                Ok(Expr::Literal(Literal::Null))
            }
            T::Keyword(K::True) => {
                self.bump();
                Ok(Expr::Literal(Literal::Bool(true)))
            }
            T::Keyword(K::False) => {
                self.bump();
                Ok(Expr::Literal(Literal::Bool(false)))
            }
            T::Keyword(K::Exists) => {
                self.bump();
                self.expect_symbol(S::LParen)?;
                let query = Box::new(self.parse_query()?);
                self.expect_symbol(S::RParen)?;
                Ok(Expr::Exists { negated: false, query })
            }
            T::Keyword(K::Not) => {
                // NOT EXISTS reaches here via parse_not; handle inline anyway
                self.bump();
                self.expect_kw(K::Exists)?;
                self.expect_symbol(S::LParen)?;
                let query = Box::new(self.parse_query()?);
                self.expect_symbol(S::RParen)?;
                Ok(Expr::Exists { negated: true, query })
            }
            T::Keyword(K::Case) => self.parse_case(),
            T::Keyword(K::Cast) => self.parse_cast(),
            T::Symbol(S::LParen) => {
                self.bump();
                if matches!(self.peek(), T::Keyword(K::Select)) {
                    let query = Box::new(self.parse_query()?);
                    self.expect_symbol(S::RParen)?;
                    Ok(Expr::Subquery(query))
                } else {
                    let inner = self.parse_expr()?;
                    self.expect_symbol(S::RParen)?;
                    Ok(inner)
                }
            }
            T::Ident(name) => {
                self.bump();
                // function call?
                if self.eat_symbol(S::LParen) {
                    return self.parse_call(name);
                }
                // qualified column?
                if self.eat_symbol(S::Dot) {
                    let column = self.expect_ident()?;
                    return Ok(Expr::Column { table: Some(name), column });
                }
                Ok(Expr::Column { table: None, column: name })
            }
            other => Err(Error::new(self.offset(), format!("unexpected token {other}"))),
        }
    }

    fn parse_call(&mut self, name: String) -> Result<Expr> {
        if let Some(func) = AggFunc::from_name(&name) {
            // COUNT(*)
            if self.eat_symbol(S::Star) {
                self.expect_symbol(S::RParen)?;
                return Ok(Expr::AggWildcard(func));
            }
            let distinct = self.eat_kw(K::Distinct);
            let arg = self.parse_expr()?;
            self.expect_symbol(S::RParen)?;
            return Ok(Expr::Agg { func, distinct, arg: Box::new(arg) });
        }
        let mut args = Vec::new();
        if !self.eat_symbol(S::RParen) {
            args.push(self.parse_expr()?);
            while self.eat_symbol(S::Comma) {
                args.push(self.parse_expr()?);
            }
            self.expect_symbol(S::RParen)?;
        }
        Ok(Expr::Func { name: name.to_ascii_uppercase(), args })
    }

    fn parse_case(&mut self) -> Result<Expr> {
        self.expect_kw(K::Case)?;
        let operand = if matches!(self.peek(), T::Keyword(K::When)) {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_kw(K::When) {
            let when = self.parse_expr()?;
            self.expect_kw(K::Then)?;
            let then = self.parse_expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(Error::new(self.offset(), "CASE requires at least one WHEN branch"));
        }
        let else_expr =
            if self.eat_kw(K::Else) { Some(Box::new(self.parse_expr()?)) } else { None };
        self.expect_kw(K::End)?;
        Ok(Expr::Case { operand, branches, else_expr })
    }

    fn parse_cast(&mut self) -> Result<Expr> {
        self.expect_kw(K::Cast)?;
        self.expect_symbol(S::LParen)?;
        let expr = Box::new(self.parse_expr()?);
        self.expect_kw(K::As)?;
        let ty = self.expect_ident()?.to_ascii_uppercase();
        self.expect_symbol(S::RParen)?;
        Ok(Expr::Cast { expr, ty })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(src: &str) -> Query {
        parse_query(src).unwrap_or_else(|e| panic!("parse `{src}`: {e}"))
    }

    #[test]
    fn minimal_select() {
        let q = p("SELECT 1");
        assert_eq!(q.body.items.len(), 1);
        assert!(q.body.from.is_none());
    }

    #[test]
    fn select_star_from() {
        let q = p("SELECT * FROM singer");
        assert!(matches!(q.body.items[0], SelectItem::Wildcard));
        assert_eq!(q.body.from.unwrap().base.binding(), Some("singer"));
    }

    #[test]
    fn qualified_wildcard() {
        let q = p("SELECT T1.* FROM singer AS T1");
        assert!(matches!(&q.body.items[0], SelectItem::QualifiedWildcard(t) if t == "T1"));
    }

    #[test]
    fn distinct_and_aliases() {
        let q = p("SELECT DISTINCT name AS n, age a FROM singer s");
        assert!(q.body.distinct);
        let items = &q.body.items;
        assert!(matches!(&items[0], SelectItem::Expr { alias: Some(a), .. } if a == "n"));
        assert!(matches!(&items[1], SelectItem::Expr { alias: Some(a), .. } if a == "a"));
    }

    #[test]
    fn joins_with_on() {
        let q = p(
            "SELECT T1.name FROM singer AS T1 JOIN concert AS T2 ON T1.id = T2.singer_id \
             LEFT JOIN city AS T3 ON T2.city_id = T3.id",
        );
        let from = q.body.from.unwrap();
        assert_eq!(from.joins.len(), 2);
        assert_eq!(from.joins[0].kind, JoinKind::Inner);
        assert_eq!(from.joins[1].kind, JoinKind::Left);
        assert!(from.joins[1].on.is_some());
    }

    #[test]
    fn comma_join() {
        let q = p("SELECT * FROM a, b WHERE a.x = b.y");
        let from = q.body.from.unwrap();
        assert_eq!(from.joins.len(), 1);
        assert!(from.joins[0].on.is_none());
    }

    #[test]
    fn group_by_having_order_limit() {
        let q = p(
            "SELECT country, COUNT(*) FROM singer GROUP BY country \
             HAVING COUNT(*) > 3 ORDER BY COUNT(*) DESC LIMIT 5",
        );
        assert_eq!(q.body.group_by.len(), 1);
        assert!(q.body.having.is_some());
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].desc);
        assert_eq!(q.limit, Some(Limit { count: 5, offset: 0 }));
    }

    #[test]
    fn limit_offset_forms() {
        assert_eq!(p("SELECT 1 LIMIT 5 OFFSET 2").limit, Some(Limit { count: 5, offset: 2 }));
        assert_eq!(p("SELECT 1 LIMIT 2, 5").limit, Some(Limit { count: 5, offset: 2 }));
    }

    #[test]
    fn set_operations() {
        let q = p("SELECT name FROM a UNION SELECT name FROM b INTERSECT SELECT name FROM c");
        assert_eq!(q.set_ops.len(), 2);
        assert_eq!(q.set_ops[0].0, SetOp::Union);
        assert_eq!(q.set_ops[1].0, SetOp::Intersect);
    }

    #[test]
    fn union_all() {
        let q = p("SELECT 1 UNION ALL SELECT 2");
        assert_eq!(q.set_ops[0].0, SetOp::UnionAll);
    }

    #[test]
    fn in_subquery_and_exists() {
        let q = p(
            "SELECT name FROM singer WHERE id IN (SELECT singer_id FROM concert) \
             AND EXISTS (SELECT 1 FROM award WHERE award.singer_id = singer.id)",
        );
        let w = q.body.where_clause.unwrap();
        let mut in_sub = 0;
        let mut exists = 0;
        w.walk(false, &mut |e| match e {
            Expr::InSubquery { .. } => in_sub += 1,
            Expr::Exists { .. } => exists += 1,
            _ => {}
        });
        assert_eq!((in_sub, exists), (1, 1));
    }

    #[test]
    fn not_predicates() {
        let q = p("SELECT 1 FROM t WHERE a NOT IN (1, 2) AND b NOT LIKE '%x%' AND c NOT BETWEEN 1 AND 2 AND d IS NOT NULL");
        let w = q.body.where_clause.unwrap();
        let mut negs = 0;
        w.walk(false, &mut |e| match e {
            Expr::InList { negated: true, .. }
            | Expr::Like { negated: true, .. }
            | Expr::Between { negated: true, .. }
            | Expr::IsNull { negated: true, .. } => negs += 1,
            _ => {}
        });
        assert_eq!(negs, 4);
    }

    #[test]
    fn scalar_subquery_comparison() {
        let q = p("SELECT name FROM t WHERE age > (SELECT AVG(age) FROM t)");
        let w = q.body.where_clause.unwrap();
        assert!(matches!(w, Expr::Binary { op: BinOp::Gt, .. }));
    }

    #[test]
    fn from_subquery() {
        let q = p("SELECT x FROM (SELECT a AS x FROM t) AS sub WHERE x > 1");
        let from = q.body.from.unwrap();
        assert!(matches!(from.base, TableRef::Subquery { .. }));
        assert_eq!(from.base.binding(), Some("sub"));
    }

    #[test]
    fn case_when() {
        let q = p("SELECT CASE WHEN age > 18 THEN 'adult' ELSE 'minor' END FROM t");
        if let SelectItem::Expr { expr: Expr::Case { operand, branches, else_expr }, .. } =
            &q.body.items[0]
        {
            assert!(operand.is_none());
            assert_eq!(branches.len(), 1);
            assert!(else_expr.is_some());
        } else {
            panic!("expected CASE");
        }
    }

    #[test]
    fn case_with_operand() {
        let q = p("SELECT CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' END FROM t");
        if let SelectItem::Expr { expr: Expr::Case { operand, branches, .. }, .. } =
            &q.body.items[0]
        {
            assert!(operand.is_some());
            assert_eq!(branches.len(), 2);
        } else {
            panic!("expected CASE");
        }
    }

    #[test]
    fn iif_and_functions() {
        let q = p("SELECT IIF(a > b, 1, 0), ABS(x), ROUND(y, 2) FROM t");
        assert_eq!(q.body.items.len(), 3);
        assert!(
            matches!(&q.body.items[0], SelectItem::Expr { expr: Expr::Func { name, args }, .. } if name == "IIF" && args.len() == 3)
        );
    }

    #[test]
    fn cast() {
        let q = p("SELECT CAST(price AS REAL) FROM t");
        assert!(matches!(
            &q.body.items[0],
            SelectItem::Expr { expr: Expr::Cast { ty, .. }, .. } if ty == "REAL"
        ));
    }

    #[test]
    fn count_distinct() {
        let q = p("SELECT COUNT(DISTINCT country) FROM singer");
        assert!(matches!(
            &q.body.items[0],
            SelectItem::Expr { expr: Expr::Agg { func: AggFunc::Count, distinct: true, .. }, .. }
        ));
    }

    #[test]
    fn precedence_or_and() {
        // a = 1 OR b = 2 AND c = 3  ==>  a=1 OR (b=2 AND c=3)
        let q = p("SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3");
        if let Some(Expr::Binary { op: BinOp::Or, right, .. }) = q.body.where_clause {
            assert!(matches!(*right, Expr::Binary { op: BinOp::And, .. }));
        } else {
            panic!("expected OR at top");
        }
    }

    #[test]
    fn precedence_arith_vs_cmp() {
        // a + b * 2 > c  ==>  (a + (b*2)) > c
        let q = p("SELECT 1 FROM t WHERE a + b * 2 > c");
        if let Some(Expr::Binary { op: BinOp::Gt, left, .. }) = q.body.where_clause {
            if let Expr::Binary { op: BinOp::Add, right, .. } = *left {
                assert!(matches!(*right, Expr::Binary { op: BinOp::Mul, .. }));
            } else {
                panic!("expected + under >");
            }
        } else {
            panic!("expected > at top");
        }
    }

    #[test]
    fn negative_literals_fold() {
        let q = p("SELECT -5, -2.5 FROM t");
        assert!(matches!(
            &q.body.items[0],
            SelectItem::Expr { expr: Expr::Literal(Literal::Int(-5)), .. }
        ));
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse_query("SELECT 1;").is_ok());
    }

    #[test]
    fn trailing_garbage_errors() {
        assert!(parse_query("SELECT 1 garbage garbage").is_err());
        assert!(parse_query("SELECT 1 SELECT 2").is_err());
    }

    #[test]
    fn error_messages_have_offsets() {
        let err = parse_query("SELECT FROM t").unwrap_err();
        assert!(err.offset > 0);
    }

    #[test]
    fn not_exists() {
        let q = p("SELECT 1 FROM t WHERE NOT EXISTS (SELECT 1 FROM u)");
        // NOT EXISTS parses as Unary(Not, Exists) via parse_not
        let w = q.body.where_clause.unwrap();
        let mut saw = false;
        w.walk(false, &mut |e| {
            if matches!(e, Expr::Exists { .. }) {
                saw = true;
            }
        });
        assert!(saw);
    }

    #[test]
    fn deeply_nested_subqueries() {
        let q = p(
            "SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE b IN (SELECT c FROM v WHERE c > 0))",
        );
        let mut n = 0;
        crate::ast::walk_subqueries(&q, &mut |_| n += 1);
        assert_eq!(n, 3);
    }

    /// Every shape that nests: the budget admits `MAX_NESTING` levels and
    /// refuses one more with the typed error, and far past it (what used to
    /// overflow the stack and abort the process) it still just refuses. Runs
    /// on a 2 MiB thread — what a spawned server thread gets — and walks
    /// each admitted tree with the printer, `Clone` and `Drop` on it too.
    #[test]
    fn nesting_budget_refuses_deep_input_instead_of_overflowing() {
        // each shape at `n` repetitions; `spare` is how many levels the
        // fixed part of the statement (query, select item / WHERE) uses
        type Shape = (&'static str, usize, fn(usize) -> String);
        let shapes: [Shape; 7] = [
            ("parentheses", 2, |n| format!("SELECT {}1{} FROM t", "(".repeat(n), ")".repeat(n))),
            ("operator chain", 2, |n| format!("SELECT 1{} FROM t", " + 1".repeat(n))),
            ("AND chain", 2, |n| format!("SELECT a FROM t WHERE a{}", " AND a".repeat(n))),
            ("NOT chain", 2, |n| format!("SELECT a FROM t WHERE {}a", "NOT ".repeat(n))),
            ("unary minus", 2, |n| format!("SELECT {}a FROM t", "- ".repeat(n))),
            ("function calls", 2, |n| format!("SELECT {}a{} FROM t", "ABS(".repeat(n), ")".repeat(n))),
            ("derived tables", 1, |n| {
                format!("SELECT * FROM {}t{}", "(SELECT * FROM ".repeat(n), ") AS s".repeat(n))
            }),
        ];
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for (what, spare, make) in shapes {
                    let at_limit = MAX_NESTING - spare;
                    let q = parse_query(&make(at_limit))
                        .unwrap_or_else(|e| panic!("{what} x{at_limit} must parse: {e}"));
                    assert!(crate::to_sql(&q.clone()).starts_with("SELECT"), "{what}");
                    for n in [at_limit + 1, 1_000, 10_000] {
                        let err = parse_query(&make(n)).expect_err(what);
                        assert_eq!(err.kind, crate::ErrorKind::NestingTooDeep, "{what} x{n}: {err}");
                    }
                }
                // an ordinary syntax error keeps its kind
                let err = parse_query("SELECT FROM t").unwrap_err();
                assert_eq!(err.kind, crate::ErrorKind::Syntax);
            })
            .expect("spawn")
            .join()
            .expect("no shape overflows a 2 MiB stack");
    }

    #[test]
    fn keyword_like_identifiers_via_quotes() {
        let q = p("SELECT `order` FROM `group`");
        assert!(matches!(
            &q.body.items[0],
            SelectItem::Expr { expr: Expr::Column { column, .. }, .. } if column == "order"
        ));
    }
}
