//! Recursive-descent parser for the constraint-expression language.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! expr      := implies
//! implies   := or ( '->' or )*
//! or        := and ( 'or' and )*
//! and       := not ( 'and' not )*
//! not       := ('!' | 'not') not | cmp
//! cmp       := add ( ('<' | '<=' | '>' | '>=' | '==' | '!=') add )?
//! add       := mul ( ('+' | '-') mul )*
//! mul       := unary ( ('*' | '/') unary )*
//! unary     := '-' unary | postfix
//! postfix   := primary ( '.' IDENT )*
//! primary   := NUMBER | STRING | 'true' | 'false' | quantifier
//!            | IDENT '(' args ')' | IDENT | '(' expr ')'
//! quantifier:= ('exists'|'forall'|'select') IDENT (':' IDENT)? 'in' expr '|' expr
//! ```

use super::ast::{BinOp, Expr, QuantifierKind, UnaryOp};
use super::lexer::{tokenize, LexError, Token};
use crate::value::Value;

/// A parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.to_string(),
        }
    }
}

/// Parses a constraint expression from text.
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let expr = parser.parse_expr()?;
    if parser.pos != parser.tokens.len() {
        return Err(ParseError {
            message: format!(
                "unexpected trailing tokens starting at {:?}",
                parser.tokens[parser.pos]
            ),
        });
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, expected: &Token) -> Result<(), ParseError> {
        match self.next() {
            Some(ref t) if t == expected => Ok(()),
            other => Err(ParseError {
                message: format!("expected {expected:?}, found {other:?}"),
            }),
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_implies()
    }

    fn parse_implies(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_or()?;
        while matches!(self.peek(), Some(Token::Arrow)) {
            self.next();
            let rhs = self.parse_or()?;
            lhs = Expr::bin(BinOp::Implies, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while matches!(self.peek(), Some(Token::Or)) {
            self.next();
            let rhs = self.parse_and()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_not()?;
        while matches!(self.peek(), Some(Token::And)) {
            self.next();
            let rhs = self.parse_not()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if matches!(self.peek(), Some(Token::Bang) | Some(Token::Not)) {
            self.next();
            let inner = self.parse_not()?;
            return Ok(Expr::Unary(UnaryOp::Not, Box::new(inner)));
        }
        self.parse_cmp()
    }

    fn parse_cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Ge) => Some(BinOp::Ge),
            Some(Token::EqEq) => Some(BinOp::Eq),
            Some(Token::Ne) => Some(BinOp::Ne),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let rhs = self.parse_add()?;
            return Ok(Expr::bin(op, lhs, rhs));
        }
        Ok(lhs)
    }

    fn parse_add(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.next();
            let rhs = self.parse_mul()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.next();
            let rhs = self.parse_unary()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if matches!(self.peek(), Some(Token::Minus)) {
            self.next();
            let inner = self.parse_unary()?;
            return Ok(Expr::Unary(UnaryOp::Neg, Box::new(inner)));
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.parse_primary()?;
        while matches!(self.peek(), Some(Token::Dot)) {
            self.next();
            match self.next() {
                Some(Token::Ident(name)) => {
                    expr = Expr::Property(Box::new(expr), name);
                }
                other => {
                    return Err(ParseError {
                        message: format!("expected property name after '.', found {other:?}"),
                    })
                }
            }
        }
        Ok(expr)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Token::Integer(v)) => Ok(Expr::Literal(Value::Int(v))),
            Some(Token::Number(v)) => Ok(Expr::Literal(Value::Float(v))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Str(s))),
            Some(Token::True) => Ok(Expr::Literal(Value::Bool(true))),
            Some(Token::False) => Ok(Expr::Literal(Value::Bool(false))),
            Some(Token::LParen) => {
                let inner = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Some(Token::Exists) => self.parse_quantifier(QuantifierKind::Exists),
            Some(Token::Forall) => self.parse_quantifier(QuantifierKind::Forall),
            Some(Token::Select) => self.parse_quantifier(QuantifierKind::Select),
            Some(Token::Ident(name)) => {
                if matches!(self.peek(), Some(Token::LParen)) {
                    self.next();
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Some(Token::RParen)) {
                        loop {
                            args.push(self.parse_expr()?);
                            match self.peek() {
                                Some(Token::Comma) => {
                                    self.next();
                                }
                                _ => break,
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            other => Err(ParseError {
                message: format!("unexpected token: {other:?}"),
            }),
        }
    }

    fn parse_quantifier(&mut self, kind: QuantifierKind) -> Result<Expr, ParseError> {
        let var = match self.next() {
            Some(Token::Ident(name)) => name,
            other => {
                return Err(ParseError {
                    message: format!("expected binding variable, found {other:?}"),
                })
            }
        };
        let type_filter = if matches!(self.peek(), Some(Token::Colon)) {
            self.next();
            match self.next() {
                Some(Token::Ident(name)) => Some(name),
                other => {
                    return Err(ParseError {
                        message: format!("expected type name after ':', found {other:?}"),
                    })
                }
            }
        } else {
            None
        };
        self.expect(&Token::In)?;
        let domain = self.parse_postfix()?;
        self.expect(&Token::Pipe)?;
        let body = self.parse_expr()?;
        Ok(Expr::Quantifier {
            kind,
            var,
            type_filter,
            domain: Box::new(domain),
            body: Box::new(body),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_latency_invariant() {
        let e = parse("averageLatency <= maxLatency").unwrap();
        assert_eq!(
            e,
            Expr::bin(
                BinOp::Le,
                Expr::Ident("averageLatency".into()),
                Expr::Ident("maxLatency".into())
            )
        );
    }

    #[test]
    fn parses_property_chains() {
        let e = parse("self.role.bandwidth >= minBandwidth").unwrap();
        match e {
            Expr::Binary(BinOp::Ge, lhs, _) => {
                assert!(matches!(*lhs, Expr::Property(_, ref n) if n == "bandwidth"));
            }
            _ => panic!("unexpected"),
        }
    }

    #[test]
    fn parses_quantifier_with_type_filter() {
        let e = parse(
            "exists sgrp : ServerGroupT in components | connected(sgrp, client) and sgrp.load > maxServerLoad",
        )
        .unwrap();
        match e {
            Expr::Quantifier {
                kind: QuantifierKind::Exists,
                var,
                type_filter,
                ..
            } => {
                assert_eq!(var, "sgrp");
                assert_eq!(type_filter.as_deref(), Some("ServerGroupT"));
            }
            _ => panic!("expected quantifier"),
        }
    }

    #[test]
    fn parses_forall_over_nested_domain() {
        let e = parse("forall s in grp.children | s.isActive").unwrap();
        match e {
            Expr::Quantifier {
                kind: QuantifierKind::Forall,
                domain,
                ..
            } => {
                assert!(matches!(*domain, Expr::Property(_, ref n) if n == "children"));
            }
            _ => panic!("expected quantifier"),
        }
    }

    #[test]
    fn parses_select_returning_set() {
        let e = parse("size(select s : ServerT in components | s.isActive) >= 1").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Ge, _, _)));
    }

    #[test]
    fn precedence_and_over_or() {
        let e = parse("a or b and c").unwrap();
        // Must parse as a or (b and c).
        match e {
            Expr::Binary(BinOp::Or, lhs, rhs) => {
                assert!(matches!(*lhs, Expr::Ident(_)));
                assert!(matches!(*rhs, Expr::Binary(BinOp::And, _, _)));
            }
            _ => panic!("unexpected"),
        }
    }

    #[test]
    fn precedence_arithmetic() {
        let e = parse("1 + 2 * 3 == 7").unwrap();
        match e {
            Expr::Binary(BinOp::Eq, lhs, _) => match *lhs {
                Expr::Binary(BinOp::Add, _, rhs) => {
                    assert!(matches!(*rhs, Expr::Binary(BinOp::Mul, _, _)));
                }
                _ => panic!("expected add at top of lhs"),
            },
            _ => panic!("unexpected"),
        }
    }

    #[test]
    fn parses_not_and_negation() {
        assert!(matches!(
            parse("!overloaded").unwrap(),
            Expr::Unary(UnaryOp::Not, _)
        ));
        assert!(matches!(
            parse("not overloaded").unwrap(),
            Expr::Unary(UnaryOp::Not, _)
        ));
        assert!(matches!(
            parse("-3 < 0").unwrap(),
            Expr::Binary(BinOp::Lt, _, _)
        ));
    }

    #[test]
    fn parses_implication() {
        let e = parse("overloaded -> load > 6").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Implies, _, _)));
    }

    #[test]
    fn parses_calls_with_no_args() {
        let e = parse("size(components) == 0 or isEmpty()").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Or, _, _)));
    }

    #[test]
    fn rejects_trailing_tokens() {
        assert!(parse("a b").is_err());
    }

    #[test]
    fn rejects_missing_rparen() {
        assert!(parse("size(components == 0").is_err());
    }

    #[test]
    fn rejects_missing_quantifier_body() {
        assert!(parse("exists c in components").is_err());
    }

    #[test]
    fn parses_parenthesised_expressions() {
        let e = parse("(1 + 2) * 3").unwrap();
        match e {
            Expr::Binary(BinOp::Mul, lhs, _) => {
                assert!(matches!(*lhs, Expr::Binary(BinOp::Add, _, _)));
            }
            _ => panic!("unexpected"),
        }
    }
}
