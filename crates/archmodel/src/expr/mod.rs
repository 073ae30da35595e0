//! The constraint-expression language (lexer, parser, evaluator).
//!
//! Constraints are written in a small Armani-like textual language and
//! evaluated dynamically against the runtime architectural model, exactly as
//! the paper's AcmeLib checks its threshold constraints (e.g. `average
//! latency < maxLatency`) while the system runs.

pub mod ast;
pub mod eval;
pub mod lexer;
pub mod parser;

pub use ast::{BinOp, Expr, PropertyReadSet, QuantifierKind, UnaryOp};
pub use eval::{Elements, EvalError, Operand, Program};
pub use lexer::{tokenize, LexError, Token};
pub use parser::{parse, ParseError};
