//! # archmodel — Acme-style software architecture models
//!
//! The *model layer* of the adaptation framework keeps an architectural model
//! of the running system: a graph of components and connectors annotated with
//! properties, plus constraints whose violation triggers repair. This crate
//! provides that model, in the spirit of the paper's AcmeLib:
//!
//! * [`system`] — the element graph (components, connectors, ports, roles,
//!   attachments, representations) with referential-integrity checking,
//! * [`property`] / [`value`] — dynamically typed property lists,
//! * [`expr`] — a small Armani-like constraint-expression language (lexer,
//!   parser, evaluator),
//! * [`constraint`] — invariants, scopes, and the constraint checker,
//! * [`changeset`] — repair scripts as recorded calls of the style's four
//!   adaptation operators, applied to the model at commit,
//! * [`style`] — the client/server-with-replicated-server-groups style used
//!   by the paper's evaluation, including structural validity rules.

#![warn(missing_docs)]

pub mod changeset;
pub mod constraint;
pub mod element;
pub mod expr;
pub mod key;
pub mod property;
pub mod style;
pub mod system;
pub mod value;

pub use changeset::{apply_op, ModelOp};
pub use constraint::{
    CheckReport, ConstraintScope, ConstraintSet, IncrementalChecker, Invariant, Violation,
};
pub use element::{
    Attachment, Component, ComponentId, Connector, ConnectorId, ElementRef, Port, PortId, Role,
    RoleId,
};
pub use expr::{
    parse, BinOp, Elements, EvalError, Expr, Operand, Program, PropertyReadSet, QuantifierKind,
    UnaryOp,
};
pub use key::Key;
pub use property::PropertyMap;
pub use style::{ClientServerStyle, StyleViolation};
pub use system::{ModelDelta, ModelError, System};
pub use value::Value;
