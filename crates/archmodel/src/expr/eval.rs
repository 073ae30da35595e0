//! Evaluator for constraint expressions against an architectural model.
//!
//! [`Program::compile`] resolves an [`Expr`] once: each identifier the caller
//! binds becomes a slot index, each quantifier variable a depth on a stack of
//! scopes that lives in the evaluator's own call frames, and every other name
//! an interned [`Key`]. [`Program::eval_bool`] then works on [`Operand`]s
//! borrowed from the program's literals, the model and the caller's slots: an
//! evaluation allocates only for what a `select` keeps, and builds an owned
//! value only to word an error other than a missing property.

use super::ast::{BinOp, Expr, QuantifierKind, UnaryOp};
use crate::element::{ComponentId, ElementRef, RoleId};
use crate::key::Key;
use crate::system::System;
use crate::value::Value;
use std::fmt;

/// What an expression evaluates to: a property-style value, one element or a
/// collection of elements, borrowed wherever it can be.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand<'a> {
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(&'a str),
    /// A set-valued property.
    Set(&'a [Value]),
    /// A reference to one element.
    Element(ElementRef),
    /// A collection of elements (`components`, `.children`, `select`, ...).
    Elements(Elements<'a>),
}

impl Operand<'_> {
    /// Interprets the result as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Operand::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Interprets the result as a float (coercing integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Operand::Int(i) => Some(*i as f64),
            Operand::Float(f) => Some(*f),
            _ => None,
        }
    }
}

impl<'a> From<&'a Value> for Operand<'a> {
    fn from(value: &'a Value) -> Self {
        match value {
            Value::Int(i) => Operand::Int(*i),
            Value::Float(f) => Operand::Float(*f),
            Value::Bool(b) => Operand::Bool(*b),
            Value::Str(s) => Operand::Str(s),
            Value::Set(items) => Operand::Set(items),
        }
    }
}

/// A collection of elements, iterated where it lies.
#[derive(Debug, Clone, PartialEq)]
pub enum Elements<'a> {
    /// Every component, in id order.
    Components,
    /// Every connector, in id order.
    Connectors,
    /// A component's ports.
    Ports(ComponentId),
    /// A component's children (its representation's members).
    Children(ComponentId),
    /// A connector's roles.
    Roles(&'a [RoleId]),
    /// The elements a `select` kept.
    Selected(Vec<ElementRef>),
}

impl Elements<'_> {
    /// The elements, in order. Exactly one of the chained sources is
    /// non-empty, which keeps the iterator one type without boxing it.
    fn iter<'s>(&'s self, system: &'s System) -> impl Iterator<Item = ElementRef> + 's {
        let components = matches!(self, Elements::Components)
            .then(|| system.components().map(|(id, _)| ElementRef::Component(id)));
        let connectors = matches!(self, Elements::Connectors)
            .then(|| system.connectors().map(|(id, _)| ElementRef::Connector(id)));
        let ports = match *self {
            Elements::Ports(id) => Some(system.ports_of(id).map(ElementRef::Port)),
            _ => None,
        };
        let children = match *self {
            Elements::Children(id) => Some(system.children(id).map(ElementRef::Component)),
            _ => None,
        };
        let (roles, selected): (&[RoleId], &[_]) = match self {
            Elements::Roles(ids) => (ids, &[]),
            Elements::Selected(els) => (&[], els),
            _ => (&[], &[]),
        };
        components
            .into_iter()
            .flatten()
            .chain(connectors.into_iter().flatten())
            .chain(ports.into_iter().flatten())
            .chain(children.into_iter().flatten())
            .chain(roles.iter().map(|&id| ElementRef::Role(id)))
            .chain(selected.iter().copied())
    }
}

/// Errors produced during evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// An identifier could not be resolved.
    UnknownIdentifier(String),
    /// An element lacks the requested property: the element's name (its id
    /// for one the model lacks) and the property's, so that a failed
    /// evaluation allocates nothing.
    MissingProperty(Key, Key),
    /// The operands of an operator had incompatible types.
    TypeMismatch(String),
    /// An unknown function was called.
    UnknownFunction(String),
    /// A function was called with the wrong number or kinds of arguments.
    BadArguments(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownIdentifier(n) => write!(f, "unknown identifier: {n}"),
            EvalError::MissingProperty(el, p) => write!(f, "element {el} has no property {p}"),
            EvalError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            EvalError::UnknownFunction(n) => write!(f, "unknown function: {n}"),
            EvalError::BadArguments(m) => write!(f, "bad arguments: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

fn mismatch(message: &str) -> EvalError {
    EvalError::TypeMismatch(message.into())
}

/// An expression compiled against the names its caller binds.
#[derive(Debug, Clone, PartialEq)]
pub struct Program(Node);

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Literal(Value),
    /// A caller's slot; an empty slot resolves its name as a free one.
    Bound(usize, Key),
    /// A quantifier variable, counted outwards from the innermost.
    Var(usize),
    /// A name looked up in the model.
    Free(Key),
    Property(Box<Node>, Key),
    Unary(UnaryOp, Box<Node>),
    Binary(BinOp, Box<Node>, Box<Node>),
    Call(String, Vec<Node>),
    Quantifier {
        kind: QuantifierKind,
        type_filter: Option<String>,
        domain: Box<Node>,
        body: Box<Node>,
    },
}

impl Program {
    /// Compiles `expr`; `bound[i]` names what [`eval_bool`](Self::eval_bool)'s
    /// `bound[i]` holds.
    pub fn compile(expr: &Expr, bound: &[&str]) -> Program {
        Program(compile(expr, bound, &mut Vec::new()))
    }

    /// Evaluates an expression expected to produce a boolean (invariants and
    /// query predicates) against `system`. `bound` holds a value for each
    /// name given to [`compile`](Self::compile); a `None` (or missing) slot
    /// leaves its name unbound, to resolve against the model like any other.
    pub fn eval_bool<'a>(
        &'a self,
        system: &'a System,
        bound: &[Option<Operand<'a>>],
    ) -> Result<bool, EvalError> {
        Eval { system, bound }.truth(&self.0, None)
    }
}

/// `vars` holds the quantifier variables in scope, the innermost last.
fn compile(expr: &Expr, bound: &[&str], vars: &mut Vec<String>) -> Node {
    match expr {
        Expr::Literal(v) => Node::Literal(v.clone()),
        Expr::Ident(name) => match vars.iter().rev().position(|v| v == name) {
            Some(depth) => Node::Var(depth),
            None => match bound.iter().position(|b| b == name) {
                Some(slot) => Node::Bound(slot, Key::new(name)),
                None => Node::Free(Key::new(name)),
            },
        },
        Expr::Property(target, name) => {
            Node::Property(Box::new(compile(target, bound, vars)), Key::new(name))
        }
        Expr::Unary(op, inner) => Node::Unary(*op, Box::new(compile(inner, bound, vars))),
        Expr::Binary(op, lhs, rhs) => Node::Binary(
            *op,
            Box::new(compile(lhs, bound, vars)),
            Box::new(compile(rhs, bound, vars)),
        ),
        Expr::Call(name, args) => Node::Call(
            name.clone(),
            args.iter().map(|a| compile(a, bound, vars)).collect(),
        ),
        Expr::Quantifier {
            kind,
            var,
            type_filter,
            domain,
            body,
        } => {
            let domain = Box::new(compile(domain, bound, vars));
            vars.push(var.clone());
            let body = Box::new(compile(body, bound, vars));
            vars.pop();
            Node::Quantifier {
                kind: *kind,
                type_filter: type_filter.clone(),
                domain,
                body,
            }
        }
    }
}

/// A quantifier variable's element, in the frame of the quantifier that
/// binds it.
struct Scope<'s> {
    var: ElementRef,
    outer: Option<&'s Scope<'s>>,
}

/// One evaluation's world: the model and the caller's slots.
struct Eval<'a, 'b> {
    system: &'a System,
    bound: &'b [Option<Operand<'a>>],
}

impl<'a> Eval<'a, '_> {
    fn value(&self, node: &'a Node, scope: Option<&Scope>) -> Result<Operand<'a>, EvalError> {
        match node {
            Node::Literal(v) => Ok(v.into()),
            Node::Bound(slot, name) => match self.bound.get(*slot) {
                Some(Some(v)) => Ok(v.clone()),
                _ => self.free(*name),
            },
            Node::Var(depth) => {
                let mut frames = std::iter::successors(scope, |s| s.outer);
                let frame = frames.nth(*depth).expect("compiled inside its quantifier");
                Ok(Operand::Element(frame.var))
            }
            Node::Free(name) => self.free(*name),
            Node::Property(target, name) => {
                let target = self.value(target, scope)?;
                self.property(target, *name)
            }
            Node::Unary(UnaryOp::Not, inner) => match self.value(inner, scope)?.as_bool() {
                Some(b) => Ok(Operand::Bool(!b)),
                None => Err(mismatch("'not' requires a boolean")),
            },
            Node::Unary(UnaryOp::Neg, inner) => match self.value(inner, scope)?.as_f64() {
                Some(n) => Ok(Operand::Float(-n)),
                None => Err(mismatch("negation requires a number")),
            },
            Node::Binary(op, lhs, rhs) => self.binary(*op, lhs, rhs, scope),
            Node::Call(name, args) => self.call(name, args, scope),
            Node::Quantifier {
                kind,
                type_filter,
                domain,
                body,
            } => self.quantifier(*kind, type_filter.as_deref(), domain, body, scope),
        }
    }

    fn truth(&self, node: &'a Node, scope: Option<&Scope>) -> Result<bool, EvalError> {
        let v = self.value(node, scope)?;
        v.as_bool()
            .ok_or_else(|| mismatch("expected a boolean result"))
    }

    /// A name no binding holds: a built-in collection, a system property,
    /// then a component or connector of that name.
    fn free(&self, name: Key) -> Result<Operand<'a>, EvalError> {
        let system = self.system;
        let found = match name.as_str() {
            "components" => Some(Operand::Elements(Elements::Components)),
            "connectors" => Some(Operand::Elements(Elements::Connectors)),
            text => system.properties.get(text).map(Operand::from),
        };
        let element = || match system.component_by_key(name) {
            Some(id) => Some(ElementRef::Component(id)),
            None => system.connector_by_key(name).map(ElementRef::Connector),
        };
        found
            .or_else(|| element().map(Operand::Element))
            .ok_or_else(|| EvalError::UnknownIdentifier(name.to_string()))
    }

    fn property(&self, target: Operand<'a>, name: Key) -> Result<Operand<'a>, EvalError> {
        let system = self.system;
        let el = match target {
            Operand::Element(el) => el,
            Operand::Set(items) if name == "size" => return Ok(Operand::Int(items.len() as i64)),
            Operand::Elements(items) if name == "size" => {
                return Ok(Operand::Int(items.iter(system).count() as i64))
            }
            other => {
                let shown = Shown(&other, system);
                return Err(mismatch(&format!(
                    "cannot access property {name} on {shown:?}"
                )));
            }
        };
        let missing = || EvalError::MissingProperty(system.element_name(el), name);
        // Structural pseudo-properties first.
        match (el, name.as_str()) {
            (_, "name") => Ok(Operand::Str(system.element_name(el).as_str())),
            (ElementRef::Component(id), p @ ("type" | "ports" | "children" | "members")) => {
                let c = system.component(id).map_err(|_| missing())?;
                Ok(match p {
                    "type" => Operand::Str(c.ctype.as_str()),
                    "ports" => Operand::Elements(Elements::Ports(id)),
                    _ => Operand::Elements(Elements::Children(id)),
                })
            }
            (ElementRef::Connector(id), "roles") => {
                let c = system.connector(id).map_err(|_| missing())?;
                Ok(Operand::Elements(Elements::Roles(&c.roles)))
            }
            _ => system
                .get_property(el, name.as_str())
                .map(Operand::from)
                .ok_or_else(missing),
        }
    }

    fn binary(
        &self,
        op: BinOp,
        lhs: &'a Node,
        rhs: &'a Node,
        scope: Option<&Scope>,
    ) -> Result<Operand<'a>, EvalError> {
        if let BinOp::And | BinOp::Or | BinOp::Implies = op {
            // The left operand decides `and` when false, `or` when true and
            // `->` when false; only otherwise is the right one evaluated.
            let l = self.truth(lhs, scope)?;
            let decides = if op == BinOp::Or { l } else { !l };
            let result = if decides {
                op != BinOp::And
            } else {
                self.truth(rhs, scope)?
            };
            return Ok(Operand::Bool(result));
        }
        let (l, r) = (self.value(lhs, scope)?, self.value(rhs, scope)?);
        if let BinOp::Eq | BinOp::Ne = op {
            return Ok(Operand::Bool(self.equal(&l, &r) == (op == BinOp::Eq)));
        }
        let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
            let (l, r) = (Shown(&l, self.system), Shown(&r, self.system));
            return Err(mismatch(&format!(
                "operator {op:?} requires numeric operands, got {l:?} and {r:?}"
            )));
        };
        Ok(match op {
            BinOp::Add => Operand::Float(a + b),
            BinOp::Sub => Operand::Float(a - b),
            BinOp::Mul => Operand::Float(a * b),
            BinOp::Div if b == 0.0 => return Err(mismatch("division by zero")),
            BinOp::Div => Operand::Float(a / b),
            BinOp::Lt => Operand::Bool(a < b),
            BinOp::Le => Operand::Bool(a <= b),
            BinOp::Gt => Operand::Bool(a > b),
            // `Ge`: the logical operators and the equalities returned above.
            _ => Operand::Bool(a >= b),
        })
    }

    /// `==`: elements by identity, values as [`Value::loosely_equals`]
    /// compares them.
    fn equal(&self, a: &Operand, b: &Operand) -> bool {
        match (a, b) {
            (Operand::Element(x), Operand::Element(y)) => x == y,
            (Operand::Elements(x), Operand::Elements(y)) => {
                x.iter(self.system).eq(y.iter(self.system))
            }
            (Operand::Bool(x), Operand::Bool(y)) => x == y,
            (Operand::Str(x), Operand::Str(y)) => x == y,
            (Operand::Set(x), Operand::Set(y)) => x == y,
            _ => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Value::Float(x).loosely_equals(&Value::Float(y)),
                _ => false,
            },
        }
    }

    fn call(
        &self,
        name: &'a str,
        args: &'a [Node],
        scope: Option<&Scope>,
    ) -> Result<Operand<'a>, EvalError> {
        // Every argument evaluates, in order, before the name or the arity
        // is checked; a placeholder left standing fails the arity check.
        let mut argv = [Operand::Bool(false), Operand::Bool(false)];
        for (i, arg) in args.iter().enumerate() {
            let v = self.value(arg, scope)?;
            if let Some(slot) = argv.get_mut(i) {
                *slot = v;
            }
        }
        let params = match name {
            "size" | "isEmpty" => "x",
            "connected" => "a, b",
            "attached" => "x, role",
            "contains" => "set, x",
            _ => return Err(EvalError::UnknownFunction(name.to_string())),
        };
        let arity = 1 + params.matches(',').count();
        if args.len() != arity {
            let count = ["one argument", "two arguments"][arity - 1];
            let message = format!("{name}({params}) takes {count}");
            return Err(EvalError::BadArguments(message));
        }
        let system = self.system;
        let bad = |message: &str| Err(EvalError::BadArguments(message.into()));
        let [a, b] = argv;
        match name {
            "size" | "isEmpty" => {
                let len = match &a {
                    Operand::Elements(items) => items.iter(system).count(),
                    Operand::Set(items) => items.len(),
                    other => {
                        let shown = Shown(other, system);
                        return bad(&format!("{name}() expects a collection, got {shown:?}"));
                    }
                };
                Ok(match name {
                    "size" => Operand::Int(len as i64),
                    _ => Operand::Bool(len == 0),
                })
            }
            "connected" => match (a, b) {
                (
                    Operand::Element(ElementRef::Component(x)),
                    Operand::Element(ElementRef::Component(y)),
                ) => Ok(Operand::Bool(system.connected(x, y))),
                _ => bad("connected() expects two components"),
            },
            "attached" => {
                use ElementRef::{Component, Port, Role};
                match (a, b) {
                    (Operand::Element(Port(p)), Operand::Element(Role(r)))
                    | (Operand::Element(Role(r)), Operand::Element(Port(p))) => {
                        Ok(Operand::Bool(system.attached(p, r)))
                    }
                    (Operand::Element(Component(c)), Operand::Element(Role(r)))
                    | (Operand::Element(Role(r)), Operand::Element(Component(c))) => Ok(
                        Operand::Bool(system.component_attached_to_role(r) == Some(c)),
                    ),
                    _ => bad("attached() expects (port, role) or (component, role)"),
                }
            }
            // `contains`, the one name left.
            _ => match (&a, &b) {
                (Operand::Elements(items), Operand::Element(e)) => {
                    Ok(Operand::Bool(items.iter(system).any(|x| x == *e)))
                }
                (Operand::Set(items), v)
                    if !matches!(v, Operand::Element(_) | Operand::Elements(_)) =>
                {
                    let found = items.iter().any(|i| self.equal(&Operand::from(i), v));
                    Ok(Operand::Bool(found))
                }
                _ => bad("contains() expects a collection and an element"),
            },
        }
    }

    fn quantifier(
        &self,
        kind: QuantifierKind,
        type_filter: Option<&str>,
        domain: &'a Node,
        body: &'a Node,
        scope: Option<&Scope>,
    ) -> Result<Operand<'a>, EvalError> {
        let system = self.system;
        let (single, items) = match self.value(domain, scope)? {
            Operand::Elements(items) => (None, items),
            Operand::Element(el) => (Some(el), Elements::Selected(Vec::new())),
            other => {
                let shown = Shown(&other, system);
                return Err(mismatch(&format!(
                    "quantifier domain must be a collection of elements, got {shown:?}"
                )));
            }
        };
        let typed =
            |el: &ElementRef| type_filter.is_none_or(|t| element_type(system, *el) == Some(t));
        let mut selected = Vec::new();
        for el in single.into_iter().chain(items.iter(system)).filter(typed) {
            let frame = Scope {
                var: el,
                outer: scope,
            };
            let holds = self.truth(body, Some(&frame))?;
            match kind {
                QuantifierKind::Exists if holds => return Ok(Operand::Bool(true)),
                QuantifierKind::Forall if !holds => return Ok(Operand::Bool(false)),
                QuantifierKind::Select if holds => selected.push(el),
                _ => {}
            }
        }
        Ok(match kind {
            QuantifierKind::Exists => Operand::Bool(false),
            QuantifierKind::Forall => Operand::Bool(true),
            QuantifierKind::Select => Operand::Elements(Elements::Selected(selected)),
        })
    }
}

/// An element's type name (`None` for one the model lacks).
fn element_type(system: &System, el: ElementRef) -> Option<&str> {
    match el {
        ElementRef::Component(id) => system.component(id).ok().map(|c| c.ctype.as_str()),
        ElementRef::Connector(id) => system.connector(id).ok().map(|c| c.ctype.as_str()),
        ElementRef::Port(id) => system.port(id).ok().map(|p| p.ptype.as_str()),
        ElementRef::Role(id) => system.role(id).ok().map(|r| r.rtype.as_str()),
    }
}

/// An operand as error messages quote it: the `Debug` text of the owned
/// value (`Val(Value)`, `Element(ElementRef)` or `Elements(Vec<ElementRef>)`)
/// it stands for.
struct Shown<'s>(&'s Operand<'s>, &'s System);

impl fmt::Debug for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Operand::Int(i) => write!(f, "Val(Int({i:?}))"),
            Operand::Float(x) => write!(f, "Val(Float({x:?}))"),
            Operand::Bool(b) => write!(f, "Val(Bool({b:?}))"),
            Operand::Str(s) => write!(f, "Val(Str({s:?}))"),
            Operand::Set(items) => write!(f, "Val(Set({items:?}))"),
            Operand::Element(el) => write!(f, "Element({el:?})"),
            Operand::Elements(items) => {
                let items: Vec<ElementRef> = items.iter(self.1).collect();
                write!(f, "Elements({items:?})")
            }
        }
    }
}

/// The tree-walking evaluator [`Program`] replaced, kept as the definition it
/// is held to: every identifier a string search in a map of owned values,
/// every value cloned.
#[cfg(test)]
mod oracle {
    use super::super::ast::{BinOp, Expr, QuantifierKind, UnaryOp};
    use super::EvalError;
    use crate::element::ElementRef;
    use crate::key::Key;
    use crate::system::System;
    use crate::value::Value;
    use std::collections::BTreeMap;

    /// The result of evaluating an expression: either a plain value, a
    /// single architectural element, or a collection of elements.
    #[derive(Debug, Clone, PartialEq)]
    pub enum EvalValue {
        /// A property-style value.
        Val(Value),
        /// A reference to one element.
        Element(ElementRef),
        /// A collection of elements (the result of `select`, `components`, ...).
        Elements(Vec<ElementRef>),
    }

    impl EvalValue {
        fn as_bool(&self) -> Option<bool> {
            match self {
                EvalValue::Val(Value::Bool(b)) => Some(*b),
                _ => None,
            }
        }

        fn as_f64(&self) -> Option<f64> {
            match self {
                EvalValue::Val(v) => v.as_f64(),
                _ => None,
            }
        }
    }

    /// A set of variable bindings used while evaluating.
    pub type Bindings = BTreeMap<String, EvalValue>;

    /// Evaluates `expr` against `system` with the given variable bindings.
    pub fn eval(expr: &Expr, system: &System, bindings: &Bindings) -> Result<EvalValue, EvalError> {
        match expr {
            Expr::Literal(v) => Ok(EvalValue::Val(v.clone())),
            Expr::Ident(name) => resolve_ident(name, system, bindings),
            Expr::Property(target, name) => {
                let target = eval(target, system, bindings)?;
                access_property(&target, name, system)
            }
            Expr::Unary(op, inner) => {
                let v = eval(inner, system, bindings)?;
                match op {
                    UnaryOp::Not => {
                        let b = v.as_bool().ok_or_else(|| {
                            EvalError::TypeMismatch("'not' requires a boolean".into())
                        })?;
                        Ok(EvalValue::Val(Value::Bool(!b)))
                    }
                    UnaryOp::Neg => {
                        let n = v.as_f64().ok_or_else(|| {
                            EvalError::TypeMismatch("negation requires a number".into())
                        })?;
                        Ok(EvalValue::Val(Value::Float(-n)))
                    }
                }
            }
            Expr::Binary(op, lhs, rhs) => eval_binary(*op, lhs, rhs, system, bindings),
            Expr::Call(name, args) => eval_call(name, args, system, bindings),
            Expr::Quantifier {
                kind,
                var,
                type_filter,
                domain,
                body,
            } => eval_quantifier(
                *kind,
                var,
                type_filter.as_deref(),
                domain,
                body,
                system,
                bindings,
            ),
        }
    }

    /// Evaluates an expression expected to produce a boolean.
    pub fn eval_bool(expr: &Expr, system: &System, bindings: &Bindings) -> Result<bool, EvalError> {
        let v = eval(expr, system, bindings)?;
        v.as_bool()
            .ok_or_else(|| EvalError::TypeMismatch("expected a boolean result".into()))
    }

    fn resolve_ident(
        name: &str,
        system: &System,
        bindings: &Bindings,
    ) -> Result<EvalValue, EvalError> {
        if let Some(v) = bindings.get(name) {
            return Ok(v.clone());
        }
        match name {
            "components" => Ok(EvalValue::Elements(
                system
                    .components()
                    .map(|(id, _)| ElementRef::Component(id))
                    .collect(),
            )),
            "connectors" => Ok(EvalValue::Elements(
                system
                    .connectors()
                    .map(|(id, _)| ElementRef::Connector(id))
                    .collect(),
            )),
            _ => {
                if let Some(v) = system.properties.get(name) {
                    return Ok(EvalValue::Val(v.clone()));
                }
                if let Some(id) = system.component_by_name(name) {
                    return Ok(EvalValue::Element(ElementRef::Component(id)));
                }
                if let Some(id) = system.connector_by_name(name) {
                    return Ok(EvalValue::Element(ElementRef::Connector(id)));
                }
                Err(EvalError::UnknownIdentifier(name.to_string()))
            }
        }
    }

    fn missing(element: &str, property: &str) -> EvalError {
        EvalError::MissingProperty(Key::new(element), Key::new(property))
    }

    fn access_property(
        target: &EvalValue,
        name: &str,
        system: &System,
    ) -> Result<EvalValue, EvalError> {
        match target {
            EvalValue::Element(el) => {
                match (el, name) {
                    (_, "name") => {
                        return Ok(EvalValue::Val(Value::Str(
                            system.element_name(*el).to_string(),
                        )));
                    }
                    (ElementRef::Component(id), "type") => {
                        let c = system
                            .component(*id)
                            .map_err(|_| missing(&el.to_string(), name))?;
                        return Ok(EvalValue::Val(Value::Str(c.ctype.to_string())));
                    }
                    (ElementRef::Component(id), "ports") => {
                        system
                            .component(*id)
                            .map_err(|_| missing(&el.to_string(), name))?;
                        return Ok(EvalValue::Elements(
                            system.ports_of(*id).map(ElementRef::Port).collect(),
                        ));
                    }
                    (ElementRef::Component(id), "children")
                    | (ElementRef::Component(id), "members") => {
                        system
                            .component(*id)
                            .map_err(|_| missing(&el.to_string(), name))?;
                        return Ok(EvalValue::Elements(
                            system.children(*id).map(ElementRef::Component).collect(),
                        ));
                    }
                    (ElementRef::Connector(id), "roles") => {
                        let c = system
                            .connector(*id)
                            .map_err(|_| missing(&el.to_string(), name))?;
                        return Ok(EvalValue::Elements(
                            c.roles.iter().map(|r| ElementRef::Role(*r)).collect(),
                        ));
                    }
                    _ => {}
                }
                system
                    .get_property(*el, name)
                    .cloned()
                    .map(EvalValue::Val)
                    .ok_or_else(|| missing(system.element_name(*el).as_str(), name))
            }
            EvalValue::Val(Value::Set(items)) if name == "size" => {
                Ok(EvalValue::Val(Value::Int(items.len() as i64)))
            }
            EvalValue::Elements(items) if name == "size" => {
                Ok(EvalValue::Val(Value::Int(items.len() as i64)))
            }
            other => Err(EvalError::TypeMismatch(format!(
                "cannot access property {name} on {other:?}"
            ))),
        }
    }

    fn eval_binary(
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        system: &System,
        bindings: &Bindings,
    ) -> Result<EvalValue, EvalError> {
        match op {
            BinOp::And => {
                let l = eval_bool(lhs, system, bindings)?;
                if !l {
                    return Ok(EvalValue::Val(Value::Bool(false)));
                }
                return Ok(EvalValue::Val(Value::Bool(eval_bool(
                    rhs, system, bindings,
                )?)));
            }
            BinOp::Or => {
                let l = eval_bool(lhs, system, bindings)?;
                if l {
                    return Ok(EvalValue::Val(Value::Bool(true)));
                }
                return Ok(EvalValue::Val(Value::Bool(eval_bool(
                    rhs, system, bindings,
                )?)));
            }
            BinOp::Implies => {
                let l = eval_bool(lhs, system, bindings)?;
                if !l {
                    return Ok(EvalValue::Val(Value::Bool(true)));
                }
                return Ok(EvalValue::Val(Value::Bool(eval_bool(
                    rhs, system, bindings,
                )?)));
            }
            _ => {}
        }

        let l = eval(lhs, system, bindings)?;
        let r = eval(rhs, system, bindings)?;
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                let (a, b) = numeric_operands(&l, &r, op)?;
                let out = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b == 0.0 {
                            return Err(EvalError::TypeMismatch("division by zero".into()));
                        }
                        a / b
                    }
                    _ => unreachable!(),
                };
                Ok(EvalValue::Val(Value::Float(out)))
            }
            BinOp::Eq | BinOp::Ne => {
                let equal = match (&l, &r) {
                    (EvalValue::Val(a), EvalValue::Val(b)) => a.loosely_equals(b),
                    (EvalValue::Element(a), EvalValue::Element(b)) => a == b,
                    (EvalValue::Elements(a), EvalValue::Elements(b)) => a == b,
                    _ => false,
                };
                Ok(EvalValue::Val(Value::Bool(if op == BinOp::Eq {
                    equal
                } else {
                    !equal
                })))
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let (a, b) = numeric_operands(&l, &r, op)?;
                let result = match op {
                    BinOp::Lt => a < b,
                    BinOp::Le => a <= b,
                    BinOp::Gt => a > b,
                    BinOp::Ge => a >= b,
                    _ => unreachable!(),
                };
                Ok(EvalValue::Val(Value::Bool(result)))
            }
            BinOp::And | BinOp::Or | BinOp::Implies => unreachable!("handled above"),
        }
    }

    fn numeric_operands(l: &EvalValue, r: &EvalValue, op: BinOp) -> Result<(f64, f64), EvalError> {
        match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err(EvalError::TypeMismatch(format!(
                "operator {op:?} requires numeric operands, got {l:?} and {r:?}"
            ))),
        }
    }

    fn eval_call(
        name: &str,
        args: &[Expr],
        system: &System,
        bindings: &Bindings,
    ) -> Result<EvalValue, EvalError> {
        let evaluated: Vec<EvalValue> = args
            .iter()
            .map(|a| eval(a, system, bindings))
            .collect::<Result<_, _>>()?;
        match name {
            "size" => {
                if evaluated.len() != 1 {
                    return Err(EvalError::BadArguments("size(x) takes one argument".into()));
                }
                match &evaluated[0] {
                    EvalValue::Elements(items) => {
                        Ok(EvalValue::Val(Value::Int(items.len() as i64)))
                    }
                    EvalValue::Val(Value::Set(items)) => {
                        Ok(EvalValue::Val(Value::Int(items.len() as i64)))
                    }
                    other => Err(EvalError::BadArguments(format!(
                        "size() expects a collection, got {other:?}"
                    ))),
                }
            }
            "connected" => {
                if evaluated.len() != 2 {
                    return Err(EvalError::BadArguments(
                        "connected(a, b) takes two arguments".into(),
                    ));
                }
                match (&evaluated[0], &evaluated[1]) {
                    (
                        EvalValue::Element(ElementRef::Component(a)),
                        EvalValue::Element(ElementRef::Component(b)),
                    ) => Ok(EvalValue::Val(Value::Bool(system.connected(*a, *b)))),
                    _ => Err(EvalError::BadArguments(
                        "connected() expects two components".into(),
                    )),
                }
            }
            "attached" => {
                if evaluated.len() != 2 {
                    return Err(EvalError::BadArguments(
                        "attached(x, role) takes two arguments".into(),
                    ));
                }
                let result = match (&evaluated[0], &evaluated[1]) {
                    (
                        EvalValue::Element(ElementRef::Port(p)),
                        EvalValue::Element(ElementRef::Role(r)),
                    )
                    | (
                        EvalValue::Element(ElementRef::Role(r)),
                        EvalValue::Element(ElementRef::Port(p)),
                    ) => system.attached(*p, *r),
                    (
                        EvalValue::Element(ElementRef::Component(c)),
                        EvalValue::Element(ElementRef::Role(r)),
                    )
                    | (
                        EvalValue::Element(ElementRef::Role(r)),
                        EvalValue::Element(ElementRef::Component(c)),
                    ) => system.component_attached_to_role(*r) == Some(*c),
                    _ => {
                        return Err(EvalError::BadArguments(
                            "attached() expects (port, role) or (component, role)".into(),
                        ))
                    }
                };
                Ok(EvalValue::Val(Value::Bool(result)))
            }
            "contains" => {
                if evaluated.len() != 2 {
                    return Err(EvalError::BadArguments(
                        "contains(set, x) takes two arguments".into(),
                    ));
                }
                match (&evaluated[0], &evaluated[1]) {
                    (EvalValue::Elements(items), EvalValue::Element(e)) => {
                        Ok(EvalValue::Val(Value::Bool(items.contains(e))))
                    }
                    (EvalValue::Val(Value::Set(items)), EvalValue::Val(v)) => Ok(EvalValue::Val(
                        Value::Bool(items.iter().any(|i| i.loosely_equals(v))),
                    )),
                    _ => Err(EvalError::BadArguments(
                        "contains() expects a collection and an element".into(),
                    )),
                }
            }
            "isEmpty" => {
                if evaluated.len() != 1 {
                    return Err(EvalError::BadArguments(
                        "isEmpty(x) takes one argument".into(),
                    ));
                }
                match &evaluated[0] {
                    EvalValue::Elements(items) => Ok(EvalValue::Val(Value::Bool(items.is_empty()))),
                    EvalValue::Val(Value::Set(items)) => {
                        Ok(EvalValue::Val(Value::Bool(items.is_empty())))
                    }
                    other => Err(EvalError::BadArguments(format!(
                        "isEmpty() expects a collection, got {other:?}"
                    ))),
                }
            }
            other => Err(EvalError::UnknownFunction(other.to_string())),
        }
    }

    fn element_matches_type(el: &ElementRef, ty: &str, system: &System) -> bool {
        match el {
            ElementRef::Component(id) => system
                .component(*id)
                .map(|c| c.ctype == ty)
                .unwrap_or(false),
            ElementRef::Connector(id) => system
                .connector(*id)
                .map(|c| c.ctype == ty)
                .unwrap_or(false),
            ElementRef::Port(id) => system.port(*id).map(|p| p.ptype == ty).unwrap_or(false),
            ElementRef::Role(id) => system.role(*id).map(|r| r.rtype == ty).unwrap_or(false),
        }
    }

    fn eval_quantifier(
        kind: QuantifierKind,
        var: &str,
        type_filter: Option<&str>,
        domain: &Expr,
        body: &Expr,
        system: &System,
        bindings: &Bindings,
    ) -> Result<EvalValue, EvalError> {
        let domain_value = eval(domain, system, bindings)?;
        let elements: Vec<ElementRef> = match domain_value {
            EvalValue::Elements(items) => items,
            EvalValue::Element(e) => vec![e],
            other => {
                return Err(EvalError::TypeMismatch(format!(
                    "quantifier domain must be a collection of elements, got {other:?}"
                )))
            }
        };
        let filtered: Vec<ElementRef> = elements
            .into_iter()
            .filter(|e| type_filter.is_none_or(|t| element_matches_type(e, t, system)))
            .collect();

        let mut selected = Vec::new();
        let mut any = false;
        let mut all = true;
        for el in &filtered {
            let mut inner = bindings.clone();
            inner.insert(var.to_string(), EvalValue::Element(*el));
            let holds = eval_bool(body, system, &inner)?;
            any |= holds;
            all &= holds;
            if holds {
                selected.push(*el);
            }
            if kind == QuantifierKind::Exists && any {
                return Ok(EvalValue::Val(Value::Bool(true)));
            }
            if kind == QuantifierKind::Forall && !all {
                return Ok(EvalValue::Val(Value::Bool(false)));
            }
        }
        match kind {
            QuantifierKind::Exists => Ok(EvalValue::Val(Value::Bool(any))),
            QuantifierKind::Forall => Ok(EvalValue::Val(Value::Bool(all))),
            QuantifierKind::Select => Ok(EvalValue::Elements(selected)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{self, EvalValue};
    use super::*;
    use crate::expr::parse;
    use proptest::prelude::*;

    /// Builds the paper's example system: one client connected to ServerGrp1
    /// (3 servers), plus an unconnected ServerGrp2.
    fn example_system() -> System {
        let mut sys = System::new("storage");
        sys.properties.set("maxLatency", 2.0);
        sys.properties.set("maxServerLoad", 6i64);
        sys.properties.set("minBandwidth", 10_000.0);

        let client = sys.add_component("User1", "ClientT").unwrap();
        let grp1 = sys.add_component("ServerGrp1", "ServerGroupT").unwrap();
        let grp2 = sys.add_component("ServerGrp2", "ServerGroupT").unwrap();
        for i in 1..=3 {
            let s = sys
                .add_child_component(grp1, format!("Server{i}"), "ServerT")
                .unwrap();
            sys.component_mut(s)
                .unwrap()
                .properties
                .set("isActive", true);
        }
        sys.component_mut(client)
            .unwrap()
            .properties
            .set("averageLatency", 1.0);
        sys.component_mut(grp1)
            .unwrap()
            .properties
            .set("load", 3i64);
        sys.component_mut(grp2)
            .unwrap()
            .properties
            .set("load", 0i64);

        let conn = sys.add_connector("Conn1", "ServiceConnT").unwrap();
        let cport = sys.add_port(client, "request", "RequestT").unwrap();
        let gport = sys.add_port(grp1, "serve", "ServeT").unwrap();
        let crole = sys.add_role(conn, "clientSide", "ClientRoleT").unwrap();
        let grole = sys.add_role(conn, "serverSide", "ServerRoleT").unwrap();
        sys.role_mut(crole)
            .unwrap()
            .properties
            .set("bandwidth", 5.0e6);
        sys.attach(cport, crole).unwrap();
        sys.attach(gport, grole).unwrap();
        sys
    }

    impl Program {
        /// What the expression evaluates to, boolean or not.
        fn eval<'a>(
            &'a self,
            system: &'a System,
            bound: &[Option<Operand<'a>>],
        ) -> Result<Operand<'a>, EvalError> {
            Eval { system, bound }.value(&self.0, None)
        }
    }

    fn eval_text(expr: &str, sys: &System) -> Result<bool, EvalError> {
        Program::compile(&parse(expr).unwrap(), &[]).eval_bool(sys, &[])
    }

    fn check(expr: &str, sys: &System) -> bool {
        eval_text(expr, sys).unwrap()
    }

    #[test]
    fn latency_invariant_from_the_paper() {
        let sys = example_system();
        assert!(check("User1.averageLatency <= maxLatency", &sys));
    }

    #[test]
    fn violated_invariant_detected() {
        let mut sys = example_system();
        let client = sys.component_by_name("User1").unwrap();
        sys.component_mut(client)
            .unwrap()
            .properties
            .set("averageLatency", 5.0);
        assert!(!check("User1.averageLatency <= maxLatency", &sys));
    }

    #[test]
    fn exists_overloaded_server_group() {
        let mut sys = example_system();
        assert!(!check(
            "exists g : ServerGroupT in components | g.load > maxServerLoad",
            &sys
        ));
        let grp = sys.component_by_name("ServerGrp1").unwrap();
        sys.component_mut(grp)
            .unwrap()
            .properties
            .set("load", 10i64);
        assert!(check(
            "exists g : ServerGroupT in components | g.load > maxServerLoad",
            &sys
        ));
    }

    #[test]
    fn forall_children_active() {
        let sys = example_system();
        assert!(check(
            "forall s : ServerT in ServerGrp1.children | s.isActive",
            &sys
        ));
    }

    #[test]
    fn select_and_size() {
        let sys = example_system();
        assert!(check(
            "size(select s : ServerT in ServerGrp1.children | s.isActive) == 3",
            &sys
        ));
        assert!(check(
            "size(select g : ServerGroupT in components | g.load == 0) == 1",
            &sys
        ));
    }

    #[test]
    fn connected_function() {
        let sys = example_system();
        assert!(check("connected(User1, ServerGrp1)", &sys));
        assert!(!check("connected(User1, ServerGrp2)", &sys));
    }

    #[test]
    fn quantifier_with_connected_and_bound_variable() {
        let sys = example_system();
        assert!(check(
            "exists g : ServerGroupT in components | connected(g, User1) and g.load <= maxServerLoad",
            &sys
        ));
    }

    #[test]
    fn role_bandwidth_constraint() {
        let sys = example_system();
        // The client's role has 5 Mbps, far above the 10 Kbps minimum.
        assert!(check(
            "forall r : ClientRoleT in Conn1.roles | r.bandwidth >= minBandwidth",
            &sys
        ));
    }

    #[test]
    fn arithmetic_and_implication() {
        let sys = example_system();
        assert!(check("1 + 2 * 3 == 7", &sys));
        assert!(check("ServerGrp1.load > 10 -> false", &sys));
        assert!(check("!(ServerGrp1.load > 10)", &sys));
    }

    #[test]
    fn missing_property_is_an_error() {
        let sys = example_system();
        assert!(matches!(
            eval_text("User1.nonexistent > 0", &sys),
            Err(EvalError::MissingProperty(_, _))
        ));
    }

    #[test]
    fn unknown_identifier_is_an_error() {
        let sys = example_system();
        assert!(matches!(
            eval_text("nonsense > 0", &sys),
            Err(EvalError::UnknownIdentifier(_))
        ));
    }

    #[test]
    fn unknown_function_is_an_error() {
        let sys = example_system();
        assert!(matches!(
            eval_text("frobnicate(User1)", &sys),
            Err(EvalError::UnknownFunction(_))
        ));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let sys = example_system();
        assert!(eval_text("1 / 0 > 1", &sys).is_err());
    }

    #[test]
    fn bindings_take_priority() {
        let sys = example_system();
        let client = sys.component_by_name("User1").unwrap();
        let program = Program::compile(
            &parse("self.averageLatency <= maxLatency").unwrap(),
            &["self"],
        );
        let bound = [Some(Operand::Element(ElementRef::Component(client)))];
        assert!(program.eval_bool(&sys, &bound).unwrap());
        // An empty slot leaves the name to the model, which has no `self`.
        assert!(matches!(
            program.eval_bool(&sys, &[None]),
            Err(EvalError::UnknownIdentifier(name)) if name == "self"
        ));
    }

    #[test]
    fn quantifier_variables_bind_only_in_their_body() {
        let mut sys = example_system();
        sys.properties.set("c", 2i64);
        // The first `c` is the system property, the body's `c` each
        // component; a slot named `c` is shadowed inside the body only.
        let text = "c > 1 and (exists c : ServerGroupT in components | c.load > 0)";
        assert!(check(text, &sys));
        let program = Program::compile(&parse(text).unwrap(), &["c"]);
        assert!(!program.eval_bool(&sys, &[Some(Operand::Int(0))]).unwrap());
        assert!(program.eval_bool(&sys, &[Some(Operand::Int(5))]).unwrap());
    }

    #[test]
    fn pseudo_properties_name_and_type() {
        let sys = example_system();
        assert!(check("User1.name == \"User1\"", &sys));
        assert!(check("User1.type == \"ClientT\"", &sys));
        assert!(check("size(ServerGrp1.children) == 3", &sys));
    }

    #[test]
    fn attached_component_to_role() {
        let sys = example_system();
        assert!(check(
            "exists r : ClientRoleT in Conn1.roles | attached(User1, r)",
            &sys
        ));
    }

    #[test]
    fn short_circuit_avoids_errors_on_rhs() {
        let sys = example_system();
        // The right-hand side would fail (unknown identifier) but must not be
        // evaluated because the left side decides.
        assert!(check("true or nonsense > 1", &sys));
        assert!(!check("false and nonsense > 1", &sys));
    }

    #[test]
    fn value_semantics_of_eval_value() {
        assert_eq!(Operand::Bool(true).as_bool(), Some(true));
        assert_eq!(Operand::Int(3).as_f64(), Some(3.0));
        assert_eq!(
            Operand::Elements(Elements::Selected(vec![])).as_bool(),
            None
        );
    }

    // ---- the compiled evaluator against the tree-walker -----------------

    const NAMES: [&str; 15] = [
        "self",
        "x",
        "g",
        "components",
        "connectors",
        "maxLatency",
        "maxServerLoad",
        "label",
        "tags",
        "User1",
        "ServerGrp1",
        "Server2",
        "Conn1",
        "clientSide",
        "nonsense",
    ];
    const PROPERTIES: [&str; 13] = [
        "name",
        "type",
        "ports",
        "children",
        "members",
        "roles",
        "size",
        "load",
        "averageLatency",
        "isActive",
        "bandwidth",
        "host",
        "missing",
    ];
    const TYPES: [&str; 6] = [
        "ServerGroupT",
        "ClientT",
        "ServerT",
        "ClientRoleT",
        "ServiceConnT",
        "RequestT",
    ];
    const FUNCTIONS: [&str; 6] = [
        "size",
        "isEmpty",
        "connected",
        "attached",
        "contains",
        "frobnicate",
    ];
    const BINOPS: [BinOp; 13] = [
        BinOp::Or,
        BinOp::And,
        BinOp::Implies,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
    ];

    fn below(rng: &mut TestRng, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    fn pick<'t, T>(rng: &mut TestRng, items: &'t [T]) -> &'t T {
        &items[below(rng, items.len())]
    }

    fn value(rng: &mut TestRng) -> Value {
        match below(rng, 8) {
            0 => Value::Float(*pick(
                rng,
                &[
                    0.0,
                    -0.0,
                    1.0,
                    2.5,
                    1.0 + f64::EPSILON / 2.0,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ],
            )),
            1 => Value::Bool(below(rng, 2) == 0),
            2 => Value::Str(pick(rng, &["User1", "ClientT", "", "a\"b"]).to_string()),
            3 => {
                let len = below(rng, 3);
                Value::Set((0..len).map(|_| value(rng)).collect())
            }
            _ => Value::Int(below(rng, 5) as i64 - 1),
        }
    }

    fn domain(rng: &mut TestRng, depth: u32) -> Expr {
        let ident = |name: &str| Expr::Ident(name.into());
        match below(rng, 7) {
            0 => ident("components"),
            1 => ident("connectors"),
            2 => Expr::prop(ident("ServerGrp1"), "children"),
            3 => Expr::prop(ident("Conn1"), "roles"),
            4 => Expr::prop(ident("User1"), "ports"),
            _ => expr(rng, depth),
        }
    }

    fn expr(rng: &mut TestRng, depth: u32) -> Expr {
        if depth == 0 || below(rng, 4) == 0 {
            return match below(rng, 3) {
                0 => Expr::Literal(value(rng)),
                _ => Expr::Ident(pick(rng, &NAMES).to_string()),
            };
        }
        let depth = depth - 1;
        match below(rng, 7) {
            0 => Expr::prop(expr(rng, depth), pick::<&str>(rng, &PROPERTIES)),
            1 => Expr::Unary(
                *pick(rng, &[UnaryOp::Not, UnaryOp::Neg]),
                Box::new(expr(rng, depth)),
            ),
            2 | 3 => Expr::bin(*pick(rng, &BINOPS), expr(rng, depth), expr(rng, depth)),
            4 => {
                let name = pick(rng, &FUNCTIONS).to_string();
                let arity = below(rng, 4);
                Expr::Call(name, (0..arity).map(|_| expr(rng, depth)).collect())
            }
            _ => Expr::Quantifier {
                kind: *pick(
                    rng,
                    &[
                        QuantifierKind::Exists,
                        QuantifierKind::Forall,
                        QuantifierKind::Select,
                    ],
                ),
                var: pick(rng, &["g", "x", "self"]).to_string(),
                type_filter: (below(rng, 2) == 0).then(|| pick(rng, &TYPES).to_string()),
                domain: Box::new(domain(rng, depth)),
                body: Box::new(expr(rng, depth)),
            },
        }
    }

    /// The example system with random system properties and random element
    /// properties on every element.
    fn model(rng: &mut TestRng) -> System {
        let mut sys = example_system();
        // `x` is also a slot name: an unbound slot must fall back to it.
        for name in ["maxLatency", "maxServerLoad", "label", "tags", "x"] {
            if below(rng, 4) == 0 {
                sys.properties.remove(name);
            } else {
                sys.properties.set(name, value(rng));
            }
        }
        for el in elements(&sys) {
            for name in ["load", "averageLatency", "isActive", "bandwidth", "host"] {
                if below(rng, 3) == 0 {
                    sys.set_property(el, name, value(rng)).unwrap();
                }
            }
        }
        sys
    }

    fn elements(sys: &System) -> Vec<ElementRef> {
        let components = sys.components().map(|(id, _)| ElementRef::Component(id));
        let connectors = sys.connectors().map(|(id, _)| ElementRef::Connector(id));
        let ports = sys.ports().map(|(id, _)| ElementRef::Port(id));
        let roles = sys.roles().map(|(id, _)| ElementRef::Role(id));
        components
            .chain(connectors)
            .chain(ports)
            .chain(roles)
            .collect()
    }

    /// A caller's binding: none, a value, an element (one the model lacks,
    /// sometimes) or a list of elements.
    fn binding(rng: &mut TestRng, sys: &System) -> Option<EvalValue> {
        let all = elements(sys);
        let dangling = ElementRef::Component(ComponentId(999));
        match below(rng, 6) {
            0 => None,
            1 => Some(EvalValue::Val(value(rng))),
            2 => {
                let len = below(rng, 4);
                Some(EvalValue::Elements(
                    (0..len).map(|_| *pick(rng, &all)).collect(),
                ))
            }
            3 => Some(EvalValue::Element(dangling)),
            _ => Some(EvalValue::Element(*pick(rng, &all))),
        }
    }

    fn operand(v: &EvalValue) -> Operand<'_> {
        match v {
            EvalValue::Val(v) => v.into(),
            EvalValue::Element(el) => Operand::Element(*el),
            EvalValue::Elements(els) => Operand::Elements(Elements::Selected(els.clone())),
        }
    }

    /// An error as both of its spellings: the variant the constraint checker
    /// matches on, and the `Display` text reports carry.
    fn spelled(e: EvalError) -> String {
        format!("{e:?} / {e}")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// Generated expressions over a model with random properties, with
        /// `self` and `x` bound, unbound, or bound to elements the model
        /// lacks: the compiled evaluator returns what the tree-walker does —
        /// the same value (compared as the owned value's `Debug` text, so
        /// NaN, ±0 and element lists compare exactly) or the same error.
        #[test]
        fn the_compiled_evaluator_agrees_with_the_tree_walker(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let sys = model(&mut rng);
            let e = expr(&mut rng, 4);
            let slots = [binding(&mut rng, &sys), binding(&mut rng, &sys)];
            let mut bindings = oracle::Bindings::new();
            for (name, slot) in ["self", "x"].into_iter().zip(&slots) {
                if let Some(v) = slot {
                    bindings.insert(name.to_string(), v.clone());
                }
            }
            let bound: Vec<Option<Operand>> = slots.iter().map(|s| s.as_ref().map(operand)).collect();
            let program = Program::compile(&e, &["self", "x"]);
            let got = program
                .eval(&sys, &bound)
                .map(|v| format!("{:?}", Shown(&v, &sys)))
                .map_err(spelled);
            let want = oracle::eval(&e, &sys, &bindings)
                .map(|v| format!("{v:?}"))
                .map_err(spelled);
            prop_assert_eq!(got, want, "{:?}", e);
            prop_assert_eq!(
                program.eval_bool(&sys, &bound).map_err(spelled),
                oracle::eval_bool(&e, &sys, &bindings).map_err(spelled),
                "{:?}",
                e
            );
        }
    }
}
