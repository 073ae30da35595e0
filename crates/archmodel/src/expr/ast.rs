//! Abstract syntax of the constraint-expression language.
//!
//! The language is a small subset of Armani (the Acme constraint language)
//! sufficient to express the paper's invariants and tactic preconditions,
//! e.g. `averageLatency <= maxLatency`, `exists sgrp : ServerGroupT in
//! components | connected(sgrp, client) and sgrp.load > maxServerLoad`.

use crate::value::Value;

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Logical disjunction.
    Or,
    /// Logical conjunction.
    And,
    /// Implication (`->`).
    Implies,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-than-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-than-or-equal.
    Ge,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical negation (`!` or `not`).
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Kinds of quantified expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantifierKind {
    /// True if some element of the domain satisfies the body.
    Exists,
    /// True if every element of the domain satisfies the body.
    Forall,
    /// The set of domain elements satisfying the body.
    Select,
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// An identifier: a quantifier binding, a system property, or one of the
    /// built-in collections `components` / `connectors`.
    Ident(String),
    /// Property access `target.name` (also `.name`, `.type`, `.ports`,
    /// `.roles`, `.children`, `.size`).
    Property(Box<Expr>, String),
    /// A unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A function call such as `connected(a, b)`, `attached(c, r)`,
    /// `size(xs)`.
    Call(String, Vec<Expr>),
    /// A quantified expression
    /// `exists x : TypeT in domain | body`.
    Quantifier {
        /// Exists / forall / select.
        kind: QuantifierKind,
        /// The bound variable name.
        var: String,
        /// Optional element-type filter (e.g. `ServerGroupT`).
        type_filter: Option<String>,
        /// The collection expression being quantified over.
        domain: Box<Expr>,
        /// The predicate applied to each element.
        body: Box<Expr>,
    },
}

/// The property read-set of a constraint expression: which parts of the
/// architectural model the expression can observe. Incremental constraint
/// checking intersects this with the model's dirty set to decide which
/// (invariant, element) pairs a batch of changes can affect.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PropertyReadSet {
    /// Property names read off the bound `self` element (`self.load`).
    /// Sorted and deduplicated.
    pub self_props: Vec<String>,
    /// Bare identifiers: system properties, element names, or the built-in
    /// collections. Sorted and deduplicated.
    pub idents: Vec<String>,
    /// True when the expression reads state this analysis cannot attribute to
    /// a `(element, property)` pair — quantifier bodies, function calls, and
    /// property access on anything but a bare `self`. An opaque invariant
    /// must be re-evaluated whenever *any* model change happened.
    pub opaque: bool,
}

impl Expr {
    /// Convenience constructor for property access.
    pub fn prop(target: Expr, name: &str) -> Expr {
        Expr::Property(Box::new(target), name.to_string())
    }

    /// Convenience constructor for a binary operation.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// The property read-set of the expression (see [`PropertyReadSet`]).
    ///
    /// The analysis is deliberately conservative: only `self.prop` access and
    /// bare identifiers are attributed precisely; everything else (quantifier
    /// bodies, calls such as `connected(a, b)`, chained property access)
    /// marks the read-set opaque, which forces re-evaluation on any change.
    /// Structural reads (`.children`, `.roles`, element identity) need no
    /// attribution here because structural model operations invalidate the
    /// incremental cache wholesale.
    pub fn referenced_properties(&self) -> PropertyReadSet {
        let mut out = PropertyReadSet::default();
        self.collect_reads(&mut out);
        out.self_props.sort();
        out.self_props.dedup();
        out.idents.sort();
        out.idents.dedup();
        out
    }

    fn collect_reads(&self, out: &mut PropertyReadSet) {
        match self {
            Expr::Literal(_) => {}
            Expr::Ident(name) => {
                if name == "self" {
                    // A bare `self` flows into a call or comparison whose
                    // meaning this analysis does not model.
                    out.opaque = true;
                } else {
                    out.idents.push(name.clone());
                }
            }
            Expr::Property(target, name) => match target.as_ref() {
                Expr::Ident(t) if t == "self" => out.self_props.push(name.clone()),
                _ => {
                    out.opaque = true;
                    target.collect_reads(out);
                }
            },
            Expr::Unary(_, e) => e.collect_reads(out),
            Expr::Binary(_, l, r) => {
                l.collect_reads(out);
                r.collect_reads(out);
            }
            Expr::Call(_, args) => {
                out.opaque = true;
                for a in args {
                    a.collect_reads(out);
                }
            }
            Expr::Quantifier { domain, body, .. } => {
                out.opaque = true;
                domain.collect_reads(out);
                body.collect_reads(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_construct_expected_shapes() {
        let e = Expr::bin(
            BinOp::Le,
            Expr::prop(Expr::Ident("self".into()), "averageLatency"),
            Expr::Ident("maxLatency".into()),
        );
        match e {
            Expr::Binary(BinOp::Le, lhs, rhs) => {
                assert!(matches!(*lhs, Expr::Property(_, ref n) if n == "averageLatency"));
                assert!(matches!(*rhs, Expr::Ident(ref n) if n == "maxLatency"));
            }
            _ => panic!("unexpected shape"),
        }
    }

    #[test]
    fn read_set_attributes_self_props_and_idents_precisely() {
        let e = crate::expr::parse("self.averageLatency <= maxLatency").unwrap();
        let reads = e.referenced_properties();
        assert_eq!(reads.self_props, vec!["averageLatency".to_string()]);
        assert_eq!(reads.idents, vec!["maxLatency".to_string()]);
        assert!(!reads.opaque);
    }

    #[test]
    fn read_set_dedups_and_sorts() {
        let e =
            crate::expr::parse("self.load <= maxServerLoad and self.load >= 0 and self.base <= 1")
                .unwrap();
        let reads = e.referenced_properties();
        assert_eq!(
            reads.self_props,
            vec!["base".to_string(), "load".to_string()]
        );
        assert!(!reads.opaque);
    }

    #[test]
    fn calls_quantifiers_and_chained_access_are_opaque() {
        for text in [
            "size(select g : ServerGroupT in components | g.load >= 0) >= 1",
            "forall c : ClientT in components | c.averageLatency <= maxLatency",
            "connected(self, other)",
        ] {
            let reads = crate::expr::parse(text).unwrap().referenced_properties();
            assert!(reads.opaque, "{text} should be opaque");
        }
    }
}
