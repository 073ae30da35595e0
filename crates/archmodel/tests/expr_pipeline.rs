//! Focused tests for the constraint-expression pipeline: lexer → parser →
//! evaluator round-trips, operator precedence, and error reporting. The
//! expression language is the hot path of constraint checking, so each layer
//! gets direct coverage here in addition to the end-to-end suites.

use archmodel::expr::{tokenize, ParseError, Token};
use archmodel::style::{props, ClientServerStyle};
use archmodel::{parse, BinOp, EvalError, Expr, Operand, Program, System, UnaryOp, Value};

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[test]
fn lexer_distinguishes_integers_and_floats() {
    assert_eq!(tokenize("3").unwrap(), vec![Token::Integer(3)]);
    assert_eq!(tokenize("3.5").unwrap(), vec![Token::Number(3.5)]);
}

#[test]
fn lexer_recognises_compound_operators() {
    assert_eq!(
        tokenize("a <= b >= c == d != e -> f").unwrap(),
        vec![
            Token::Ident("a".into()),
            Token::Le,
            Token::Ident("b".into()),
            Token::Ge,
            Token::Ident("c".into()),
            Token::EqEq,
            Token::Ident("d".into()),
            Token::Ne,
            Token::Ident("e".into()),
            Token::Arrow,
            Token::Ident("f".into()),
        ]
    );
}

#[test]
fn lexer_recognises_keywords_and_punctuation() {
    assert_eq!(
        tokenize("exists s : T in components | true").unwrap(),
        vec![
            Token::Exists,
            Token::Ident("s".into()),
            Token::Colon,
            Token::Ident("T".into()),
            Token::In,
            Token::Ident("components".into()),
            Token::Pipe,
            Token::True,
        ]
    );
}

#[test]
fn lexer_rejects_unknown_characters() {
    assert!(tokenize("a @ b").is_err());
    assert!(tokenize("latency # 3").is_err());
}

// ---------------------------------------------------------------------------
// Parser: precedence and structure
// ---------------------------------------------------------------------------

fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::bin(op, lhs, rhs)
}

fn int(v: i64) -> Expr {
    Expr::Literal(Value::Int(v))
}

fn ident(name: &str) -> Expr {
    Expr::Ident(name.to_string())
}

#[test]
fn multiplication_binds_tighter_than_addition() {
    assert_eq!(
        parse("1 + 2 * 3").unwrap(),
        bin(BinOp::Add, int(1), bin(BinOp::Mul, int(2), int(3)))
    );
}

#[test]
fn comparison_binds_tighter_than_logic() {
    assert_eq!(
        parse("a < 1 and b > 2").unwrap(),
        bin(
            BinOp::And,
            bin(BinOp::Lt, ident("a"), int(1)),
            bin(BinOp::Gt, ident("b"), int(2)),
        )
    );
}

#[test]
fn and_binds_tighter_than_or_and_implies_is_loosest() {
    assert_eq!(
        parse("a or b and c").unwrap(),
        bin(
            BinOp::Or,
            ident("a"),
            bin(BinOp::And, ident("b"), ident("c")),
        )
    );
    assert_eq!(
        parse("a and b -> c or d").unwrap(),
        bin(
            BinOp::Implies,
            bin(BinOp::And, ident("a"), ident("b")),
            bin(BinOp::Or, ident("c"), ident("d")),
        )
    );
}

#[test]
fn parentheses_override_precedence() {
    assert_eq!(
        parse("(1 + 2) * 3").unwrap(),
        bin(BinOp::Mul, bin(BinOp::Add, int(1), int(2)), int(3))
    );
}

#[test]
fn negation_applies_before_binary_logic() {
    assert_eq!(
        parse("not a and b").unwrap(),
        bin(
            BinOp::And,
            Expr::Unary(UnaryOp::Not, Box::new(ident("a"))),
            ident("b"),
        )
    );
}

#[test]
fn property_access_chains_left_to_right() {
    assert_eq!(
        parse("Grp.server.load").unwrap(),
        Expr::prop(Expr::prop(ident("Grp"), "server"), "load")
    );
}

#[test]
fn quantifier_parses_with_type_filter() {
    let expr = parse("exists s : ServerGroupT in components | s.load > 2").unwrap();
    match expr {
        Expr::Quantifier {
            var, type_filter, ..
        } => {
            assert_eq!(var, "s");
            assert_eq!(type_filter.as_deref(), Some("ServerGroupT"));
        }
        other => panic!("expected quantifier, got {other:?}"),
    }
}

#[test]
fn parser_reports_truncated_and_trailing_input() {
    let err: ParseError = parse("1 +").unwrap_err();
    assert!(!err.message.is_empty());
    assert!(parse("(a").is_err());
    assert!(parse("1 2").is_err());
    assert!(parse("").is_err());
    assert!(parse("exists s in components").is_err()); // missing `| body`
}

// ---------------------------------------------------------------------------
// Evaluator round-trips (text → tokens → AST → value)
// ---------------------------------------------------------------------------

fn example() -> System {
    ClientServerStyle::example_system("expr-tests", 2, 2, 3).expect("example system builds")
}

fn eval_bool(system: &System, text: &str) -> Result<bool, EvalError> {
    Program::compile(&parse(text).unwrap(), &[]).eval_bool(system, &[])
}

fn eval_err(system: &System, text: &str) -> EvalError {
    eval_bool(system, text).unwrap_err()
}

#[test]
fn arithmetic_round_trip_matches_rust_semantics() {
    let sys = System::new("empty");
    for (text, expected) in [
        ("1 + 2 * 3", 7.0),
        ("(1 + 2) * 3", 9.0),
        ("10 / 4", 2.5),
        ("2 - 3 - 4", -5.0),
        ("-3 + 10", 7.0),
    ] {
        let equation = format!("{text} == {expected:?}");
        assert!(eval_bool(&sys, &equation).unwrap(), "{equation}");
    }
}

#[test]
fn boolean_operators_round_trip() {
    let sys = System::new("empty");
    for (text, expected) in [
        ("true and false", false),
        ("true or false", true),
        ("not false", true),
        ("false -> true", true),
        ("true -> false", false),
        ("1 < 2 and 2 <= 2 and 3 > 2 and 3 >= 3", true),
        ("1 == 1 and 1 != 2", true),
    ] {
        assert_eq!(eval_bool(&sys, text).unwrap(), expected, "{text}");
    }
}

#[test]
fn system_properties_resolve_as_identifiers() {
    let sys = example();
    // example_system sets maxLatency = 2.0 on the system.
    assert!(eval_bool(&sys, "maxLatency == 2.0").unwrap());
}

#[test]
fn component_property_round_trip() {
    let mut sys = example();
    let client = sys.component_by_name("User1").unwrap();
    sys.component_mut(client)
        .unwrap()
        .properties
        .set(props::AVERAGE_LATENCY, 1.25);
    assert!(eval_bool(&sys, "User1.averageLatency <= maxLatency").unwrap());
    assert!(eval_bool(&sys, "User1.averageLatency * 4 == 5.0").unwrap());
}

#[test]
fn quantifiers_evaluate_over_the_component_graph() {
    let sys = example();
    // Two groups exist, each with a replicationCount property.
    assert!(eval_bool(
        &sys,
        "exists g : ServerGroupT in components | g.replicationCount >= 1"
    )
    .unwrap());
    assert!(eval_bool(
        &sys,
        "forall g : ServerGroupT in components | g.replicationCount == 2"
    )
    .unwrap());
    // select returns the matching elements; size() counts them.
    assert!(eval_bool(&sys, "size(select c : ClientT in components | true) == 3").unwrap());
}

#[test]
fn string_literals_compare() {
    let sys = System::new("empty");
    assert!(eval_bool(&sys, "\"abc\" == \"abc\"").unwrap());
}

#[test]
fn bindings_shadow_system_properties() {
    let sys = example();
    let program = Program::compile(&parse("maxLatency > 50").unwrap(), &["maxLatency"]);
    let bound = [Some(Operand::from(&Value::Float(99.0)))];
    assert!(program.eval_bool(&sys, &bound).unwrap());
}

// ---------------------------------------------------------------------------
// Evaluator error cases
// ---------------------------------------------------------------------------

#[test]
fn unknown_identifier_is_reported() {
    let sys = System::new("empty");
    let err = eval_err(&sys, "noSuchThing + 1");
    assert!(matches!(err, EvalError::UnknownIdentifier(name) if name == "noSuchThing"));
}

#[test]
fn unknown_function_is_reported() {
    let sys = System::new("empty");
    let err = eval_err(&sys, "frobnicate(1)");
    assert!(matches!(err, EvalError::UnknownFunction(name) if name == "frobnicate"));
}

#[test]
fn type_mismatches_are_reported() {
    let sys = System::new("empty");
    // Arithmetic on a boolean.
    assert!(matches!(
        eval_err(&sys, "1 + true"),
        EvalError::TypeMismatch(_)
    ));
    // eval_bool on a numeric result.
    let err = eval_bool(&sys, "1 + 2").unwrap_err();
    assert!(matches!(err, EvalError::TypeMismatch(_)));
}

#[test]
fn bad_arity_is_reported() {
    let sys = example();
    let err = eval_err(&sys, "size()");
    assert!(matches!(err, EvalError::BadArguments(_)));
}
