//! The `certain` CLI on malformed input: a typed error message on
//! stderr and exit status 2, never a panic (exit 101).

use std::process::Command;

fn certain(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_certain"))
        .args(args)
        .output()
        .expect("certain binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A relation used at two arities in the database text is a parse
/// error, not the schema's arity-redeclaration panic.
#[test]
fn conflicting_arity_exits_with_a_parse_error() {
    let (code, stderr) = certain(&["eval", "R(1); R(1,2)", "(x) :- R(x)"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.starts_with("database: parse error at byte 6"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Assert a typed error on stderr with exit status 2 and no panic.
fn assert_typed_error(args: &[&str], prefix: &str) {
    let (code, stderr) = certain(args);
    assert_eq!(code, Some(2), "{args:?}: stderr: {stderr}");
    assert!(stderr.starts_with(prefix), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

/// Comparing databases over different relations is a schema error, not
/// the homomorphism search's incompatible-schema panic.
#[test]
fn order_over_incompatible_schemas_is_a_typed_error() {
    assert_typed_error(
        &["order", "R(1)", "S(1,2)"],
        "databases: incompatible schemas",
    );
}

/// The same relation at two arities across the two databases.
#[test]
fn glb_over_incompatible_schemas_is_a_typed_error() {
    assert_typed_error(
        &["glb", "R(1)", "R(1,2)"],
        "databases: incompatible schemas",
    );
}

/// A query atom at the wrong arity used to print nothing.
#[test]
fn eval_arity_mismatch_is_a_typed_error() {
    assert_typed_error(
        &["eval", "R(1,2)", "(x) :- R(x)"],
        "query: relation R has arity 2 but the atom uses 1",
    );
}

/// A Boolean query atom at the wrong arity used to print `false`/`false`.
#[test]
fn check_arity_mismatch_is_a_typed_error() {
    assert_typed_error(
        &["check", "R(1,2)", "() :- R(x)"],
        "query: relation R has arity 2 but the atom uses 1",
    );
}
