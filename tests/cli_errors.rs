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
