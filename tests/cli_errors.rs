//! Bad user input to the `peppa` CLI ends in an error message and a
//! non-zero exit, never a panic or a silent success.

use std::process::Command;

fn peppa(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_peppa"))
        .args(args)
        .output()
        .expect("spawn peppa");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn wrong_input_arity_is_a_usage_error() {
    for cmd in ["run", "inject", "search"] {
        let (code, err) = peppa(&[cmd, "--bench", "pathfinder", "--input", "5,3", "--quiet"]);
        assert_eq!(code, Some(2), "{cmd}: {err}");
        assert!(err.contains("input arity mismatch"), "{cmd}: {err}");
        assert!(!err.contains("panicked"), "{cmd}: {err}");
    }
}

#[test]
fn zero_trials_is_a_usage_error() {
    for cmd in ["inject", "search"] {
        let (code, err) = peppa(&[cmd, "--bench", "pathfinder", "--trials", "0", "--quiet"]);
        assert_eq!(code, Some(2), "{cmd}: {err}");
        assert!(err.contains("--trials"), "{cmd}: {err}");
    }
}
