//! `repro` rejects experiment names it does not know before running
//! anything, so a misspelt scripted invocation fails.

use std::process::Command;

#[test]
fn unknown_experiment_fails_and_lists_valid_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table4", "tabel5", "--quiet"])
        .output()
        .expect("spawn repro");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("tabel5"), "{err}");
    assert!(err.contains("table5") && err.contains("baseline"), "{err}");
    // Validation precedes execution: the valid `table4` never ran.
    assert!(!err.contains("running table4"), "{err}");
}
