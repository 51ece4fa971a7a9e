//! Exit-code contract of `albireo validate-oracles`: zero when every
//! paper oracle passes, 3 (a tripped gate) as soon as any oracle fails,
//! with the checklist on stderr. CI gates on this, so the contract gets
//! its own process-level test.

use std::process::Command;

/// Exit code, stdout and stderr of `albireo validate-oracles <args>`.
fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_albireo"))
        .arg("validate-oracles")
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code().expect("exited, not killed by a signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn healthy_checklist_exits_zero() {
    let (code, stdout, stderr) = run(&[]);
    assert_eq!(code, 0, "every oracle must pass:\n{stdout}{stderr}");
    assert!(stdout.contains("PASS"));
    assert!(stdout.contains(", 0 failed"), "{stdout}");
    assert!(!stdout.contains("[FAIL]"), "{stdout}");
}

#[test]
fn forced_failures_exit_nonzero() {
    // Shrinking every tolerance to one millionth forces the relative
    // checks to fail against the real measured values — the genuine
    // failing path, not a mocked one.
    let (code, stdout, stderr) = run(&["--tol-scale", "1e-6"]);
    assert_eq!(code, 3, "a failed oracle trips the gate:\n{stderr}");
    assert!(stderr.contains("[FAIL]"), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
}

#[test]
fn loose_tolerances_still_pass() {
    let (code, stdout, _) = run(&["--tol-scale", "10"]);
    assert_eq!(code, 0, "{stdout}");
}

#[test]
fn bad_arguments_exit_with_usage_error() {
    for args in [&["--frobnicate"][..], &["--tol-scale", "lots"]] {
        let (code, _, stderr) = run(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
    }
}
