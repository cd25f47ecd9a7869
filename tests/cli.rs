//! Command-line robustness: `optimus-sim` rejects meaningless numeric
//! flag values up front, with a message naming the flag and exit code 2,
//! instead of silently simulating with them.

use std::process::Command;

fn optimus_sim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_optimus-sim"))
        .args(args)
        .output()
        .expect("spawn optimus-sim")
}

#[test]
fn non_positive_or_non_finite_durations_are_usage_errors() {
    for sub in ["run", "batch", "generate"] {
        for flag in ["--target-hours", "--interval"] {
            for value in ["nan", "NaN", "inf", "-inf", "-1", "0", "-0", "abc"] {
                let out = optimus_sim(&[sub, "--jobs", "1", flag, value]);
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(
                    out.status.code(),
                    Some(2),
                    "{sub} {flag} {value}: exit {:?}, stderr {stderr}",
                    out.status
                );
                assert!(
                    stderr.contains(flag),
                    "{sub} {flag} {value}: message does not name the flag: {stderr}"
                );
                assert!(out.stdout.is_empty(), "{sub} {flag} {value}: ran anyway");
            }
        }
    }
}

#[test]
fn positive_finite_durations_are_accepted() {
    let out = optimus_sim(&[
        "generate",
        "--jobs",
        "2",
        "--target-hours",
        "0.5",
        "--interval",
        "300",
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("jobs"));
}
