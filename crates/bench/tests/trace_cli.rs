//! The `trace` binary says what its ring dropped: a `warning:` line on
//! stderr and the counts in the document, and neither when nothing was lost.

use std::process::Command;

/// Runs `trace --scale smoke --kind log` with `extra`; (stdout, stderr).
fn trace(extra: &[&str]) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["--scale", "smoke", "--kind", "log", "--validate"])
        .args(extra)
        .output()
        .expect("trace runs");
    assert!(output.status.success(), "{output:?}");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8");
    (text(output.stdout), text(output.stderr))
}

/// The value of a top-level `"key": <integer>,` line of the document.
fn count(json: &str, key: &str) -> u64 {
    let (_, rest) = json
        .split_once(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("{key} missing"));
    let digits = rest.split(',').next().expect("a value");
    digits.parse().expect("an integer")
}

#[test]
fn a_ring_too_small_for_the_run_warns_and_counts_what_it_dropped() {
    let (json, stderr) = trace(&["--capacity", "64"]);
    let (spans, samples) = (
        count(&json, "droppedSpans"),
        count(&json, "droppedMetricSamples"),
    );
    assert!(spans > 0 && samples > 0, "{spans} spans, {samples} samples");
    let warning = stderr
        .lines()
        .find(|line| line.starts_with("warning:"))
        .unwrap_or_else(|| panic!("no warning in {stderr:?}"));
    assert!(warning.contains(&format!("{spans} spans")), "{warning}");
    assert!(
        warning.contains(&format!("{samples} metric samples")),
        "{warning}"
    );
}

#[test]
fn a_ring_that_held_everything_does_not_warn() {
    let (json, stderr) = trace(&[]);
    assert_eq!(count(&json, "droppedSpans"), 0);
    assert_eq!(count(&json, "droppedMetricSamples"), 0);
    assert!(!stderr.contains("warning:"), "{stderr}");
}
