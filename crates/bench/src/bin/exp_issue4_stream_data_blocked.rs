//! E8 / Issue 4: STREAM_DATA_BLOCKED carries the constant 0 in Google QUIC.
use std::io::Write;

fn main() {
    // One write: a reader that stops at its first match (`grep -q`) cannot
    // cut the report short and turn the rest of it into a broken pipe.
    let report = format!("{}\n", prognosis_bench::exp_issue4());
    std::io::stdout()
        .write_all(report.as_bytes())
        .expect("write the report");
}
