//! E2: synthesize the TCP handshake register machine from concrete traces
//! replayed along the learned model's transition cover.
use std::io::Write;

fn main() {
    // One write: a reader that stops at its first match (`grep -q`) cannot
    // cut the report short and turn the rest of it into a broken pipe.
    let report = format!("{}\n", prognosis_bench::exp_tcp_synthesis());
    std::io::stdout()
        .write_all(report.as_bytes())
        .expect("write the report");
}
