//! Event-log analyzer: `prognosis-events <stats|verify|timeline> <log>`.
//!
//! * `stats` — file/byte/event totals and per-name counts.
//! * `verify` — soundness check (rotated sequence + every line parses;
//!   a torn final live line is tolerated).  Exits nonzero on unsound
//!   logs, so CI can gate on it.
//! * `timeline` — per-phase occupancy timeline, batch-size histogram and
//!   wire-loss summary.

use std::path::PathBuf;
use std::process::ExitCode;

use prognosis_events::analyze::{scan_log, stats_text, timeline_text};

fn usage() -> ExitCode {
    eprintln!("usage: prognosis-events <stats|verify|timeline> <log-file>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, path) = match args.as_slice() {
        [command, path] => (command.as_str(), PathBuf::from(path)),
        _ => return usage(),
    };
    let scan = match scan_log(&path) {
        Ok(scan) => scan,
        Err(e) => {
            eprintln!("prognosis-events: {e}");
            return ExitCode::FAILURE;
        }
    };
    match command {
        "stats" => print!("{}", stats_text(&scan)),
        "verify" => {
            println!(
                "sound: {} events across {} file(s), {} bytes{}",
                scan.events.len(),
                scan.files.len(),
                scan.bytes,
                if scan.torn_tail {
                    " (torn tail tolerated)"
                } else {
                    ""
                }
            );
        }
        "timeline" => print!("{}", timeline_text(&scan)),
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
