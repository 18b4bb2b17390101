#![warn(missing_docs)]

//! Command-line options shared by the two binaries: `experiment` runs
//! one registry entry by id, `full_report` runs every report entry.
//!
//! Both accept `--reduced` to run the fast configuration used in CI;
//! `experiment` additionally exports the structured result with
//! `--json <path>`.

use serde::Serialize;
use std::path::PathBuf;

/// Parsed common CLI options.
#[derive(Debug, Clone, Default)]
pub struct HarnessOpts {
    /// The one positional argument, if given (the experiment id).
    pub id: Option<String>,
    /// Run the reduced (fast) configuration.
    pub reduced: bool,
    /// Optional JSON export path.
    pub json: Option<PathBuf>,
}

impl HarnessOpts {
    /// Parses `std::env::args`. An unknown flag or a second positional
    /// argument exits 2 with `usage`.
    pub fn from_args(usage: &str) -> Self {
        let mut opts = HarnessOpts::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--reduced" => opts.reduced = true,
                "--json" => {
                    opts.json = args.next().map(PathBuf::from);
                }
                other if !other.starts_with('-') && opts.id.is_none() => {
                    opts.id = Some(a);
                }
                other => exit_usage(&format!("unknown argument: {other}"), usage),
            }
        }
        opts
    }

    /// Prints the rendered result and optionally exports JSON.
    pub fn finish<T: Serialize>(&self, rendered: &str, value: &T) {
        print!("{rendered}");
        if let Some(path) = &self.json {
            let json = serde_json::to_string_pretty(value).expect("results serialize");
            std::fs::write(path, json).expect("result file writable");
            eprintln!("# wrote {}", path.display());
        }
    }
}

/// Prints `message` and the usage line to stderr and exits 2.
pub fn exit_usage(message: &str, usage: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}
