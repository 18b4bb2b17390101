//! Runs one registered experiment by id and prints its rendered figure:
//!
//! ```text
//! experiment <id> [--reduced] [--json <path>]
//! ```
//!
//! `--reduced` runs the fast configuration (omit it for paper scale,
//! minutes); `--json` additionally exports the artifact. A missing or
//! unknown id lists every registered id and title on stderr and exits 2,
//! as does an unknown argument. The engine honours `VOLTNOISE_STORE`, so
//! a long run resumes after an interrupt.

use std::path::PathBuf;
use voltnoise::analysis::{find, registry};
use voltnoise::prelude::*;
use voltnoise::system::Engine;

const USAGE: &str = "experiment <id> [--reduced] [--json <path>]";

fn exit_usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: {USAGE}");
    std::process::exit(2);
}

fn main() {
    let (mut id, mut reduced, mut json) = (None, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--reduced" => reduced = true,
            "--json" => match args.next() {
                Some(path) => json = Some(PathBuf::from(path)),
                None => exit_usage("--json needs a path"),
            },
            other if !other.starts_with('-') && id.is_none() => id = Some(a),
            other => exit_usage(&format!("unknown argument: {other}")),
        }
    }
    let Some(entry) = id.as_deref().and_then(find) else {
        match &id {
            Some(id) => eprintln!("unknown experiment: {id}"),
            None => eprintln!("missing experiment id"),
        }
        eprintln!("usage: {USAGE}");
        eprintln!("experiments:");
        for e in registry() {
            eprintln!("  {:<18} {}", e.id, e.title);
        }
        std::process::exit(2);
    };
    let tb = if reduced {
        Testbed::fast()
    } else {
        Testbed::shared()
    };
    let out = entry
        .run(tb, &Engine::new(), reduced)
        .unwrap_or_else(|e| panic!("{} failed: {e}", entry.id));
    print!("{}", out.rendered);
    if let Some(path) = json {
        let text = serde_json::to_string_pretty(&out.value).expect("results serialize");
        std::fs::write(&path, text).expect("result file writable");
        eprintln!("# wrote {}", path.display());
    }
}
