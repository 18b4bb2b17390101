//! Runs one registered experiment by id and prints its rendered figure:
//!
//! ```text
//! experiment <id> [--reduced] [--json <path>]
//! ```
//!
//! `--reduced` runs the fast configuration (omit it for paper scale,
//! minutes); `--json` additionally exports the artifact. A missing or
//! unknown id lists every registered id and title on stderr and exits 2.
//! The engine honours `VOLTNOISE_STORE`, so a long run resumes after an
//! interrupt.

use voltnoise::analysis::{find, registry};
use voltnoise::prelude::*;
use voltnoise::system::Engine;
use voltnoise_bench::HarnessOpts;

const USAGE: &str = "experiment <id> [--reduced] [--json <path>]";

fn main() {
    let opts = HarnessOpts::from_args(USAGE);
    let Some(entry) = opts.id.as_deref().and_then(find) else {
        match &opts.id {
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
    let tb = if opts.reduced {
        Testbed::fast()
    } else {
        Testbed::shared()
    };
    let out = entry
        .run(tb, &Engine::new(), opts.reduced)
        .unwrap_or_else(|e| panic!("{} failed: {e}", entry.id));
    opts.finish(&out.rendered, &out.value);
}
