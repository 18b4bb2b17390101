//! `SIGTERM`/`SIGINT` handling without external crates.
//!
//! std exposes no signal API, but it already links libc on every
//! platform this workspace targets, so a two-line FFI declaration of
//! `signal(2)` is all that is needed. The handler does the only thing
//! that is async-signal-safe here: it stores a flag into a static
//! atomic. Only this module reads that flag: [`forward_to`], its one
//! entry point, bridges it to a server's stop handle, so servers
//! embedded in one process (tests, the benchmark) stop only on their
//! own handles.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the `SIGTERM`/`SIGINT` handlers. Idempotent.
fn install() {
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Whether a shutdown signal has arrived.
fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Installs the handlers and forwards the first signal to `stop`: a
/// watcher thread checks the flag every 20 ms and stores `true` into
/// `stop` once it is set.
///
/// # Errors
///
/// Returns the I/O error of a failed thread spawn.
pub fn forward_to(stop: Arc<AtomicBool>) -> io::Result<()> {
    install();
    std::thread::Builder::new()
        .name("signal-forward".to_string())
        .spawn(move || {
            while !shutdown_requested() {
                std::thread::sleep(Duration::from_millis(20));
            }
            stop.store(true, Ordering::SeqCst);
        })?;
    Ok(())
}
