//! Command output on stdout.
//!
//! Every result a command prints goes through [`write`] (via the `out!`
//! and `outln!` macros). A reader that stops early
//! (`aaltune client events j1 | head -3`) closes the pipe; the next write
//! then fails, the command stops there, and `main` exits with status 0
//! and says nothing, where `println!` would panic.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a write found stdout's reader gone.
static CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `args` to stdout and flushes it.
///
/// # Errors
///
/// The write's failure; when the reader has closed the pipe, [`closed`]
/// is true from then on.
pub fn write(args: std::fmt::Arguments<'_>) -> Result<(), String> {
    // Unit tests keep the harness's output capture.
    if cfg!(test) {
        print!("{args}");
        return Ok(());
    }
    let mut stdout = std::io::stdout().lock();
    stdout.write_fmt(args).and_then(|()| stdout.flush()).map_err(|e| {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            CLOSED.store(true, Ordering::Relaxed);
        }
        format!("cannot write to stdout: {e}")
    })
}

/// True once stdout's reader has gone: the command's output ended early
/// by the reader's choice, which is not a failure.
pub fn closed() -> bool {
    CLOSED.load(Ordering::Relaxed)
}

/// `print!` through [`write`]; evaluates to its `Result`.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!($($arg)*))
    };
}

/// `println!` through [`write`]; evaluates to its `Result`.
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}
