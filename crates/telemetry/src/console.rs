//! The workspace's one output endpoint. Every binary — `repro`,
//! `autobal-monitor`, `autobal-trace` and `autobal-cli` — writes its
//! user-facing text through these functions or the [`outln!`] and
//! [`errln!`] macros over them, so all four end the same way when a
//! reader closes stdout early (`| head`): exit status 141, the status
//! a shell reports for a death by SIGPIPE, instead of a panic. Any
//! other stdout write error ends the program with status 2 and a
//! message on stderr.
//!
//! Library code never prints (lint rule O); only binaries call this.
//!
//! [`outln!`]: crate::outln
//! [`errln!`]: crate::errln

use std::io::{ErrorKind, Write};

/// Exit status when stdout closes before all output is written.
const BROKEN_PIPE_EXIT: i32 = 141;

/// Writes `text` to stdout as is.
pub fn out(text: &str) {
    if let Err(e) = std::io::stdout().write_all(text.as_bytes()) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(BROKEN_PIPE_EXIT);
        }
        errln(&format!("error: cannot write output: {e}"));
        std::process::exit(2);
    }
}

/// Writes `line` and a newline to stdout.
pub fn outln(line: &str) {
    out(&format!("{line}\n"));
}

/// Writes `line` and a newline to stderr.
pub fn errln(line: &str) {
    // autobal-lint: allow(output-discipline, "the workspace's one audited output endpoint")
    eprintln!("{line}");
}

/// [`console::outln`](outln) over format arguments.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::console::outln(&::std::format!($($arg)*))
    };
}

/// [`console::errln`](errln) over format arguments.
#[macro_export]
macro_rules! errln {
    ($($arg:tt)*) => {
        $crate::console::errln(&::std::format!($($arg)*))
    };
}
