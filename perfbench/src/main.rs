//! `autobal-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a summary, then the result line last. Exits 0 when every
//! output check passed, 1 when one failed, 2 on a bad command line.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match autobal_perfbench::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", autobal_perfbench::USAGE);
            return ExitCode::from(2);
        }
    };
    let out = autobal_perfbench::execute(&args);
    for line in &out.lines {
        println!("{line}");
    }
    println!("{}", out.result);
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
