//! The `tmcheck` binary — see the library crate documentation for the
//! command reference.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match tm_cli::parse_args(&args) {
        Ok(cmd) => {
            let code = tm_cli::run(&cmd, &mut std::io::stdout().lock(), &mut std::io::stderr());
            ExitCode::from(code as u8)
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", tm_cli::USAGE);
            ExitCode::from(2)
        }
    }
}
