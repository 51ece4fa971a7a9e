//! `albireo` — the command-line front end of the Albireo silicon-photonic
//! CNN accelerator simulator.
//!
//! ```text
//! albireo evaluate vgg16 --estimate conservative --ng 9
//! albireo sweep --param ng --values 3,9,27
//! albireo serve --requests 500 --trace-out trace.json
//! albireo experiment table4
//! ```

mod args;
mod commands;

use commands::CliError;

/// Every diagnostic leaves through this one formatter: a fixed header
/// carrying the obs schema version and the run's seed (`seed=none` when
/// the command has no seed or parsing failed before one was read),
/// followed by the message itself.
fn diagnostic(seed: Option<&str>, message: &dyn std::fmt::Display) -> String {
    format!(
        "albireo[{} seed={}] error: {message}",
        albireo_obs::SCHEMA,
        seed.unwrap_or("none"),
    )
}

/// Prints `error` through [`diagnostic`] and exits with its code.
fn fail(seed: Option<&str>, error: CliError) -> ! {
    eprintln!("{}", diagnostic(seed, &error));
    if error.is_usage() {
        eprintln!("run `albireo help` for usage");
    }
    std::process::exit(error.exit_code());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, args) = commands::parse(&argv).unwrap_or_else(|e| fail(None, e));
    match commands::run(command, &args) {
        Ok(output) => print!("{output}"),
        Err(e) => fail(args.get("seed"), e),
    }
}
