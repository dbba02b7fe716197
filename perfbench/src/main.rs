//! The `perfbench` command; everything lives in the library.

fn main() -> std::process::ExitCode {
    perfbench::run_cli()
}
