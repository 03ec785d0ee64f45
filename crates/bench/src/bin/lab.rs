//! `lab` — the reproduction's one command line. See
//! [`publishing_bench::cli`] for the commands.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    publishing_bench::cli::main(&argv);
}
