//! The `lab` command line: every runnable surface of the reproduction
//! behind one binary.
//!
//! `lab <command> [args]` dispatches to one module per command (their
//! module docs are the per-command manuals). What every command shares
//! is stated here once: the dispatch table, and one flag parser whose
//! grammar *is* the command's usage line — `[--name]` declares a switch,
//! `[--name PLACEHOLDER]` a flag that takes a value, `<name>` or `...` a
//! positional — so the usage text and the accepted flags cannot drift
//! apart. Any command-line error (unknown command or flag, a flag
//! missing its value, a malformed value) prints the usage to stderr and
//! exits 2; a command that runs but whose gate fails exits 1.

mod bench;
mod capacity;
mod chaos;
mod compare;
mod explain;
mod forensics;
mod lens;
mod quorum;
mod report;
mod smoke;
mod tables;

use std::fmt::Display;
use std::str::FromStr;

/// A subcommand: name, usage line (the flag grammar), entry point.
type Command = (&'static str, &'static str, fn(&Flags));

const COMMANDS: &[Command] = &[
    ("tables", tables::USAGE, tables::run),
    ("bench", bench::USAGE, bench::run),
    ("compare", compare::USAGE, compare::run),
    ("report", report::USAGE, report::run),
    ("chaos", chaos::USAGE, chaos::run),
    ("quorum", quorum::USAGE, quorum::run),
    ("explain", explain::USAGE, explain::run),
    ("capacity", capacity::USAGE, capacity::run),
    ("lens", lens::USAGE, lens::run),
    ("forensics", forensics::USAGE, forensics::run),
    ("smoke", smoke::USAGE, smoke::run),
];

/// Runs `lab` on `argv` (the arguments after the program name). Returns
/// when the command ran to completion (exit 0); every other outcome
/// exits the process with its code.
pub fn main(argv: &[String]) {
    let command = argv
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.0 == name));
    let Some(&(name, usage, run)) = command else {
        match argv.first() {
            Some(name) => eprintln!("lab: unknown command {name:?}"),
            None => eprintln!("lab: no command given"),
        }
        eprintln!("usage: lab <command> [args]");
        for (name, usage, _) in COMMANDS {
            eprintln!("  lab {name} {usage}");
        }
        std::process::exit(2);
    };
    match Flags::parse(name, usage, &argv[1..]) {
        Ok(flags) => run(&flags),
        Err(problem) => Flags::bad_command_line(name, usage, &problem),
    }
}

/// Prints `msg` to stderr and exits with `code`: how a command reports a
/// failed gate (1) or an unusable input (2).
fn fail(code: i32, msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code);
}

/// Writes an artifact file, creating its directory first; exits 2 when
/// the path is unwritable.
fn write_file(path: impl AsRef<std::path::Path>, contents: impl AsRef<[u8]>) {
    let path = path.as_ref();
    let dir = path.parent().unwrap_or(path);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, contents)) {
        fail(2, format!("cannot write {}: {e}", path.display()));
    }
}

/// One command's parsed command line.
#[derive(Debug, Default)]
struct Flags {
    command: &'static str,
    usage: &'static str,
    /// Flags in the order given; `None` for a switch.
    given: Vec<(String, Option<String>)>,
    /// Arguments that are not flags, in order.
    positional: Vec<String>,
}

/// The flags a usage line declares, each with whether it takes a value:
/// a `--name` followed by a placeholder word does, a bare one does not.
fn declared(usage: &str) -> impl Iterator<Item = (&str, bool)> {
    let words: Vec<&str> = usage.split_whitespace().collect();
    (0..words.len()).filter_map(move |i| {
        let word = words[i].trim_start_matches('[');
        let name = word.trim_end_matches(']');
        let valued = name == word
            && words
                .get(i + 1)
                .is_some_and(|next| !next.starts_with(['-', '[', '|', '<']));
        name.starts_with("--").then_some((name, valued))
    })
}

impl Flags {
    /// Parses `args` left to right against the grammar `usage` declares.
    fn parse(command: &'static str, usage: &'static str, args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            command,
            usage,
            ..Flags::default()
        };
        let takes_positionals = usage.contains('<') || usage.contains("...");
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match declared(usage).find(|(name, _)| name == arg) {
                Some((_, false)) => flags.given.push((arg.clone(), None)),
                Some((_, true)) => {
                    let value = it.next().ok_or(format!("{arg} needs a value"))?;
                    flags.given.push((arg.clone(), Some(value.clone())));
                }
                None if takes_positionals && !arg.starts_with("--") => {
                    flags.positional.push(arg.clone());
                }
                None => return Err(format!("unknown argument {arg:?}")),
            }
        }
        Ok(flags)
    }

    fn bad_command_line(command: &str, usage: &str, problem: &str) -> ! {
        fail(
            2,
            format!("lab {command}: {problem}\nusage: lab {command} {usage}"),
        )
    }

    /// Rejects the command line after parsing (a value out of range, a
    /// wrong positional count): usage to stderr, exit 2.
    fn reject(&self, problem: &str) -> ! {
        Flags::bad_command_line(self.command, self.usage, problem)
    }

    /// Whether the switch `name` was given.
    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// Every value given for flag `name`, in order.
    fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        let named = self.given.iter().filter(move |(n, _)| n == name);
        named.filter_map(|(_, value)| value.as_deref())
    }

    /// The value of flag `name`; the last occurrence wins.
    fn value(&self, name: &str) -> Option<&str> {
        let (_, value) = self.given.iter().rev().find(|(n, _)| n == name)?;
        value.as_deref()
    }

    /// The value of flag `name` parsed as a `T`; a malformed value is a
    /// usage error.
    fn parsed<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| self.reject(&format!("bad {name} value {v:?}")))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_usage_line_is_the_grammar() {
        let got: Vec<_> = declared(forensics::USAGE).collect();
        assert_eq!(
            got,
            [
                ("--smoke", false),
                ("--inject", true),
                ("--json", false),
                ("--ndjson", false)
            ]
        );
        let got: Vec<_> = declared(lens::USAGE).filter(|f| f.1).collect();
        assert_eq!(
            got,
            [
                ("--medium", true),
                ("--topology", true),
                ("--spec", true),
                ("--max-users", true)
            ]
        );
        assert_eq!(declared(tables::USAGE).count(), 0);
    }

    #[test]
    fn every_command_declares_a_parseable_grammar() {
        for &(command, usage, _) in COMMANDS {
            // Every declared flag is accepted in its declared shape.
            for (name, valued) in declared(usage) {
                let mut line = vec![name];
                if valued {
                    line.push("v");
                }
                let flags = Flags::parse(command, usage, &args(&line))
                    .unwrap_or_else(|e| panic!("{command} {name}: {e}"));
                assert!(flags.has(name));
                assert_eq!(flags.value(name), valued.then_some("v"));
            }
            assert!(Flags::parse(command, usage, &args(&["--no-such-flag"])).is_err());
        }
    }

    #[test]
    fn values_positionals_and_errors() {
        let usage = "[--smoke] [--seed N] <prev> <new>";
        let f = Flags::parse("t", usage, &args(&["a", "--seed", "1", "--seed", "2", "b"])).unwrap();
        assert_eq!(f.positional, ["a", "b"]);
        assert_eq!(f.parsed::<u64>("--seed"), Some(2), "last occurrence wins");
        assert!(!f.has("--smoke"));
        // A valued flag consumes the next word whatever it looks like.
        let f = Flags::parse("t", usage, &args(&["--seed", "--smoke"])).unwrap();
        assert_eq!(f.value("--seed"), Some("--smoke"));
        assert!(!f.has("--smoke"));
        assert_eq!(
            Flags::parse("t", usage, &args(&["--seed"])).unwrap_err(),
            "--seed needs a value"
        );
        // Without positionals in the grammar a stray word is an error.
        assert!(Flags::parse("t", "[--smoke]", &args(&["stray"])).is_err());
    }
}
