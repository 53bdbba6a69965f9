//! Minimal dependency-free argument parsing for the `intellinoc` binary.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parsed command line: a subcommand, `--key value` options, and `--flag`
/// switches. Every lookup records the name it asked for, so
/// [`Args::unconsulted`] can name what a command never read.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: Option<String>,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
    /// Option and flag names in command-line order.
    names: Vec<String>,
    /// Names some lookup asked for.
    consulted: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parses an argument list (excluding the program name).
    ///
    /// Tokens starting with `--` are options when followed by a non-`--`
    /// token, flags otherwise.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Args {
        let tokens: Vec<String> = args.into_iter().collect();
        let mut out = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if let Some(name) = t.strip_prefix("--") {
                if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                    out.options.insert(name.to_owned(), tokens[i + 1].clone());
                    i += 2;
                } else {
                    out.flags.push(name.to_owned());
                    i += 1;
                }
                out.names.push(name.to_owned());
            } else {
                if out.command.is_none() {
                    out.command = Some(t.clone());
                } else {
                    out.positional.push(t.clone());
                }
                i += 1;
            }
        }
        out
    }

    /// Parses from the real process arguments.
    pub fn from_env() -> Args {
        Self::parse(std::env::args().skip(1))
    }

    fn consult(&self, name: &str) {
        self.consulted.borrow_mut().insert(name.to_owned());
    }

    /// String option value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.consult(name);
        self.options.get(name).map(String::as_str)
    }

    /// Typed option value with a default.
    ///
    /// # Errors
    ///
    /// Returns an error string naming the option when parsing fails.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value for --{name}: {v}")),
        }
    }

    /// Whether a bare `--flag` was passed.
    pub fn has_flag(&self, name: &str) -> bool {
        self.consult(name);
        self.flags.iter().any(|f| f == name)
    }

    /// The options and flags on the command line that no lookup has asked
    /// for (a typo, or a flag the command does not take), in command-line
    /// order.
    pub fn unconsulted(&self) -> Vec<&str> {
        let consulted = self.consulted.borrow();
        let mut seen = BTreeSet::new();
        self.names
            .iter()
            .filter(|n| !consulted.contains(*n) && seen.insert(n.as_str()))
            .map(String::as_str)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn command_options_flags() {
        let a = parse("run --design intellinoc --ppn 100 --json");
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.get("design"), Some("intellinoc"));
        assert_eq!(a.get_or("ppn", 0u64).unwrap(), 100);
        assert!(a.has_flag("json"));
        assert!(!a.has_flag("quiet"));
    }

    #[test]
    fn positional_arguments() {
        let a = parse("trace capture out.jsonl");
        assert_eq!(a.command.as_deref(), Some("trace"));
        assert_eq!(a.positional, ["capture", "out.jsonl"]);
    }

    #[test]
    fn defaults_and_errors() {
        let a = parse("run --seed twelve");
        assert_eq!(a.get_or("ppn", 42u64).unwrap(), 42);
        assert!(a.get_or("seed", 0u64).is_err());
    }

    #[test]
    fn unconsulted_names_what_no_lookup_read() {
        let a = parse("run --design eb --max-cycle 10 --json --trace --design cp");
        assert_eq!(a.unconsulted(), ["design", "max-cycle", "json", "trace"]);
        let _ = (a.get("design"), a.has_flag("json"), a.get_or("seed", 1u64));
        assert_eq!(a.unconsulted(), ["max-cycle", "trace"]);
    }

    #[test]
    fn empty_input() {
        let a = parse("");
        assert!(a.command.is_none());
        assert!(a.positional.is_empty());
    }
}
