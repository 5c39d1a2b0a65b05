//! Argument parsing for the CLI.

use std::collections::BTreeMap;

/// Flags that are switches (present or absent) rather than `--key value`
/// pairs.
const BOOL_FLAGS: &[&str] =
    &["quiet", "json", "fail-on-regress", "once", "check", "no-capture-model", "repair", "wait"];

/// Parsed command line: a positional list plus `--key value` flags.
#[derive(Debug, Default)]
pub struct Cli {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Cli {
    /// Splits `args` into positionals and flags.
    ///
    /// # Errors
    ///
    /// Returns an error string if a flag is missing its value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut cli = Cli::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if BOOL_FLAGS.contains(&name) {
                    cli.flags.insert(name.to_string(), "true".to_string());
                    continue;
                }
                let value = it.next().ok_or_else(|| format!("missing value for --{name}"))?;
                cli.flags.insert(name.to_string(), value.clone());
            } else {
                cli.positional.push(a.clone());
            }
        }
        Ok(cli)
    }

    /// True if the switch `name` (one of [`BOOL_FLAGS`]) was given.
    #[must_use]
    pub fn flag_present(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// Typed flag lookup with default.
    ///
    /// # Errors
    ///
    /// Returns an error string if the value fails to parse.
    pub fn flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value for --{name}: `{v}`")),
        }
    }

    /// String flag lookup.
    #[must_use]
    pub fn flag_str(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parse_mixes_positionals_and_flags() {
        let cli = Cli::parse(&sv(&["tune", "mobilenet_v1", "--n-trial", "64"])).unwrap();
        assert_eq!(cli.positional, vec!["tune", "mobilenet_v1"]);
        assert_eq!(cli.flag::<usize>("n-trial", 0).unwrap(), 64);
        assert_eq!(cli.flag::<usize>("seed", 5).unwrap(), 5);
    }

    #[test]
    fn missing_flag_value_is_an_error() {
        assert!(Cli::parse(&sv(&["tune", "--seed"])).is_err());
    }

    #[test]
    fn bool_flags_take_no_value() {
        let cli = Cli::parse(&sv(&["tune", "mobilenet", "--quiet", "--seed", "3"])).unwrap();
        assert!(cli.flag_present("quiet"));
        assert!(!cli.flag_present("json"));
        assert_eq!(cli.flag::<u64>("seed", 0).unwrap(), 3);
        assert_eq!(cli.positional, vec!["tune", "mobilenet"]);
    }

    #[test]
    fn bad_flag_value_is_an_error() {
        let cli = Cli::parse(&sv(&["--seed", "abc"])).unwrap();
        assert!(cli.flag::<u64>("seed", 0).is_err());
    }
}
