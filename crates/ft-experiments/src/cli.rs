//! The command-line reader of `paper-figures`, `ft-serve` and the
//! examples.
//!
//! A program declares its flags once, as a [`Flags`]. An argument that
//! starts with `--` is a flag: a switch stands alone, a value flag takes
//! the next argument. Any other argument is positional. Reading fails,
//! with a message that names the flag or argument, on an unknown flag, a
//! value flag with no value (last on the line, or followed by another
//! `--flag`), a positional argument past the declared count, and a
//! value that does not parse ([`Args::parse`]).

use std::str::FromStr;

/// The flags one program (or one subcommand) accepts: its switches,
/// which stand alone (`--quick`), its value flags, which take the next
/// argument and may be repeated (`--graphs N`, [`Args::parse_all`]),
/// and the most positional arguments it takes.
#[derive(Clone, Copy, Debug)]
pub struct Flags(
    pub &'static [&'static str],
    pub &'static [&'static str],
    pub usize,
);

/// A command line read against its [`Flags`].
#[derive(Clone, Debug)]
pub struct Args {
    flags: Flags,
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

impl Flags {
    /// Reads `args` (the program's arguments, without its name).
    pub fn parse<S: Into<String>>(self, args: impl IntoIterator<Item = S>) -> Result<Args, String> {
        let mut out = Args {
            flags: self,
            switches: Vec::new(),
            values: Vec::new(),
            positionals: Vec::new(),
        };
        let Flags(switches, values, positionals) = self;
        let mut args = args.into_iter().map(Into::into);
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                if out.positionals.len() == positionals {
                    return Err(format!("unexpected argument '{arg}'"));
                }
                out.positionals.push(arg);
            } else if let Some(&switch) = switches.iter().find(|&&s| s == arg) {
                out.switches.push(switch);
            } else if let Some(&flag) = values.iter().find(|&&f| f == arg) {
                match args.next() {
                    Some(value) if !value.starts_with("--") => out.values.push((flag, value)),
                    _ => return Err(format!("{flag} needs a value")),
                }
            } else {
                return Err(format!("unknown flag '{arg}'"));
            }
        }
        Ok(out)
    }
}

impl Args {
    /// True when switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        debug_assert!(self.flags.0.contains(&name), "undeclared {name}");
        self.switches.contains(&name)
    }

    /// The first value given to flag `name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.all(name).next()
    }

    /// Positional argument `i` (from 0).
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Every value given to flag `name`, each read by `read`; a value it
    /// refuses is an error naming the flag, the value and what was
    /// `expected`.
    pub fn parse_all<T>(
        &self,
        name: &str,
        expected: &str,
        read: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        let bad = |v| format!("bad {name} value '{v}' — expected {expected}");
        self.all(name)
            .map(|v| read(v).ok_or_else(|| bad(v)))
            .collect()
    }

    /// The first value of flag `name`, read by `read`; every value given
    /// must read (see [`Args::parse_all`]).
    pub fn parse<T>(
        &self,
        name: &str,
        expected: &str,
        read: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        Ok(self.parse_all(name, expected, read)?.into_iter().next())
    }

    /// [`Args::parse`] through `T`'s [`FromStr`].
    pub fn number<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.parse(name, std::any::type_name::<T>(), |v| v.parse().ok())
    }

    fn all(&self, name: &str) -> impl Iterator<Item = &str> {
        let declared = self.flags.1.iter().find(|&&f| f == name).copied();
        debug_assert!(declared.is_some(), "undeclared {name}");
        let given = self
            .values
            .iter()
            .filter(move |(f, _)| Some(*f) == declared);
        given.map(|(_, v)| v.as_str())
    }
}

/// The value of `read`, or, when the command line was misread, the
/// error on stderr as `program: error` and exit code 2.
pub fn or_exit<T>(program: &str, read: Result<T, String>) -> T {
    read.unwrap_or_else(|e| {
        eprintln!("{program}: {e}");
        std::process::exit(2)
    })
}

/// Reads a finite number above zero, or with `allow_zero` at least zero.
pub fn positive(allow_zero: bool) -> impl Fn(&str) -> Option<f64> {
    move |v| {
        let x: f64 = v.parse().ok()?;
        (x.is_finite() && (x > 0.0 || (allow_zero && x == 0.0))).then_some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: Flags = Flags(&["--quick"], &["--graphs", "--burst"], 1);

    fn read(line: &str) -> Result<Args, String> {
        FLAGS.parse(line.split_whitespace())
    }

    #[test]
    fn reads_switches_values_and_positionals_in_any_order() {
        let args = read("--graphs 3 fig1 --quick").unwrap();
        assert!(args.has("--quick"));
        assert_eq!(args.number::<usize>("--graphs"), Ok(Some(3)));
        assert_eq!(
            (args.positional(0), args.positional(1)),
            (Some("fig1"), None)
        );
        let bare = read("").unwrap();
        assert!(!bare.has("--quick") && bare.positional(0).is_none());
        assert_eq!(bare.number::<usize>("--graphs"), Ok(None));
    }

    #[test]
    fn repeatable_flags_keep_every_value_in_order() {
        let args = read("--burst 2 --quick --burst 4").unwrap();
        let bursts = args.parse_all("--burst", "an integer", |v| v.parse().ok());
        assert_eq!(bursts, Ok(vec![2usize, 4]));
        assert_eq!(args.value("--burst"), Some("2"));
    }

    #[test]
    fn rejects_each_misread_naming_the_flag_or_argument() {
        for (line, error) in [
            ("fig1 --grahps 1", "unknown flag '--grahps'"),
            ("fig1 --graphs", "--graphs needs a value"),
            ("--graphs --quick fig1", "--graphs needs a value"),
            ("fig1 fig2", "unexpected argument 'fig2'"),
        ] {
            assert_eq!(read(line).unwrap_err(), error, "{line}");
        }
        let args = read("--graphs abc --burst 2 --burst x").unwrap();
        let graphs = args.number::<usize>("--graphs").unwrap_err();
        assert_eq!(graphs, "bad --graphs value 'abc' — expected usize");
        let bursts = args.parse("--burst", "an integer", |v| v.parse::<usize>().ok());
        assert_eq!(
            bursts.unwrap_err(),
            "bad --burst value 'x' — expected an integer"
        );
    }

    #[test]
    fn positive_reads_finite_numbers_above_the_bound() {
        assert_eq!(positive(false)("0.25"), Some(0.25));
        assert_eq!(
            (positive(false)("0"), positive(true)("0")),
            (None, Some(0.0))
        );
        for bad in ["-1", "inf", "NaN", "x"] {
            assert_eq!(positive(true)(bad), None, "{bad}");
        }
    }
}
