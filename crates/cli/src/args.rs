//! The consume-and-finish argument bag every subcommand parses from.
//!
//! [`Bag::lex`] splits what follows the subcommand name into leading
//! positionals and `--flag [value]` pairs without knowing any flag: a
//! flag's value is the next token unless that token opens another flag
//! (so a value cannot itself start with `--`). A parser then *removes*
//! what it reads — [`Bag::req`], [`Bag::opt`], [`Bag::switch`],
//! [`Bag::positional`] — and [`Bag::finish`] rejects whatever is left, so
//! the set of accepted flags is exactly the set the argument struct was
//! built from and there is no allow-list to keep in step with it.

use std::str::FromStr;

/// A parse result; the error is the one-line reason of a usage error.
pub type Parsed<T> = Result<T, String>;

pub struct Bag {
    cmd: String,
    positionals: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Bag {
    pub fn lex(cmd: &str, tokens: &[String]) -> Parsed<Bag> {
        let mut bag = Bag {
            cmd: cmd.to_string(),
            positionals: Vec::new(),
            flags: Vec::new(),
        };
        for token in tokens {
            match (token.strip_prefix("--"), bag.flags.last_mut()) {
                (Some(name), _) => bag.flags.push((name.to_string(), None)),
                (None, None) => bag.positionals.push(token.clone()),
                (None, Some((_, value @ None))) => *value = Some(token.clone()),
                (None, Some(_)) => return Err(format!("unexpected argument: {token}")),
            }
        }
        Ok(bag)
    }

    /// Removes the first occurrence of `--name`: `Some(value)` if given.
    fn take_one(&mut self, name: &str) -> Option<Option<String>> {
        let i = self.flags.iter().position(|(n, _)| n == name)?;
        Some(self.flags.remove(i).1)
    }

    /// [`Bag::take_one`] for a flag that may be given once.
    fn take(&mut self, name: &str) -> Parsed<Option<Option<String>>> {
        let taken = self.take_one(name);
        if self.has(name) {
            return Err(format!("--{name} given more than once"));
        }
        Ok(taken)
    }

    /// Whether `--name` is (still) present.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The first flag still present, if any.
    pub fn first_flag(&self) -> Option<&str> {
        self.flags.first().map(|(name, _)| name.as_str())
    }

    /// A flag that takes no value.
    pub fn switch(&mut self, name: &str) -> Parsed<bool> {
        match self.take(name)? {
            None => Ok(false),
            Some(None) => Ok(true),
            Some(Some(stray)) => Err(format!("unexpected argument: {stray}")),
        }
    }

    /// `--name VALUE` through `parse`, `None` when absent.
    pub fn opt_with<T>(
        &mut self,
        name: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Parsed<Option<T>> {
        match self.take(name)? {
            None => Ok(None),
            Some(None) => Err(format!("--{name} needs a value")),
            Some(Some(raw)) => match parse(&raw) {
                Some(value) => Ok(Some(value)),
                None => Err(format!("bad --{name} value: {raw}")),
            },
        }
    }

    /// `--name VALUE` parsed as `T`, `None` when absent.
    pub fn opt<T: FromStr>(&mut self, name: &str) -> Parsed<Option<T>> {
        self.opt_with(name, |raw| raw.parse().ok())
    }

    /// A required [`Bag::opt_with`].
    pub fn req_with<T>(&mut self, name: &str, parse: impl Fn(&str) -> Option<T>) -> Parsed<T> {
        self.opt_with(name, parse)?
            .ok_or_else(|| format!("missing --{name}"))
    }

    /// A required [`Bag::opt`].
    pub fn req<T: FromStr>(&mut self, name: &str) -> Parsed<T> {
        self.req_with(name, |raw| raw.parse().ok())
    }

    /// The next leading positional, if any.
    pub fn positional(&mut self) -> Option<String> {
        (!self.positionals.is_empty()).then(|| self.positionals.remove(0))
    }

    /// Rejects whatever no parser consumed.
    pub fn finish(self) -> Parsed<()> {
        if let Some(stray) = self.positionals.first() {
            return Err(format!("unexpected argument: {stray}"));
        }
        match self.flags.first() {
            Some((name, _)) => Err(format!("unknown flag --{name} for '{}'", self.cmd)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(line: &str) -> Parsed<Bag> {
        let tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
        Bag::lex("cmd", &tokens)
    }

    #[test]
    fn reads_remove_and_finish_rejects_the_rest() {
        let mut b = bag("pos --n 5 --flag --name x --extra 1").unwrap();
        assert_eq!(b.positional().as_deref(), Some("pos"));
        assert_eq!(b.positional(), None);
        assert_eq!(b.req::<usize>("n"), Ok(5));
        assert_eq!(b.switch("flag"), Ok(true));
        assert_eq!(b.switch("absent"), Ok(false));
        assert_eq!(b.opt::<String>("name"), Ok(Some("x".to_string())));
        assert_eq!(b.opt::<String>("name"), Ok(None), "consumed");
        assert_eq!(
            b.finish(),
            Err("unknown flag --extra for 'cmd'".to_string())
        );
        assert_eq!(
            bag("--n 5").unwrap().finish().unwrap_err(),
            "unknown flag --n for 'cmd'"
        );
        assert_eq!(bag("").unwrap().finish(), Ok(()));
    }

    #[test]
    fn every_misuse_has_its_one_line_reason() {
        let err = |line: &str, read: fn(&mut Bag) -> Parsed<()>| {
            let mut b = bag(line).unwrap();
            read(&mut b).unwrap_err()
        };
        assert_eq!(
            err("--n abc", |b| b.req::<usize>("n").map(drop)),
            "bad --n value: abc"
        );
        assert_eq!(
            err("--n", |b| b.req::<usize>("n").map(drop)),
            "--n needs a value"
        );
        assert_eq!(err("", |b| b.req::<usize>("n").map(drop)), "missing --n");
        assert_eq!(
            err("--n 1 --n 2", |b| b.opt::<usize>("n").map(drop)),
            "--n given more than once"
        );
        assert_eq!(
            err("--f --f", |b| b.switch("f").map(drop)),
            "--f given more than once"
        );
        assert_eq!(
            err("--f stray", |b| b.switch("f").map(drop)),
            "unexpected argument: stray"
        );
        assert_eq!(
            err("--k no", |b| b.req_with("k", |_| None::<u8>).map(drop)),
            "bad --k value: no"
        );
        assert_eq!(
            bag("--n 1 stray").err().unwrap(),
            "unexpected argument: stray"
        );
        assert_eq!(
            bag("a b").unwrap().finish().unwrap_err(),
            "unexpected argument: a"
        );
    }
}
