//! The clause grammar shared by chip and fleet fault specs.
//!
//! A spec is a `;`-separated list of clauses, each of the form
//! `kind[@target][:key=value,...]`. This module owns everything the two
//! grammars have in common — the clause split, the head and the key list,
//! the `from`/`to` window, the `+`-separated target list and the number
//! errors — and leaves each grammar only its kinds, keys, defaults and
//! range checks. Every key a clause carries must be read exactly once:
//! a key its kind does not read, or a repeated key, is an error.

use std::str::FromStr;

use gpm_types::{GpmError, Result};

use crate::plan::IntervalWindow;

fn bad(msg: String) -> GpmError {
    GpmError::FaultSpec(msg)
}

/// One clause of a spec, with its window already parsed and the rest of
/// its keys waiting to be read by the kind's grammar.
pub(crate) struct Clause<'a> {
    raw: &'a str,
    /// The clause's kind name.
    pub(crate) kind: &'a str,
    target: Option<&'a str>,
    /// The half-open `from`/`to` window (default: always).
    pub(crate) window: IntervalWindow,
    keys: Vec<(&'a str, &'a str)>,
}

impl<'a> Clause<'a> {
    fn parse(raw: &'a str) -> Result<Self> {
        let (head, args) = match raw.split_once(':') {
            Some((h, a)) => (h.trim(), a),
            None => (raw, ""),
        };
        let (kind, target) = match head.split_once('@') {
            Some((k, t)) => (k.trim(), Some(t.trim())),
            None => (head, None),
        };
        let mut keys: Vec<(&str, &str)> = Vec::new();
        for kv in args.split(',').map(str::trim).filter(|kv| !kv.is_empty()) {
            let (key, value) = kv
                .split_once('=')
                .ok_or_else(|| bad(format!("`{kv}` is not key=value")))?;
            let key = key.trim();
            if keys.iter().any(|&(k, _)| k == key) {
                return Err(bad(format!("repeated key `{key}` in `{raw}`")));
            }
            keys.push((key, value.trim()));
        }
        let mut clause = Self {
            raw,
            kind,
            target,
            window: IntervalWindow::ALWAYS,
            keys,
        };
        if let Some(from) = clause.int("from")? {
            clause.window.from = from;
        }
        clause.window.to = clause.int("to")?;
        if let Some(to) = clause.window.to {
            if to <= clause.window.from {
                return Err(bad(format!(
                    "empty window [{}, {to}) in `{raw}`",
                    clause.window.from
                )));
            }
        }
        Ok(clause)
    }

    /// The `@target` ids: `None` for `all` (the default), otherwise the
    /// `+`-separated list; `what` names one id in errors.
    pub(crate) fn targets<T: FromStr>(&self, what: &str) -> Result<Option<Vec<T>>> {
        match self.target {
            None => Ok(None),
            Some(t) if t.eq_ignore_ascii_case("all") => Ok(None),
            Some(t) => t
                .split('+')
                .map(|p| {
                    p.trim()
                        .parse()
                        .map_err(|_| bad(format!("bad {what} `{p}`")))
                })
                .collect::<Result<_>>()
                .map(Some),
        }
    }

    /// Reads key `key`'s raw value, if the clause carries it.
    pub(crate) fn take(&mut self, key: &str) -> Option<&'a str> {
        let at = self.keys.iter().position(|&(k, _)| k == key)?;
        Some(self.keys.remove(at).1)
    }

    /// Reads key `key` as an integer.
    pub(crate) fn int<T: FromStr>(&mut self, key: &str) -> Result<Option<T>> {
        self.take(key)
            .map(|s| {
                s.parse()
                    .map_err(|_| bad(format!("bad integer for {key}: `{s}`")))
            })
            .transpose()
    }

    /// Reads key `key` as a float.
    pub(crate) fn float(&mut self, key: &str) -> Result<Option<f64>> {
        self.take(key)
            .map(|s| {
                s.parse()
                    .map_err(|_| bad(format!("bad number for {key}: `{s}`")))
            })
            .transpose()
    }

    /// A required key's value, or the error naming what the kind needs.
    pub(crate) fn needs<T>(&self, value: Option<T>, key: &str) -> Result<T> {
        value.ok_or_else(|| bad(format!("{} needs {key}= in `{}`", self.kind, self.raw)))
    }

    /// Errors if any key was left unread by the kind's grammar.
    fn finish(&self) -> Result<()> {
        match self.keys.first() {
            None => Ok(()),
            Some((key, _)) => Err(bad(format!(
                "unknown key `{key}` for {} in `{}`",
                self.kind, self.raw
            ))),
        }
    }
}

/// Parses every clause of `spec` with `clause`, which reads the kind's
/// keys and builds its item. `what` names the spec in the no-clauses
/// error.
pub(crate) fn parse_clauses<T>(
    spec: &str,
    what: &str,
    mut clause: impl FnMut(&mut Clause<'_>) -> Result<T>,
) -> Result<Vec<T>> {
    let mut items = Vec::new();
    for raw in spec.split(';').map(str::trim).filter(|raw| !raw.is_empty()) {
        let mut parsed = Clause::parse(raw)?;
        items.push(clause(&mut parsed)?);
        parsed.finish()?;
    }
    if items.is_empty() {
        return Err(bad(format!("{what} contains no clauses")));
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use gpm_types::GpmError;

    use crate::{FaultPlan, FleetFaultPlan};

    /// Syntax errors owned by the shared core that the per-grammar tables
    /// do not already cover, fed to both grammars with a kind each accepts
    /// bare (`{}` stands for the kind).
    const MALFORMED: &[&str] = &[
        " ; ",               // no clauses
        "{}:from=x",         // bad integer
        "{}:to=-1",          // bad integer
        "{}:from=5,to=2",    // empty window
        "{}:from=1,from=9",  // repeated key
        "{}:to=4, to=4",     // repeated key
        "{}:from=1;{}:to=0", // second clause bad
    ];

    #[test]
    fn both_grammars_reject_shared_syntax_errors() {
        for template in MALFORMED {
            let chip = template.replace("{}", "dropout");
            let fleet = template.replace("{}", "skew");
            for (spec, result) in [
                (&chip, FaultPlan::parse(&chip).map(drop)),
                (&fleet, FleetFaultPlan::parse(&fleet).map(drop)),
            ] {
                assert!(
                    matches!(result, Err(GpmError::FaultSpec(_))),
                    "`{spec}` should be FaultSpec, got {result:?}"
                );
            }
        }
    }

    #[test]
    fn repeated_and_unread_keys_are_named() {
        let err = FaultPlan::parse("noise:std=0.1,lag=2").unwrap_err();
        assert!(err.to_string().contains("`lag`"), "{err}");
        let err = FleetFaultPlan::parse("flap:period=2,from=1,from=9").unwrap_err();
        assert!(err.to_string().contains("repeated key `from`"), "{err}");
    }
}
