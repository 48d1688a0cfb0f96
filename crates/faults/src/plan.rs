//! Fault plans: what goes wrong, where, and when.

use gpm_types::{GpmError, Result};
use serde::{Deserialize, Serialize};

use crate::spec::parse_clauses;

/// Default seed for the deterministic fault RNG (noise draws).
pub const DEFAULT_SEED: u64 = 0xfa_017;

/// A half-open window of explore-interval indices `[from, to)`.
///
/// `to = None` leaves the window open-ended (the fault persists for the
/// rest of the run). Interval 0 is the manager's warm-up interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalWindow {
    /// First affected interval index.
    pub from: usize,
    /// First unaffected interval index, if the fault ever clears.
    pub to: Option<usize>,
}

impl IntervalWindow {
    /// The window covering the whole run.
    pub const ALWAYS: Self = Self { from: 0, to: None };

    /// Whether `interval` falls inside the window.
    #[inline]
    #[must_use]
    pub fn contains(&self, interval: usize) -> bool {
        interval >= self.from && self.to.is_none_or(|to| interval < to)
    }
}

/// Which cores a clause perturbs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoreSet {
    /// Every core of the chip.
    All,
    /// An explicit list of zero-based core indices.
    Cores(Vec<usize>),
}

impl CoreSet {
    /// Whether `core` is in the set.
    #[must_use]
    pub fn contains(&self, core: usize) -> bool {
        match self {
            CoreSet::All => true,
            CoreSet::Cores(list) => list.contains(&core),
        }
    }
}

/// How a stuck DVFS lane mishandles mode-change requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DvfsFault {
    /// Requests are silently dropped; the core stays in its current mode.
    Ignore,
    /// Requests are applied this many intervals late (latest request wins).
    Delay(usize),
}

/// One class of injected fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Multiplicative white noise on the power reading, with the given
    /// relative standard deviation.
    SensorNoise {
        /// Relative standard deviation (e.g. 0.05 = 5%).
        std: f64,
    },
    /// A fixed multiplicative gain error on the power reading.
    SensorBias {
        /// Gain applied to the true reading (0.8 = reads 20% low).
        factor: f64,
    },
    /// The sensor reports the reading from `lag` intervals ago.
    StaleTelemetry {
        /// How many intervals behind the report runs.
        lag: usize,
    },
    /// The sensor goes dark: reads 0 W, tagged [`Dark`].
    ///
    /// [`Dark`]: crate::SensorStatus::Dark
    SensorDropout,
    /// The core's DVFS lane mishandles mode-change requests.
    StuckDvfs(DvfsFault),
    /// The budget fraction is capped at this value (cooling failure).
    BudgetShock {
        /// Cap on the scheduled budget fraction, in `(0, 1]`.
        fraction: f64,
    },
}

impl FaultKind {
    /// Short label used in reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::SensorNoise { .. } => "noise",
            FaultKind::SensorBias { .. } => "bias",
            FaultKind::StaleTelemetry { .. } => "stale",
            FaultKind::SensorDropout => "dropout",
            FaultKind::StuckDvfs(_) => "stuck",
            FaultKind::BudgetShock { .. } => "shock",
        }
    }
}

/// One fault clause: a kind, the cores it hits, and when it is active.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultClause {
    /// The fault class.
    pub kind: FaultKind,
    /// Affected cores (ignored by [`FaultKind::BudgetShock`], which is
    /// chip-wide).
    pub cores: CoreSet,
    /// Active interval window.
    pub window: IntervalWindow,
}

/// A complete, deterministic fault schedule for one run.
///
/// Parse one from the CLI `--faults` spec with [`FaultPlan::parse`], or
/// build it programmatically. An empty plan is a no-op seam.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The fault clauses, applied in order.
    pub clauses: Vec<FaultClause>,
    /// Seed for the noise RNG.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: injects nothing.
    #[must_use]
    pub fn none() -> Self {
        Self {
            clauses: Vec::new(),
            seed: DEFAULT_SEED,
        }
    }

    /// Whether the plan injects anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Builder: appends a clause.
    #[must_use]
    pub fn with(mut self, kind: FaultKind, cores: CoreSet, window: IntervalWindow) -> Self {
        self.clauses.push(FaultClause {
            kind,
            cores,
            window,
        });
        self
    }

    /// Builder: sets the noise seed.
    #[must_use]
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Parses a `--faults` spec: semicolon-separated clauses of the form
    /// `kind[@cores][:key=value,...]`.
    ///
    /// * `kind` — `noise`, `bias`, `stale`, `dropout`, `stuck`, `shock`
    /// * `cores` — `all` (default) or `+`-separated indices (`0+2`)
    /// * keys — `from=<interval>` / `to=<interval>` (half-open window,
    ///   default always), `std=` (noise), `factor=` (bias), `lag=`
    ///   (stale, default 2), `delay=` (stuck; omitted = ignore requests
    ///   entirely), `frac=` (shock)
    ///
    /// # Examples
    ///
    /// ```
    /// use gpm_faults::FaultPlan;
    ///
    /// let plan =
    ///     FaultPlan::parse("dropout@1:from=10,to=20;stuck@0:from=5;shock:frac=0.6,from=30")
    ///         .unwrap();
    /// assert_eq!(plan.clauses.len(), 3);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::FaultSpec`] on malformed input.
    pub fn parse(spec: &str) -> Result<Self> {
        let bad = |msg: String| GpmError::FaultSpec(msg);
        let clauses = parse_clauses(spec, "fault spec", |c| {
            let kind = match c.kind {
                "noise" => {
                    let std = c.float("std")?;
                    let std = c.needs(std, "std")?;
                    if !(std > 0.0 && std < 1.0) {
                        return Err(bad(format!("noise std {std} outside (0, 1)")));
                    }
                    FaultKind::SensorNoise { std }
                }
                "bias" => {
                    let factor = c.float("factor")?;
                    let factor = c.needs(factor, "factor")?;
                    if !(factor > 0.0 && factor.is_finite()) {
                        return Err(bad(format!("bias factor {factor} must be positive")));
                    }
                    FaultKind::SensorBias { factor }
                }
                "stale" => {
                    let lag = c.int("lag")?.unwrap_or(2);
                    if lag == 0 {
                        return Err(bad("stale lag must be >= 1".into()));
                    }
                    FaultKind::StaleTelemetry { lag }
                }
                "dropout" => FaultKind::SensorDropout,
                "stuck" => FaultKind::StuckDvfs(match c.int("delay")? {
                    None | Some(0) => DvfsFault::Ignore,
                    Some(d) => DvfsFault::Delay(d),
                }),
                "shock" => {
                    let fraction = c.float("frac")?;
                    let fraction = c.needs(fraction, "frac")?;
                    if !(fraction > 0.0 && fraction <= 1.0) {
                        return Err(bad(format!("shock frac {fraction} outside (0, 1]")));
                    }
                    FaultKind::BudgetShock { fraction }
                }
                other => return Err(bad(format!("unknown fault kind `{other}`"))),
            };
            Ok(FaultClause {
                kind,
                cores: c
                    .targets("core index")?
                    .map_or(CoreSet::All, CoreSet::Cores),
                window: c.window,
            })
        })?;
        Ok(Self {
            clauses,
            seed: DEFAULT_SEED,
        })
    }

    /// Checks the plan against a chip width: every explicit core index must
    /// exist.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::FaultSpec`] on an out-of-range core index.
    pub fn validate(&self, cores: usize) -> Result<()> {
        for clause in &self.clauses {
            if let CoreSet::Cores(list) = &clause.cores {
                if list.is_empty() {
                    return Err(GpmError::FaultSpec(format!(
                        "{} clause names no cores",
                        clause.kind.label()
                    )));
                }
                for &c in list {
                    if c >= cores {
                        return Err(GpmError::FaultSpec(format!(
                            "core {c} out of range for a {cores}-core chip"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let plan = FaultPlan::parse(
            "noise@all:std=0.05;bias@0:factor=0.8,from=3;stale@1+2:lag=3,from=4,to=9;\
             dropout@1:from=10,to=20;stuck@0:delay=2,from=5;shock:frac=0.6,from=30",
        )
        .unwrap();
        assert_eq!(plan.clauses.len(), 6);
        assert_eq!(plan.clauses[0].kind, FaultKind::SensorNoise { std: 0.05 });
        assert_eq!(plan.clauses[0].cores, CoreSet::All);
        assert_eq!(plan.clauses[1].window.from, 3);
        assert_eq!(plan.clauses[2].cores, CoreSet::Cores(vec![1, 2]));
        assert_eq!(plan.clauses[2].kind, FaultKind::StaleTelemetry { lag: 3 });
        assert_eq!(plan.clauses[3].window.to, Some(20));
        assert_eq!(
            plan.clauses[4].kind,
            FaultKind::StuckDvfs(DvfsFault::Delay(2))
        );
        assert_eq!(
            plan.clauses[5].kind,
            FaultKind::BudgetShock { fraction: 0.6 }
        );
    }

    #[test]
    fn stuck_without_delay_ignores() {
        let plan = FaultPlan::parse("stuck@0").expect("stuck@0 spec parses");
        assert_eq!(
            plan.clauses[0].kind,
            FaultKind::StuckDvfs(DvfsFault::Ignore)
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "melt@0",
            "noise@0",               // missing std
            "noise@0:std=1.5",       // std out of range
            "shock",                 // missing frac
            "shock:frac=0",          // frac out of range
            "stale@0:lag=0",         // zero lag
            "dropout@x",             // bad core index
            "dropout@0:from=5,to=5", // empty window
            "dropout@0:weird=1",     // unknown key
            "dropout@0:from",        // not key=value
            "noise:std=0.1,lag=2",   // key noise does not read
            "dropout@0:lag=2",       // key dropout does not read
            "stuck@0:frac=0.5",      // key stuck does not read
            "bias:factor=0.8,std=1", // key bias does not read
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(
                matches!(err, GpmError::FaultSpec(_)),
                "`{bad}` should be FaultSpec, got {err:?}"
            );
        }
    }

    #[test]
    fn validate_checks_core_range() {
        let plan = FaultPlan::parse("dropout@3").expect("dropout@3 spec parses");
        assert!(plan.validate(4).is_ok());
        assert!(matches!(plan.validate(2), Err(GpmError::FaultSpec(_))));
        assert!(FaultPlan::none().validate(1).is_ok());
    }

    #[test]
    fn window_membership() {
        let w = IntervalWindow {
            from: 3,
            to: Some(6),
        };
        assert!(!w.contains(2));
        assert!(w.contains(3));
        assert!(w.contains(5));
        assert!(!w.contains(6));
        assert!(IntervalWindow::ALWAYS.contains(1_000_000));
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan::parse("noise:std=0.1;stuck@1:delay=3")
            .expect("noise:std=0.1;stuck@1:delay=3 spec parses");
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
