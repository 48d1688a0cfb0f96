//! Fleet-scale fault plans: what goes wrong across nodes, and when.
//!
//! The chip-level [`FaultPlan`](crate::FaultPlan) perturbs one chip's
//! sensors and actuators; this module models the failure classes a
//! datacenter-scale decision service sees instead: whole nodes flapping
//! in and out of contact, telemetry delivered ticks late, reports that
//! arrive corrupted (NaN or negative power cells, mismatched matrix
//! shapes), and solver invocations that time out. Clauses follow the
//! same `kind[@nodes][:key=value,...]` grammar as the chip plans and the
//! same half-open [`IntervalWindow`] activation windows.
//!
//! Unlike the chip session, the fleet session keeps **no mutable state**:
//! every draw is a pure hash of `(seed, clause, tick, node)`, so results
//! are bit-identical for any worker-pool width, any submission order,
//! and across a checkpoint/restore — a restored engine rebuilds the
//! session from the plan alone and observes the exact same fault
//! schedule.

use gpm_types::{splitmix64, GpmError, Result};
use serde::{Deserialize, Serialize};

use crate::plan::IntervalWindow;
use crate::spec::parse_clauses;

/// Default seed for fleet fault draws (distinct from the chip-plan seed
/// so co-seeded chip and fleet plans decorrelate).
pub const FLEET_DEFAULT_SEED: u64 = 0xf1ee7;

/// Which nodes a fleet clause perturbs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeSet {
    /// Every node in the fleet.
    All,
    /// An explicit list of node ids.
    Nodes(Vec<u64>),
}

impl NodeSet {
    /// Whether `node` is in the set.
    #[inline]
    #[must_use]
    pub fn contains(&self, node: u64) -> bool {
        match self {
            NodeSet::All => true,
            NodeSet::Nodes(list) => list.contains(&node),
        }
    }
}

/// Which field of a telemetry report a corruption clause mangles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CorruptField {
    /// A power cell is replaced with NaN.
    Nan,
    /// A power cell is negated.
    Negative,
    /// The current-mode vector is truncated (shape mismatch).
    Shape,
}

impl CorruptField {
    /// Short label used in reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            CorruptField::Nan => "nan",
            CorruptField::Negative => "neg",
            CorruptField::Shape => "shape",
        }
    }
}

/// One class of injected fleet fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetFaultKind {
    /// The node flaps: for the first `down` ticks of every `period`-tick
    /// cycle (phased from the window start) its reports never arrive.
    NodeFlap {
        /// Cycle length in ticks.
        period: u64,
        /// Ticks down at the start of each cycle.
        down: u64,
    },
    /// Reports arrive `ticks` late: a report stamped `t` is delivered at
    /// `t + ticks`, so the engine sees it aged by `ticks`.
    TickSkew {
        /// Delivery delay in ticks.
        ticks: u64,
    },
    /// Each report is independently corrupted with probability `rate`.
    CorruptReport {
        /// Which field gets mangled.
        field: CorruptField,
        /// Per-report corruption probability in `(0, 1]`.
        rate: f64,
    },
    /// Each solver invocation for an affected node's report group times
    /// out with probability `rate`, forcing a degraded-mode decision.
    SolverTimeout {
        /// Per-invocation timeout probability in `(0, 1]`.
        rate: f64,
    },
}

impl FleetFaultKind {
    /// Short label used in reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FleetFaultKind::NodeFlap { .. } => "flap",
            FleetFaultKind::TickSkew { .. } => "skew",
            FleetFaultKind::CorruptReport { .. } => "corrupt",
            FleetFaultKind::SolverTimeout { .. } => "timeout",
        }
    }
}

/// One fleet fault clause: a kind, the nodes it hits, and when.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetFaultClause {
    /// The fault class.
    pub kind: FleetFaultKind,
    /// Affected nodes.
    pub nodes: NodeSet,
    /// Active tick window (half-open, like chip interval windows).
    pub window: IntervalWindow,
}

/// A complete, deterministic fleet fault schedule.
///
/// Parse one from a `--faults` spec with [`FleetFaultPlan::parse`], or
/// build it programmatically. An empty plan is a no-op seam.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetFaultPlan {
    /// The fault clauses, applied in order.
    pub clauses: Vec<FleetFaultClause>,
    /// Seed for the hash-based probability draws.
    pub seed: u64,
}

impl Default for FleetFaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FleetFaultPlan {
    /// The empty plan: injects nothing.
    #[must_use]
    pub fn none() -> Self {
        Self {
            clauses: Vec::new(),
            seed: FLEET_DEFAULT_SEED,
        }
    }

    /// Whether the plan injects anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Builder: appends a clause.
    #[must_use]
    pub fn with(mut self, kind: FleetFaultKind, nodes: NodeSet, window: IntervalWindow) -> Self {
        self.clauses.push(FleetFaultClause {
            kind,
            nodes,
            window,
        });
        self
    }

    /// Builder: sets the draw seed.
    #[must_use]
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Parses a fleet `--faults` spec: semicolon-separated clauses of the
    /// form `kind[@nodes][:key=value,...]`.
    ///
    /// * `kind` — `flap`, `skew`, `corrupt`, `timeout`
    /// * `nodes` — `all` (default) or `+`-separated node ids (`0+5`)
    /// * keys — `from=<tick>` / `to=<tick>` (half-open window, default
    ///   always), `period=` / `down=` (flap; down defaults to 1),
    ///   `ticks=` (skew, default 1), `field=nan|neg|shape` (corrupt,
    ///   default nan), `rate=` (corrupt/timeout, default 1.0)
    ///
    /// # Examples
    ///
    /// ```
    /// use gpm_faults::FleetFaultPlan;
    ///
    /// let plan = FleetFaultPlan::parse(
    ///     "flap@0+5:period=4,down=1,from=3,to=9;corrupt:field=nan,rate=0.5",
    /// )
    /// .unwrap();
    /// assert_eq!(plan.clauses.len(), 2);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::FaultSpec`] on malformed input.
    pub fn parse(spec: &str) -> Result<Self> {
        let bad = |msg: String| GpmError::FaultSpec(msg);
        let rate_in_range = |r: f64| r > 0.0 && r <= 1.0;
        let clauses = parse_clauses(spec, "fleet fault spec", |c| {
            let kind = match c.kind {
                "flap" => {
                    let period = c.int("period")?;
                    let period = c.needs(period, "period")?;
                    let down = c.int("down")?.unwrap_or(1);
                    if period == 0 {
                        return Err(bad("flap period must be >= 1".into()));
                    }
                    if down == 0 || down > period {
                        return Err(bad(format!(
                            "flap down {down} must be in [1, period={period}]"
                        )));
                    }
                    FleetFaultKind::NodeFlap { period, down }
                }
                "skew" => {
                    let ticks = c.int("ticks")?.unwrap_or(1);
                    if ticks == 0 {
                        return Err(bad("skew ticks must be >= 1".into()));
                    }
                    FleetFaultKind::TickSkew { ticks }
                }
                "corrupt" => {
                    let field = match c.take("field") {
                        None | Some("nan") => CorruptField::Nan,
                        Some("neg") => CorruptField::Negative,
                        Some("shape") => CorruptField::Shape,
                        Some(other) => {
                            return Err(bad(format!(
                                "unknown corrupt field `{other}` (nan|neg|shape)"
                            )))
                        }
                    };
                    let rate = c.float("rate")?.unwrap_or(1.0);
                    if !rate_in_range(rate) {
                        return Err(bad(format!("corrupt rate {rate} outside (0, 1]")));
                    }
                    FleetFaultKind::CorruptReport { field, rate }
                }
                "timeout" => {
                    let rate = c.float("rate")?.unwrap_or(1.0);
                    if !rate_in_range(rate) {
                        return Err(bad(format!("timeout rate {rate} outside (0, 1]")));
                    }
                    FleetFaultKind::SolverTimeout { rate }
                }
                other => return Err(bad(format!("unknown fleet fault kind `{other}`"))),
            };
            Ok(FleetFaultClause {
                kind,
                nodes: c.targets("node id")?.map_or(NodeSet::All, NodeSet::Nodes),
                window: c.window,
            })
        })?;
        Ok(Self {
            clauses,
            seed: FLEET_DEFAULT_SEED,
        })
    }

    /// Checks the plan for internally-empty node lists.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::FaultSpec`] if a clause names no nodes.
    pub fn validate(&self) -> Result<()> {
        for clause in &self.clauses {
            if let NodeSet::Nodes(list) = &clause.nodes {
                if list.is_empty() {
                    return Err(GpmError::FaultSpec(format!(
                        "{} clause names no nodes",
                        clause.kind.label()
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Stateless fault oracle for one fleet run.
///
/// Holds only the (validated) plan; every query is a pure function of
/// `(seed, clause, tick, node)`, so the session never needs
/// checkpointing and answers identically regardless of query order or
/// worker-pool width.
#[derive(Debug, Clone)]
pub struct FleetFaultSession {
    plan: FleetFaultPlan,
    /// Clause indices by kind, precomputed so each per-report probe scans
    /// only its own kind's clauses (and returns immediately for kinds the
    /// plan never mentions) — these probes sit on the decision service's
    /// per-report hot path.
    flap: Vec<usize>,
    skew: Vec<usize>,
    corrupt: Vec<usize>,
    timeout: Vec<usize>,
}

impl FleetFaultSession {
    /// Builds a session from a plan.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::FaultSpec`] if the plan fails
    /// [`FleetFaultPlan::validate`].
    pub fn new(plan: &FleetFaultPlan) -> Result<Self> {
        plan.validate()?;
        let by_kind = |want: &str| -> Vec<usize> {
            plan.clauses
                .iter()
                .enumerate()
                .filter(|(_, clause)| clause.kind.label() == want)
                .map(|(i, _)| i)
                .collect()
        };
        Ok(Self {
            flap: by_kind("flap"),
            skew: by_kind("skew"),
            corrupt: by_kind("corrupt"),
            timeout: by_kind("timeout"),
            plan: plan.clone(),
        })
    }

    /// The plan this session draws from.
    #[must_use]
    pub fn plan(&self) -> &FleetFaultPlan {
        &self.plan
    }

    /// Whether the session injects anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// Whether `node`'s report for `tick` is lost to a flap outage.
    #[inline]
    #[must_use]
    pub fn node_down(&self, tick: u64, node: u64) -> bool {
        self.flap.iter().any(|&i| {
            let clause = &self.plan.clauses[i];
            if let FleetFaultKind::NodeFlap { period, down } = clause.kind {
                clause.nodes.contains(node)
                    && in_window(&clause.window, tick)
                    && (tick - clause.window.from as u64) % period < down
            } else {
                false
            }
        })
    }

    /// Delivery delay (in ticks) applied to `node`'s report for `tick`.
    ///
    /// The largest live skew clause wins; 0 means on-time delivery.
    #[inline]
    #[must_use]
    pub fn tick_skew(&self, tick: u64, node: u64) -> u64 {
        self.skew
            .iter()
            .filter_map(|&i| {
                let clause = &self.plan.clauses[i];
                if let FleetFaultKind::TickSkew { ticks } = clause.kind {
                    (clause.nodes.contains(node) && in_window(&clause.window, tick))
                        .then_some(ticks)
                } else {
                    None
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// Which corruption (if any) hits `node`'s report for `tick`.
    ///
    /// The first live clause whose rate draw fires wins.
    #[inline]
    #[must_use]
    pub fn corrupt(&self, tick: u64, node: u64) -> Option<CorruptField> {
        self.corrupt.iter().find_map(|&i| {
            let clause = &self.plan.clauses[i];
            if let FleetFaultKind::CorruptReport { field, rate } = clause.kind {
                (clause.nodes.contains(node)
                    && in_window(&clause.window, tick)
                    && self.draw(i as u64, tick, node) < rate)
                    .then_some(field)
            } else {
                None
            }
        })
    }

    /// Whether the solver invocation for `node`'s report at `tick` times
    /// out (the node being the group leader of a deduplicated batch).
    #[inline]
    #[must_use]
    pub fn solver_timeout(&self, tick: u64, node: u64) -> bool {
        self.timeout.iter().any(|&i| {
            let clause = &self.plan.clauses[i];
            if let FleetFaultKind::SolverTimeout { rate } = clause.kind {
                clause.nodes.contains(node)
                    && in_window(&clause.window, tick)
                    && self.draw(i as u64, tick, node) < rate
            } else {
                false
            }
        })
    }

    /// Last tick at which any clause is active, if every window closes.
    ///
    /// `None` means some clause is open-ended. Used by the chaos
    /// experiment to locate the recovery epoch.
    #[must_use]
    pub fn last_fault_tick(&self) -> Option<u64> {
        let mut last = 0u64;
        for clause in &self.plan.clauses {
            match clause.window.to {
                None => return None,
                Some(to) => last = last.max(to.saturating_sub(1) as u64),
            }
        }
        Some(last)
    }

    /// A uniform draw in `[0, 1)` keyed on `(seed, clause, tick, node)`.
    fn draw(&self, clause: u64, tick: u64, node: u64) -> f64 {
        let mut h = splitmix64(self.plan.seed ^ 0x6c8e_9cf5_7054_9735);
        h = splitmix64(h ^ clause);
        h = splitmix64(h ^ tick);
        h = splitmix64(h ^ node);
        // Top 53 bits → uniform double in [0, 1).
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

fn in_window(window: &IntervalWindow, tick: u64) -> bool {
    let t = usize::try_from(tick).unwrap_or(usize::MAX);
    window.contains(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_fleet_grammar() {
        let plan = FleetFaultPlan::parse(
            "flap@0+5:period=4,down=2,from=3,to=9;skew:ticks=2;\
             corrupt@7:field=neg,rate=0.5,from=1;timeout:rate=0.25,to=8",
        )
        .unwrap();
        assert_eq!(plan.clauses.len(), 4);
        assert_eq!(
            plan.clauses[0].kind,
            FleetFaultKind::NodeFlap { period: 4, down: 2 }
        );
        assert_eq!(plan.clauses[0].nodes, NodeSet::Nodes(vec![0, 5]));
        assert_eq!(plan.clauses[0].window.from, 3);
        assert_eq!(plan.clauses[0].window.to, Some(9));
        assert_eq!(plan.clauses[1].kind, FleetFaultKind::TickSkew { ticks: 2 });
        assert_eq!(plan.clauses[1].nodes, NodeSet::All);
        assert_eq!(
            plan.clauses[2].kind,
            FleetFaultKind::CorruptReport {
                field: CorruptField::Negative,
                rate: 0.5,
            }
        );
        assert_eq!(
            plan.clauses[3].kind,
            FleetFaultKind::SolverTimeout { rate: 0.25 }
        );
    }

    #[test]
    fn defaults_fill_in() {
        let plan = FleetFaultPlan::parse("flap:period=3;skew;corrupt;timeout")
            .expect("flap:period=3;skew;corrupt;timeout spec parses");
        assert_eq!(
            plan.clauses[0].kind,
            FleetFaultKind::NodeFlap { period: 3, down: 1 }
        );
        assert_eq!(plan.clauses[1].kind, FleetFaultKind::TickSkew { ticks: 1 });
        assert_eq!(
            plan.clauses[2].kind,
            FleetFaultKind::CorruptReport {
                field: CorruptField::Nan,
                rate: 1.0,
            }
        );
        assert_eq!(
            plan.clauses[3].kind,
            FleetFaultKind::SolverTimeout { rate: 1.0 }
        );
    }

    #[test]
    fn rejects_malformed_fleet_specs() {
        for bad in [
            "",
            "melt@0",
            "flap",                      // missing period
            "flap:period=0",             // zero period
            "flap:period=2,down=3",      // down > period
            "flap:period=2,down=0",      // zero down
            "skew:ticks=0",              // zero skew
            "corrupt:field=weird",       // unknown field
            "corrupt:rate=0",            // rate out of range
            "corrupt:rate=1.5",          // rate out of range
            "timeout:rate=-0.1",         // rate out of range
            "flap@x:period=2",           // bad node id
            "flap:period=2,from=5,to=5", // empty window
            "flap:period=2,weird=1",     // unknown key
            "flap:period",               // not key=value
            "corrupt:period=3",          // key corrupt does not read
            "timeout:field=nan",         // key timeout does not read
            "skew:rate=0.5",             // key skew does not read
            "flap:period=2,ticks=1",     // key flap does not read
        ] {
            let err = FleetFaultPlan::parse(bad).unwrap_err();
            assert!(
                matches!(err, GpmError::FaultSpec(_)),
                "`{bad}` should be FaultSpec, got {err:?}"
            );
        }
    }

    #[test]
    fn flap_cycles_deterministically() {
        let plan = FleetFaultPlan::parse("flap@3:period=4,down=2,from=3,to=11")
            .expect("flap@3:period=4,down=2,from=3,to=11 spec parses");
        let s = FleetFaultSession::new(&plan).unwrap();
        // Phase anchors at the window start (tick 3).
        let down: Vec<u64> = (0..14).filter(|&t| s.node_down(t, 3)).collect();
        assert_eq!(down, vec![3, 4, 7, 8]);
        // Other nodes are untouched.
        assert!((0..14).all(|t| !s.node_down(t, 2)));
    }

    #[test]
    fn skew_takes_largest_live_clause() {
        let plan = FleetFaultPlan::parse("skew@1:ticks=2,from=2,to=6;skew@1:ticks=1")
            .expect("skew@1:ticks=2,from=2,to=6;skew@1:ticks=1 spec parses");
        let s = FleetFaultSession::new(&plan).unwrap();
        assert_eq!(s.tick_skew(0, 1), 1);
        assert_eq!(s.tick_skew(3, 1), 2);
        assert_eq!(s.tick_skew(6, 1), 1);
        assert_eq!(s.tick_skew(3, 0), 0);
    }

    #[test]
    fn corrupt_draws_are_pure_and_seeded() {
        let plan = FleetFaultPlan::parse("corrupt:rate=0.5")
            .unwrap()
            .seeded(11);
        let s = FleetFaultSession::new(&plan).unwrap();
        let a: Vec<_> = (0..64).map(|n| s.corrupt(5, n)).collect();
        let b: Vec<_> = (0..64).map(|n| s.corrupt(5, n)).collect();
        assert_eq!(a, b); // pure: same query, same answer
        let hits = a.iter().filter(|c| c.is_some()).count();
        assert!(hits > 10 && hits < 54, "rate=0.5 over 64 draws hit {hits}");
        // A different seed gives a different pattern.
        let s2 = FleetFaultSession::new(&plan.clone().seeded(12)).unwrap();
        let c: Vec<_> = (0..64).map(|n| s2.corrupt(5, n)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn rate_one_always_fires_inside_window() {
        let plan = FleetFaultPlan::parse("timeout:rate=1.0,from=2,to=4")
            .expect("timeout:rate=1.0,from=2,to=4 spec parses");
        let s = FleetFaultSession::new(&plan).unwrap();
        assert!(!s.solver_timeout(1, 0));
        assert!(s.solver_timeout(2, 0));
        assert!(s.solver_timeout(3, 9));
        assert!(!s.solver_timeout(4, 0));
    }

    #[test]
    fn last_fault_tick_requires_closed_windows() {
        let closed = FleetFaultPlan::parse("flap:period=2,from=1,to=5;skew:to=9")
            .expect("flap:period=2,from=1,to=5;skew:to=9 spec parses");
        let s = FleetFaultSession::new(&closed).unwrap();
        assert_eq!(s.last_fault_tick(), Some(8));
        let open = FleetFaultPlan::parse("flap:period=2,from=1,to=5;skew")
            .expect("flap:period=2,from=1,to=5;skew spec parses");
        let s = FleetFaultSession::new(&open).unwrap();
        assert_eq!(s.last_fault_tick(), None);
    }

    #[test]
    fn validate_rejects_empty_node_lists() {
        let plan = FleetFaultPlan::none().with(
            FleetFaultKind::TickSkew { ticks: 1 },
            NodeSet::Nodes(vec![]),
            IntervalWindow::ALWAYS,
        );
        assert!(matches!(
            FleetFaultSession::new(&plan),
            Err(GpmError::FaultSpec(_))
        ));
    }

    #[test]
    fn fleet_plan_roundtrips_through_json() {
        let plan = FleetFaultPlan::parse("flap@2:period=3,down=1;corrupt:field=shape,rate=0.2")
            .expect("flap@2:period=3,down=1;corrupt:field=shape,rate=0.2 spec parses");
        let json = serde_json::to_string(&plan).unwrap();
        let back: FleetFaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
