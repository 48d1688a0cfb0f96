//! Implementation of the `gpm` command-line tool: argument parsing and the
//! subcommands. The binary in `main.rs` is a thin wrapper so that parsing
//! and execution stay unit-testable.
//!
//! ```text
//! gpm run    --combo "ammp|mcf|crafty|art" --policy maxbips --budget 0.83
//! gpm sweep  --combo "art|mcf" --policies maxbips,chipwide --budgets 0.6:1.0:0.05
//! gpm figure fig4            # regenerate one paper experiment
//! gpm list                   # benchmarks, combos, policies, experiments
//! ```
//!
//! Options: `--fast` (truncated ~6 ms regions), `--json` (machine-readable
//! run output where supported).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use gpm_cmp::{SimParams, TraceCmpSim};
use gpm_core::RunOptions;
use gpm_core::{
    static_oracle, sweep_policy, throughput_degradation, turbo_baseline, weighted_slowdown,
    BudgetSchedule, GlobalManager, MinPower, Policy,
};
use gpm_experiments::{ExperimentContext, PolicyKind};
use gpm_faults::FaultPlan;
use gpm_types::{GpmError, Result};
use gpm_workloads::{combos, SpecBenchmark, WorkloadCombo};

/// A fully parsed command line: the subcommand plus the global options
/// that apply to every subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// The subcommand to execute.
    pub command: Command,
    /// Worker-pool width from `--threads N` (`None` = `GPM_THREADS` or the
    /// detected hardware parallelism; see [`gpm_par::max_threads`]).
    pub threads: Option<usize>,
}

impl Invocation {
    /// Applies the `--threads` override to the process-wide worker pool.
    /// A no-op when the flag was not given.
    pub fn apply_thread_override(&self) {
        if self.threads.is_some() {
            gpm_par::set_max_threads(self.threads);
        }
    }
}

impl From<Command> for Invocation {
    fn from(command: Command) -> Self {
        Self {
            command,
            threads: None,
        }
    }
}

/// A parsed subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one policy at one budget and report the outcome.
    Run {
        /// The workload combination.
        combo: WorkloadCombo,
        /// Policy to drive the chip.
        policy: PolicySpec,
        /// Budget as a fraction of maximum chip power.
        budget: f64,
        /// Emit the full run as JSON instead of a summary.
        json: bool,
        /// Use truncated captures.
        fast: bool,
        /// Fault plan injected at the sensor/actuator seam, if any.
        faults: Option<FaultPlan>,
        /// Disable the guard rails (only meaningful with `faults`;
        /// reproduces the paper's trusting controller under faults).
        no_guards: bool,
    },
    /// Sweep policies across budgets (policy curves).
    Sweep {
        /// The workload combination.
        combo: WorkloadCombo,
        /// Policies to sweep.
        policies: Vec<PolicySpec>,
        /// Budget points.
        budgets: Vec<f64>,
        /// Use truncated captures.
        fast: bool,
    },
    /// Regenerate one paper experiment by name (`fig4`, `table5`, …).
    Figure {
        /// Experiment name.
        name: String,
        /// Use truncated captures.
        fast: bool,
        /// Core-count restriction for the wide/hierarchical scaling tiers
        /// (`--cores 16|32|64|128|256`; `None` runs each tier's default
        /// widths).
        cores: Option<usize>,
        /// Fleet size for the `fleet` saturating-load tier
        /// (`--nodes N`; `None` = 10 000 nodes).
        nodes: Option<usize>,
        /// Raw fleet fault spec for the `fleet` chaos tier
        /// (`--faults SPEC`; the fleet grammar — flap/skew/corrupt/
        /// timeout — parsed by `gpm_faults::FleetFaultPlan`).
        faults: Option<String>,
        /// Seed override for the chaos tier's probability draws.
        fault_seed: Option<u64>,
        /// Emit machine-readable JSON instead of the text rendering
        /// (currently the `fleet` saturating-load tier only).
        json: bool,
    },
    /// Serve the sharded fleet decision engine over TCP or a Unix socket.
    Serve {
        /// Endpoint to listen on (`tcp:host:port`, `unix:path`, or bare
        /// `host:port`).
        listen: String,
        /// Shard count: engines and worker threads.
        shards: usize,
        /// Fleet fault spec armed on every shard, if any.
        faults: Option<String>,
        /// Seed override for the fault plan's probability draws.
        fault_seed: Option<u64>,
        /// Whole-rack power budget in watts, divided evenly across
        /// shards.
        rack_budget: Option<f64>,
        /// Exit after the first client disconnects (scripted smokes).
        once: bool,
    },
    /// Drive a serve endpoint with the synthetic fleet load.
    Loadgen {
        /// Endpoint to connect to (same grammar as `--listen`).
        connect: String,
        /// Nodes submitted per tick.
        nodes: usize,
        /// Measured ticks (after the warm epoch).
        ticks: usize,
        /// Emit the report as JSON.
        json: bool,
        /// Send a shutdown frame when done, stopping the server.
        shutdown: bool,
    },
    /// List benchmarks, combos, policies and experiments.
    List,
    /// Print usage.
    Help,
}

/// A policy selected on the command line.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// One of the named dynamic policies.
    Kind(PolicyKind),
    /// The MinPower extension with its throughput-target fraction.
    MinPower(f64),
    /// The offline optimistic-static bound.
    Static,
}

impl PolicySpec {
    /// Parses `maxbips`, `priority`, `pullhipushlo`, `chipwide`, `oracle`,
    /// `greedy`, `hier`, `cached`, `static`, or `minpower:<target>`.
    ///
    /// # Errors
    ///
    /// Returns [`GpmError::InvalidConfig`] for unknown names.
    pub fn parse(s: &str) -> Result<Self> {
        let lower = s.to_ascii_lowercase();
        if let Some(target) = lower.strip_prefix("minpower:") {
            let target: f64 = target.parse().map_err(|_| GpmError::InvalidConfig {
                parameter: "policy",
                reason: format!("bad MinPower target in `{s}`"),
            })?;
            return Ok(PolicySpec::MinPower(target));
        }
        Ok(match lower.as_str() {
            "maxbips" => PolicySpec::Kind(PolicyKind::MaxBips),
            "priority" => PolicySpec::Kind(PolicyKind::Priority),
            "pullhipushlo" => PolicySpec::Kind(PolicyKind::PullHiPushLo),
            "chipwide" | "chipwidedvfs" => PolicySpec::Kind(PolicyKind::ChipWide),
            "oracle" => PolicySpec::Kind(PolicyKind::Oracle),
            "greedy" | "greedymaxbips" => PolicySpec::Kind(PolicyKind::GreedyMaxBips),
            "hier" | "hiermaxbips" => PolicySpec::Kind(PolicyKind::HierMaxBips),
            "cached" | "cachedmaxbips" => PolicySpec::Kind(PolicyKind::CachedMaxBips),
            "static" => PolicySpec::Static,
            _ => {
                return Err(GpmError::InvalidConfig {
                    parameter: "policy",
                    reason: format!("unknown policy `{s}`"),
                })
            }
        })
    }

    fn make(&self) -> Option<Box<dyn Policy>> {
        match self {
            PolicySpec::Kind(kind) => Some(kind.make()),
            PolicySpec::MinPower(target) => Some(Box::new(MinPower::new(*target))),
            PolicySpec::Static => None,
        }
    }
}

/// Parses a `lo:hi:step` budget range or a comma list of fractions.
///
/// # Errors
///
/// Returns [`GpmError::InvalidConfig`] on malformed input.
pub fn parse_budgets(s: &str) -> Result<Vec<f64>> {
    let bad = |reason: String| GpmError::InvalidConfig {
        parameter: "budgets",
        reason,
    };
    if s.contains(':') {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 3 {
            return Err(bad(format!("`{s}` is not lo:hi:step")));
        }
        let nums: Vec<f64> = parts
            .iter()
            .map(|p| p.parse().map_err(|_| bad(format!("bad number in `{s}`"))))
            .collect::<Result<_>>()?;
        let (lo, hi, step) = (nums[0], nums[1], nums[2]);
        if step <= 0.0 || hi < lo {
            return Err(bad(format!("empty range `{s}`")));
        }
        let mut out = Vec::new();
        let mut b = lo;
        while b <= hi + 1e-9 {
            out.push((b * 1000.0).round() / 1000.0);
            b += step;
        }
        Ok(out)
    } else {
        s.split(',')
            .map(|p| {
                p.trim()
                    .parse()
                    .map_err(|_| bad(format!("bad number `{p}`")))
            })
            .collect()
    }
}

/// Parses the command line (without the program name).
///
/// # Errors
///
/// Returns [`GpmError::InvalidConfig`] on unknown commands, flags or values.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Invocation> {
    let mut args = args.into_iter().peekable();
    let bad = |reason: String| GpmError::InvalidConfig {
        parameter: "arguments",
        reason,
    };
    let Some(cmd) = args.next() else {
        return Ok(Command::Help.into());
    };

    // Collect `--key value` pairs and bare flags.
    let mut combo: Option<WorkloadCombo> = None;
    let mut policy = None;
    let mut policies = None;
    let mut budget = None;
    let mut budgets = None;
    let mut threads = None;
    let mut cores = None;
    let mut nodes = None;
    let mut fast = false;
    let mut json = false;
    let mut faults: Option<String> = None;
    let mut fault_seed: Option<u64> = None;
    let mut no_guards = false;
    let mut listen: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut ticks: Option<usize> = None;
    let mut rack_budget: Option<f64> = None;
    let mut once = false;
    let mut shutdown = false;
    let mut positional = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--json" => json = true,
            "--once" => once = true,
            "--shutdown" => shutdown = true,
            "--listen" => {
                let v = args
                    .next()
                    .ok_or_else(|| bad("--listen needs an endpoint".into()))?;
                listen = Some(v);
            }
            "--connect" => {
                let v = args
                    .next()
                    .ok_or_else(|| bad("--connect needs an endpoint".into()))?;
                connect = Some(v);
            }
            "--shards" => {
                let v = args
                    .next()
                    .ok_or_else(|| bad("--shards needs a value".into()))?;
                let n =
                    v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        bad(format!("bad shard count `{v}` (need an integer ≥ 1)"))
                    })?;
                shards = Some(n);
            }
            "--ticks" => {
                let v = args
                    .next()
                    .ok_or_else(|| bad("--ticks needs a value".into()))?;
                let n =
                    v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        bad(format!("bad tick count `{v}` (need an integer ≥ 1)"))
                    })?;
                ticks = Some(n);
            }
            "--rack-budget" => {
                let v = args
                    .next()
                    .ok_or_else(|| bad("--rack-budget needs watts".into()))?;
                let w = v
                    .parse::<f64>()
                    .ok()
                    .filter(|w| w.is_finite() && *w > 0.0)
                    .ok_or_else(|| bad(format!("bad rack budget `{v}` (need watts > 0)")))?;
                rack_budget = Some(w);
            }
            "--threads" => {
                let v = args
                    .next()
                    .ok_or_else(|| bad("--threads needs a value".into()))?;
                let n =
                    v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        bad(format!("bad thread count `{v}` (need an integer ≥ 1)"))
                    })?;
                threads = Some(n);
            }
            "--combo" => {
                let v = args
                    .next()
                    .ok_or_else(|| bad("--combo needs a value".into()))?;
                combo = Some(WorkloadCombo::parse(&v)?);
            }
            "--policy" => {
                let v = args
                    .next()
                    .ok_or_else(|| bad("--policy needs a value".into()))?;
                policy = Some(PolicySpec::parse(&v)?);
            }
            "--policies" => {
                let v = args
                    .next()
                    .ok_or_else(|| bad("--policies needs a value".into()))?;
                policies = Some(
                    v.split(',')
                        .map(PolicySpec::parse)
                        .collect::<Result<Vec<_>>>()?,
                );
            }
            "--budget" => {
                let v = args
                    .next()
                    .ok_or_else(|| bad("--budget needs a value".into()))?;
                budget = Some(
                    v.parse::<f64>()
                        .map_err(|_| bad(format!("bad budget `{v}`")))?,
                );
            }
            "--cores" => {
                let v = args
                    .next()
                    .ok_or_else(|| bad("--cores needs a value".into()))?;
                let n = v
                    .parse::<usize>()
                    .ok()
                    .filter(|n| [16, 32, 64, 128, 256].contains(n))
                    .ok_or_else(|| {
                        bad(format!(
                            "bad core count `{v}` (need 16, 32, 64, 128 or 256 — \
                             a power-of-two multiple of the 8-core cluster size)"
                        ))
                    })?;
                cores = Some(n);
            }
            "--nodes" => {
                let v = args
                    .next()
                    .ok_or_else(|| bad("--nodes needs a value".into()))?;
                let n =
                    v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        bad(format!("bad node count `{v}` (need an integer ≥ 1)"))
                    })?;
                nodes = Some(n);
            }
            "--no-guards" => no_guards = true,
            "--faults" => {
                let v = args
                    .next()
                    .ok_or_else(|| bad("--faults needs a spec (see README)".into()))?;
                faults = Some(v);
            }
            "--fault-seed" => {
                let v = args
                    .next()
                    .ok_or_else(|| bad("--fault-seed needs a value".into()))?;
                fault_seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| bad(format!("bad fault seed `{v}`")))?,
                );
            }
            "--budgets" => {
                let v = args
                    .next()
                    .ok_or_else(|| bad("--budgets needs a value".into()))?;
                budgets = Some(parse_budgets(&v)?);
            }
            other if other.starts_with("--") => {
                return Err(bad(format!("unknown flag `{other}`")));
            }
            other => positional.push(other.to_owned()),
        }
    }

    let command = match cmd.as_str() {
        "run" => Command::Run {
            combo: combo.unwrap_or_else(combos::ammp_mcf_crafty_art),
            policy: policy.unwrap_or(PolicySpec::Kind(PolicyKind::MaxBips)),
            budget: budget.unwrap_or(0.8),
            json,
            fast,
            faults: match (faults, fault_seed) {
                (Some(spec), Some(seed)) => Some(FaultPlan::parse(&spec)?.seeded(seed)),
                (Some(spec), None) => Some(FaultPlan::parse(&spec)?),
                (None, _) => None,
            },
            no_guards,
        },
        "sweep" => Command::Sweep {
            combo: combo.unwrap_or_else(combos::ammp_mcf_crafty_art),
            policies: policies.unwrap_or_else(|| {
                vec![
                    PolicySpec::Kind(PolicyKind::MaxBips),
                    PolicySpec::Kind(PolicyKind::ChipWide),
                ]
            }),
            budgets: budgets.unwrap_or_else(|| gpm_core::DEFAULT_BUDGETS.to_vec()),
            fast,
        },
        "figure" | "experiment" => {
            let name = positional
                .first()
                .cloned()
                .ok_or_else(|| bad("figure needs an experiment name (e.g. fig4)".into()))?;
            Command::Figure {
                name,
                fast,
                cores,
                nodes,
                faults,
                fault_seed,
                json,
            }
        }
        "serve" => Command::Serve {
            listen: listen.ok_or_else(|| bad("serve needs --listen <endpoint>".into()))?,
            shards: shards.unwrap_or(1),
            faults,
            fault_seed,
            rack_budget,
            once,
        },
        "loadgen" => Command::Loadgen {
            connect: connect.ok_or_else(|| bad("loadgen needs --connect <endpoint>".into()))?,
            nodes: nodes.unwrap_or(1_000),
            ticks: ticks.unwrap_or(8),
            json,
            shutdown,
        },
        "list" => Command::List,
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(bad(format!("unknown command `{other}`"))),
    };
    Ok(Invocation { command, threads })
}

/// Usage text.
pub const USAGE: &str = "gpm — global CMP power management (MICRO 2006 reproduction)

USAGE:
  gpm run    [--combo \"a|b|c\"] [--policy NAME] [--budget F] [--json] [--fast]
             [--faults SPEC] [--fault-seed N] [--no-guards]
  gpm sweep  [--combo \"a|b|c\"] [--policies a,b,c] [--budgets lo:hi:step] [--fast]
  gpm figure NAME [--fast] [--cores 16|32|64|128|256] [--nodes N]
                  [--faults SPEC] [--fault-seed N]
                                regenerate a paper experiment (see `gpm list`);
                                --cores picks one CMP width for the `wide`
                                scaling tier (default 16 and 32; 64/128/256
                                route to the hierarchical tier) or for the
                                `hier` tier (default 64, 128 and 256);
                                --nodes sizes the `fleet` saturating-load
                                tier (default 10000 simulated CMP nodes);
                                --faults switches the `fleet` tier to the
                                chaos runs (default 1000 nodes): fleet
                                grammar `kind[@nodes][:key=val,...]` with
                                kinds flap (period=, down=), skew (ticks=),
                                corrupt (field=nan|neg|shape, rate=),
                                timeout (rate=); windows from=/to= in
                                ticks, nodes `all` or `+`-joined ids.
                                Example: --faults \"flap@0+1:period=4,from=2,to=8\"
                                --json emits the `fleet` load tier as JSON
  gpm serve   --listen EP [--shards K] [--faults SPEC] [--fault-seed N]
              [--rack-budget W] [--once]
                                serve the sharded fleet decision engine;
                                EP is tcp:host:port, unix:path, or bare
                                host:port (tcp:host:0 binds an ephemeral
                                port, announced on stdout); --shards K
                                partitions nodes across K engines (node →
                                shard via splitmix64) whose ticks share
                                the worker pool; --faults
                                arms the fleet chaos plan on every shard
                                (degraded mode on); --rack-budget W
                                splits a whole-rack watt budget evenly
                                across shards; --once exits after the
                                first client disconnects; a client's
                                shutdown frame always stops the server
  gpm loadgen --connect EP [--nodes N] [--ticks T] [--json] [--shutdown]
                                drive a serve endpoint with the synthetic
                                phase-repeating fleet (default 1000 nodes,
                                8 measured ticks after a warm epoch);
                                reports decisions/s and p50/p99 per-tick
                                latency; --shutdown stops the server when
                                done
  gpm list                      benchmarks, combos, policies, experiments
  gpm help

GLOBAL OPTIONS:
  --threads N    worker-pool width for capture/sweep/figure parallelism
                 (default: GPM_THREADS env var, else the detected core
                 count; results are identical for any value)

POLICIES: maxbips, priority, pullhipushlo, chipwide, oracle, greedy, hier,
          cached (MaxBIPS behind the decision cache), minpower:<target>,
          static (sweep only)

FAULTS:   SPEC is `kind[@cores][:key=val,...]` clauses joined by `;`.
          Kinds: noise (std=F), bias (factor=F), stale (lag=N),
          dropout, stuck (delay=N, omitted = ignore), shock (frac=F).
          Cores: `all` (default) or `+`-joined indices, e.g. `0+2`.
          Windows: from=N, to=N in 500 µs explore intervals, half-open.
          Example: --faults \"dropout@1:from=3,to=6;noise@all:std=0.05\"
          Guard rails are on by default under faults; --no-guards runs
          the paper's trusting controller instead.
";

fn context(fast: bool) -> ExperimentContext {
    if fast {
        ExperimentContext::fast()
    } else {
        ExperimentContext::full()
    }
}

/// Executes a parsed command, returning the text to print.
///
/// # Errors
///
/// Propagates capture/simulation errors and unknown experiment names.
pub fn execute(command: Command) -> Result<String> {
    match command {
        Command::Help => Ok(USAGE.to_owned()),
        Command::List => Ok(list_text()),
        Command::Run {
            combo,
            policy,
            budget,
            json,
            fast,
            faults,
            no_guards,
        } => run_one(&combo, &policy, budget, json, fast, faults, no_guards),
        Command::Sweep {
            combo,
            policies,
            budgets,
            fast,
        } => run_sweep(&combo, &policies, &budgets, fast),
        Command::Figure {
            name,
            fast,
            cores,
            nodes,
            faults,
            fault_seed,
            json,
        } => run_figure(
            &name,
            fast,
            cores,
            nodes,
            faults.as_deref(),
            fault_seed,
            json,
        ),
        Command::Serve {
            listen,
            shards,
            faults,
            fault_seed,
            rack_budget,
            once,
        } => run_serve(
            &listen,
            shards,
            faults.as_deref(),
            fault_seed,
            rack_budget,
            once,
        ),
        Command::Loadgen {
            connect,
            nodes,
            ticks,
            json,
            shutdown,
        } => run_loadgen(&connect, nodes, ticks, json, shutdown),
    }
}

/// Builds the per-shard engine config for `gpm serve`: the PR 9 chaos /
/// degraded / rack machinery armed per shard when requested. A whole-rack
/// budget is divided evenly across shards — deterministic, but each shard
/// enforces its slice independently (a single global arbiter would shed
/// differently; see DESIGN.md §15).
fn serve_config(
    shards: usize,
    faults: Option<&str>,
    fault_seed: Option<u64>,
    rack_budget: Option<f64>,
) -> Result<gpm_core::FleetConfig> {
    let mut config = gpm_core::FleetConfig::default();
    if let Some(spec) = faults {
        let mut plan = gpm_faults::FleetFaultPlan::parse(spec)?;
        if let Some(seed) = fault_seed {
            plan = plan.seeded(seed);
        }
        config.faults = Some(plan);
        config.degraded = true;
    }
    if let Some(watts) = rack_budget {
        config.rack_budget = Some(gpm_types::Watts::new(watts / shards as f64));
    }
    Ok(config)
}

fn run_serve(
    listen: &str,
    shards: usize,
    faults: Option<&str>,
    fault_seed: Option<u64>,
    rack_budget: Option<f64>,
    once: bool,
) -> Result<String> {
    let endpoint = gpm_net::Endpoint::parse(listen)?;
    let config = serve_config(shards, faults, fault_seed, rack_budget)?;
    let server = gpm_net::Server::bind(
        &endpoint,
        gpm_net::ServeOptions {
            shards,
            config,
            once,
        },
    )?;
    // Announce the bound endpoint before blocking so scripts driving
    // `--listen tcp:127.0.0.1:0` can learn the ephemeral port.
    println!(
        "gpm serve: listening on {} ({shards} shards)",
        server.local_endpoint()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let summary = server.run()?;
    Ok(format!(
        "gpm serve: done — {} connections, {} ticks, {} decisions\n\
         hit rate {:.1}%  router rejected {}\n",
        summary.connections,
        summary.ticks,
        summary.decisions,
        100.0 * summary.stats.fleet.hit_rate(),
        summary.stats.router_rejected,
    ))
}

fn run_loadgen(
    connect: &str,
    nodes: usize,
    ticks: usize,
    json: bool,
    shutdown: bool,
) -> Result<String> {
    let endpoint = gpm_net::Endpoint::parse(connect)?;
    let report = gpm_net::loadgen::run(
        &endpoint,
        &gpm_net::LoadgenOptions {
            nodes,
            ticks,
            shutdown,
        },
    )?;
    Ok(if json {
        report.to_json()
    } else {
        report.render()
    })
}

fn list_text() -> String {
    let mut out = String::from("benchmarks:\n  ");
    out.push_str(
        &SpecBenchmark::ALL
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", "),
    );
    out.push_str("\n\ncombos (Table 2):\n");
    for combo in combos::two_way_suite()
        .into_iter()
        .chain(combos::four_way_suite())
        .chain(combos::eight_way_suite())
    {
        let _ = writeln!(out, "  {}", combo.label());
    }
    let _ = writeln!(
        out,
        "\ncombos (wide-CMP tier):\n  16-way: {}\n  32-way: 16-way doubled\n  \
         64/128/256-way: doubled again (hierarchical tier, 8-core clusters)",
        combos::sixteen_way_mixed().label()
    );
    out.push_str(
        "\npolicies: maxbips priority pullhipushlo chipwide oracle greedy hier \
         cached minpower:<t> static\n",
    );
    out.push_str(
        "\nexperiments: table3 table4 table5 fig2 fig3 fig4 fig5 fig6 fig6_faulted fig7\n",
    );
    out.push_str(
        "             fig8 fig9 fig10 fig11 wide hier fleet validation prediction minpower\n",
    );
    out.push_str("             thermal transition\n");
    out
}

fn run_one(
    combo: &WorkloadCombo,
    policy: &PolicySpec,
    budget: f64,
    json: bool,
    fast: bool,
    faults: Option<FaultPlan>,
    no_guards: bool,
) -> Result<String> {
    if budget <= 0.0 || budget > 1.0 {
        return Err(GpmError::InvalidConfig {
            parameter: "budget",
            reason: format!("{budget} outside (0, 1]"),
        });
    }
    let ctx = context(fast);
    let traces = ctx.traces(combo)?;
    let params = SimParams::default();
    let baseline = turbo_baseline(&traces, &params)?;

    let Some(mut boxed) = policy.make() else {
        // Static: offline analysis.
        let envelope: gpm_types::Watts = traces
            .iter()
            .map(|t| t.trace(gpm_types::PowerMode::Turbo).peak_power())
            .sum();
        let base = static_oracle::all_turbo(&traces)?;
        let best = static_oracle::best_or_floor(
            &traces,
            envelope * budget,
            static_oracle::BudgetCriterion::PeakPower,
        )?;
        return Ok(format!(
            "Static (offline, optimistic) on {} at {:.0}% budget:\n  modes {}\n  ΔPerf {:.2}%  w.slowdown {:.2}%  avg power {:.1}\n",
            combo,
            budget * 100.0,
            best.modes,
            best.degradation_vs(&base) * 100.0,
            best.weighted_slowdown_vs(&base) * 100.0,
            best.average_power,
        ));
    };

    let sim = TraceCmpSim::new(traces, params)?;
    let faulted = faults.is_some();
    let options = match faults {
        Some(plan) if no_guards => RunOptions {
            faults: Some(plan),
            guards: None,
        },
        Some(plan) => RunOptions::faulted(plan),
        None => RunOptions::default(),
    };
    let run = GlobalManager::new().run_with(
        sim,
        &mut *boxed,
        &BudgetSchedule::constant(budget),
        &options,
    )?;
    if json {
        return run.to_json();
    }
    let mut out = format!(
        "{} on {} at {:.0}% budget:\n  ΔPerf {:.2}%  w.slowdown {:.2}%  power/budget {:.1}%\n  avg power {:.1}  avg BIPS {:.2}  stalls {:.1}  intervals {}\n",
        run.policy,
        combo,
        budget * 100.0,
        throughput_degradation(&run, &baseline) * 100.0,
        weighted_slowdown(&run, &baseline) * 100.0,
        run.budget_utilization() * 100.0,
        run.average_chip_power(),
        run.average_chip_bips(),
        run.total_stall(),
        run.records.len(),
    );
    if faulted {
        let _ = writeln!(
            out,
            "  faults: {} events  guards: {}{} actions  worst overshoot {:.2}  longest violation run {}",
            run.fault_events.len(),
            if no_guards { "off, " } else { "" },
            run.guard_actions.len(),
            run.worst_overshoot_watts(),
            run.longest_violation_run(),
        );
    }
    let cc = run.cache_counters;
    if cc.decisions_total > 0 {
        let _ = writeln!(
            out,
            "  cache: {} decisions  {} hits ({:.0}%)  {} dedup  solver µs saved {:.0}",
            cc.decisions_total,
            cc.cache_hits,
            cc.hit_rate() * 100.0,
            cc.dedup_hits,
            cc.solver_us_saved,
        );
    }
    Ok(out)
}

fn run_sweep(
    combo: &WorkloadCombo,
    policies: &[PolicySpec],
    budgets: &[f64],
    fast: bool,
) -> Result<String> {
    let ctx = context(fast);
    let traces = ctx.traces(combo)?;
    let params = SimParams::default();
    let baseline = turbo_baseline(&traces, &params)?;

    let mut out = format!("policy curves for {combo} (ΔPerf per budget)\n");
    let mut header = vec![format!("{:<14}", "policy")];
    header.extend(budgets.iter().map(|b| format!("{:>7.0}%", b * 100.0)));
    out.push_str(&header.join(" "));
    out.push('\n');

    for spec in policies {
        let curve = match spec {
            PolicySpec::Static => {
                let sub = ExperimentContext::new(
                    gpm_trace::TraceStore::new(ctx.store().config().clone()),
                    params.clone(),
                    budgets.to_vec(),
                );
                gpm_experiments::static_curve(&sub, combo)?
            }
            PolicySpec::Kind(kind) => {
                sweep_policy(&traces, &params, budgets, &baseline, &|| kind.make())?
            }
            PolicySpec::MinPower(target) => {
                let t = *target;
                sweep_policy(&traces, &params, budgets, &baseline, &move || {
                    Box::new(MinPower::new(t))
                })?
            }
        };
        let mut cells = vec![format!("{:<14}", curve.policy)];
        for p in &curve.points {
            cells.push(format!("{:>7.2}%", p.perf_degradation * 100.0));
        }
        out.push_str(&cells.join(" "));
        out.push('\n');
    }
    Ok(out)
}

fn run_figure(
    name: &str,
    fast: bool,
    cores: Option<usize>,
    nodes: Option<usize>,
    faults: Option<&str>,
    fault_seed: Option<u64>,
    json: bool,
) -> Result<String> {
    use gpm_experiments as exp;
    let ctx = context(fast);
    let unknown = || GpmError::InvalidConfig {
        parameter: "experiment",
        reason: format!("unknown experiment `{name}` (see `gpm list`)"),
    };
    Ok(match name.to_ascii_lowercase().as_str() {
        "table3" => exp::tables::table3().render(),
        "table4" => exp::tables::table4(&gpm_power::DvfsParams::paper()).render(),
        "table5" => exp::tables::table5(&gpm_power::DvfsParams::paper()).render(),
        "fig2" => exp::fig2::run(&ctx)?.render(),
        "fig3" => exp::fig3::run(&ctx)?.render(),
        "fig4" => exp::fig4::run(&ctx)?.render(),
        "fig5" => exp::fig5::run(&ctx)?.render(),
        "fig6" => exp::fig6::run(&ctx)?.render(),
        "fig6_faulted" | "fig6f" => exp::fig6_faulted::run(&ctx)?.render(),
        "fig7" => exp::fig7::run(&ctx)?.render(),
        "fig8" => exp::scaling::fig8(&ctx)?.render(),
        "fig9" => exp::scaling::fig9(&ctx)?.render(),
        "fig10" => exp::scaling::fig10(&ctx)?.render(),
        "fig11" => exp::scaling::fig11(&ctx)?.render(),
        "wide" => {
            let widths = cores.map_or_else(|| vec![16, 32], |c| vec![c]);
            if widths.iter().any(|&c| c > 32) {
                // 64-way and up belong to the hierarchical tier.
                exp::scaling::hier(&ctx, &widths)?.render()
            } else {
                exp::scaling::wide(&ctx, &widths)?.render()
            }
        }
        "hier" => {
            let widths = cores.map_or_else(|| vec![64, 128, 256], |c| vec![c]);
            exp::scaling::hier(&ctx, &widths)?.render()
        }
        "fleet" => match faults {
            Some(spec) => {
                if json {
                    return Err(GpmError::InvalidConfig {
                        parameter: "json",
                        reason: "--json covers the fleet load tier only, not the chaos tier".into(),
                    });
                }
                // Chaos tier: cold-start runs per fault class. More ticks
                // than the load tier so windowed faults can close and the
                // service can demonstrate recovery.
                let ticks = if fast { 12 } else { 24 };
                exp::fleet_chaos::run(nodes.unwrap_or(1_000), ticks, spec, fault_seed)?.render()
            }
            None => {
                let ticks = if fast { 4 } else { 12 };
                let load = exp::fleet::run(nodes.unwrap_or(10_000), ticks)?;
                if json {
                    load.to_json()
                } else {
                    load.render()
                }
            }
        },
        "validation" => exp::validation::render_trace_vs_full(&exp::validation::run_trace_vs_full(
            &ctx,
            gpm_types::Micros::from_millis(2.0),
        )?),
        "prediction" => {
            exp::validation::prediction_error(&ctx, &combos::ammp_mcf_crafty_art(), 0.8)?.render()
        }
        "minpower" => exp::ablation::dual_problem(&ctx)?.render(),
        "thermal" => exp::ablation::thermal(&ctx, 72.0)?.render(),
        "transition" => exp::ablation::transition_overlap(&ctx)?.render(),
        _ => return Err(unknown()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Command> {
        parse_args(line.split_whitespace().map(str::to_owned)).map(|inv| inv.command)
    }

    #[test]
    fn parses_run_with_all_flags() {
        let cmd =
            parse("run --combo art|mcf --policy maxbips --budget 0.75 --fast --json").unwrap();
        match cmd {
            Command::Run {
                combo,
                policy,
                budget,
                json,
                fast,
                faults,
                no_guards,
            } => {
                assert_eq!(combo.label(), "art|mcf");
                assert_eq!(policy, PolicySpec::Kind(PolicyKind::MaxBips));
                assert_eq!(budget, 0.75);
                assert!(json && fast);
                assert!(faults.is_none() && !no_guards);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_sweep_with_budget_range() {
        let cmd =
            parse("sweep --policies maxbips,static,minpower:0.95 --budgets 0.6:0.8:0.1").unwrap();
        match cmd {
            Command::Sweep {
                policies, budgets, ..
            } => {
                assert_eq!(policies.len(), 3);
                assert_eq!(policies[1], PolicySpec::Static);
                assert_eq!(policies[2], PolicySpec::MinPower(0.95));
                assert_eq!(budgets, vec![0.6, 0.7, 0.8]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_figure_and_list_and_help() {
        assert!(matches!(
            parse("figure fig4 --fast").unwrap(),
            Command::Figure { ref name, fast: true, cores: None, nodes: None, .. } if name == "fig4"
        ));
        assert_eq!(parse("list").unwrap(), Command::List);
        assert_eq!(parse("help").unwrap(), Command::Help);
        assert_eq!(parse("").unwrap(), Command::Help);
    }

    #[test]
    fn parses_cores_flag() {
        assert!(matches!(
            parse("figure wide --cores 16 --fast").unwrap(),
            Command::Figure { ref name, fast: true, cores: Some(16), .. } if name == "wide"
        ));
        assert!(matches!(
            parse("figure wide --cores 32").unwrap(),
            Command::Figure {
                cores: Some(32),
                ..
            }
        ));
        for cores in [64, 128, 256] {
            assert!(
                matches!(
                    parse(&format!("figure hier --cores {cores}")).unwrap(),
                    Command::Figure { cores: Some(c), .. } if c == cores
                ),
                "--cores {cores} must parse"
            );
        }
        assert!(parse("figure wide --cores 7").is_err());
        assert!(parse("figure wide --cores 48").is_err());
        assert!(parse("figure wide --cores 512").is_err());
        assert!(parse("figure wide --cores lots").is_err());
        assert!(parse("figure wide --cores").is_err());
    }

    #[test]
    fn parses_nodes_flag_and_cached_policy() {
        assert!(matches!(
            parse("figure fleet --nodes 64 --fast").unwrap(),
            Command::Figure { ref name, fast: true, cores: None, nodes: Some(64), .. }
                if name == "fleet"
        ));
        assert!(matches!(
            parse("figure fleet").unwrap(),
            Command::Figure { nodes: None, .. }
        ));
        assert!(parse("figure fleet --nodes 0").is_err());
        assert!(parse("figure fleet --nodes many").is_err());
        assert!(parse("figure fleet --nodes").is_err());
        for spec in ["cached", "CachedMaxBIPS"] {
            assert_eq!(
                PolicySpec::parse(spec).unwrap(),
                PolicySpec::Kind(PolicyKind::CachedMaxBips)
            );
        }
    }

    #[test]
    fn fleet_figure_reports_steady_state_hits() {
        let out = run_figure("fleet", true, None, Some(64), None, None, false).unwrap();
        assert!(out.contains("64 nodes x 4 ticks"), "{out}");
        assert!(out.contains("hit rate"), "{out}");
        assert!(out.contains("100.0%"), "{out}");
    }

    #[test]
    fn cached_run_prints_cache_summary() {
        let out = execute(Command::Run {
            combo: combos::art_mcf(),
            policy: PolicySpec::Kind(PolicyKind::CachedMaxBips),
            budget: 0.8,
            json: false,
            fast: true,
            faults: None,
            no_guards: false,
        })
        .unwrap();
        assert!(out.contains("CachedMaxBIPS"), "{out}");
        assert!(out.contains("cache:"), "{out}");
        assert!(out.contains("decisions"), "{out}");
    }

    #[test]
    fn rejects_unknown_input() {
        assert!(parse("frobnicate").is_err());
        assert!(parse("run --policy nosuch").is_err());
        assert!(parse("run --combo quake|doom").is_err());
        assert!(parse("run --nonsense").is_err());
        assert!(parse("figure").is_err());
    }

    #[test]
    fn parses_threads_flag() {
        let inv = parse_args("list --threads 3".split_whitespace().map(str::to_owned)).unwrap();
        assert_eq!(inv.threads, Some(3));
        assert_eq!(inv.command, Command::List);
        let inv = parse_args(["list".to_owned()]).unwrap();
        assert_eq!(inv.threads, None);
        assert!(parse("list --threads 0").is_err());
        assert!(parse("list --threads many").is_err());
        assert!(parse("list --threads").is_err());
    }

    #[test]
    fn budget_parsing() {
        assert_eq!(parse_budgets("0.7,0.8").unwrap(), vec![0.7, 0.8]);
        assert_eq!(parse_budgets("0.6:0.7:0.05").unwrap(), vec![0.6, 0.65, 0.7]);
        assert!(parse_budgets("0.9:0.6:0.1").is_err());
        assert!(parse_budgets("a:b:c").is_err());
        assert!(parse_budgets("xyz").is_err());
    }

    #[test]
    fn help_and_list_execute() {
        assert!(execute(Command::Help).unwrap().contains("USAGE"));
        let list = execute(Command::List).unwrap();
        assert!(list.contains("ammp|mcf|crafty|art"));
        assert!(list.contains("maxbips"));
        assert!(list.contains("hier"));
        assert!(list.contains("64/128/256-way"));
    }

    #[test]
    fn static_tables_execute_without_captures() {
        for name in ["table3", "table4", "table5"] {
            let out = run_figure(name, true, None, None, None, None, false).unwrap();
            assert!(out.contains("Table"), "{name}: {out}");
        }
        assert!(run_figure("nope", true, None, None, None, None, false).is_err());
    }

    #[test]
    fn run_rejects_bad_budget() {
        let combo = combos::art_mcf();
        assert!(run_one(
            &combo,
            &PolicySpec::Kind(PolicyKind::MaxBips),
            1.5,
            false,
            true,
            None,
            false
        )
        .is_err());
    }

    #[test]
    fn end_to_end_run_and_sweep_fast() {
        let out = execute(Command::Run {
            combo: combos::art_mcf(),
            policy: PolicySpec::Kind(PolicyKind::MaxBips),
            budget: 0.8,
            json: false,
            fast: true,
            faults: None,
            no_guards: false,
        })
        .unwrap();
        assert!(out.contains("MaxBIPS"), "{out}");
        assert!(out.contains("ΔPerf"));

        let out = execute(Command::Sweep {
            combo: combos::art_mcf(),
            policies: vec![
                PolicySpec::Kind(PolicyKind::MaxBips),
                PolicySpec::MinPower(0.95),
            ],
            budgets: vec![0.7, 0.9],
            fast: true,
        })
        .unwrap();
        assert!(out.contains("MaxBIPS"));
        assert!(out.contains("MinPower"));
    }

    #[test]
    fn parses_fault_flags() {
        let cmd =
            parse("run --combo art|mcf --faults dropout@1:from=3,to=6 --fault-seed 7 --no-guards")
                .unwrap();
        match cmd {
            Command::Run {
                faults, no_guards, ..
            } => {
                let plan = faults.expect("plan parsed");
                assert_eq!(plan.seed, 7);
                assert_eq!(plan.clauses.len(), 1);
                assert!(no_guards);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("run --faults nosuchkind").is_err());
        assert!(parse("run --fault-seed notanumber").is_err());
        assert!(parse("run --faults").is_err());
    }

    #[test]
    fn faulted_run_reports_fault_summary() {
        let out = execute(Command::Run {
            combo: combos::art_mcf(),
            policy: PolicySpec::Kind(PolicyKind::MaxBips),
            budget: 0.8,
            json: false,
            fast: true,
            faults: Some(FaultPlan::parse("dropout@1:from=2,to=4").unwrap()),
            no_guards: false,
        })
        .unwrap();
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("worst overshoot"), "{out}");
    }

    #[test]
    fn json_run_roundtrips() {
        let out = execute(Command::Run {
            combo: combos::art_mcf(),
            policy: PolicySpec::Kind(PolicyKind::MaxBips),
            budget: 0.8,
            json: true,
            fast: true,
            faults: None,
            no_guards: false,
        })
        .unwrap();
        let run = gpm_core::RunResult::from_json(&out).unwrap();
        assert_eq!(run.policy, "MaxBIPS");
    }
}
