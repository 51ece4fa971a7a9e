//! In-sim fleet autoscaling: provisioning chips up and down on queue
//! depth, with a configurable warm-up latency.
//!
//! Three modes:
//!
//! * [`AutoscalePolicy::None`] — the legacy engine: every chip is always
//!   available and **no idle power is accounted** (energy is per-batch
//!   only). Existing runs, digests, and goldens are byte-identical under
//!   this mode.
//! * [`AutoscalePolicy::Static`] — every chip is provisioned for the
//!   whole run and pays its [`idle_power_w`] for every second it is not
//!   serving. This is the honest cost of a statically sized fleet: the
//!   photonic laser/thermal floor runs whether or not requests arrive.
//! * [`AutoscalePolicy::Elastic`] — the first `min_chips` chips are
//!   provisioned at start; the rest are *parked* (consuming nothing).
//!   When the dispatch queue backs up past `up_depth` pending requests
//!   per already-warming chip, the lowest-indexed parked chip spins up,
//!   becoming available only `warmup_s` seconds later (warming chips
//!   draw idle power but cannot serve — thermal lock and laser
//!   stabilization are modeled as unavailability, not as free). Whenever
//!   the system goes fully idle (empty queue, no busy chip), every
//!   provisioned chip above the `min_chips` floor parks again.
//!
//! Scale-up and scale-down decisions are pure functions of DES state at
//! event instants, so autoscaled runs keep the engine's bit-determinism
//! contract unchanged.
//!
//! [`idle_power_w`]: albireo_core::accel::Accelerator::idle_power_w

use crate::grammar::Lexer;
use std::fmt;

/// The fleet provisioning policy of a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AutoscalePolicy {
    /// Legacy mode: all chips available, no idle-power accounting.
    None,
    /// All chips provisioned for the whole run, idle power accounted.
    Static,
    /// Queue-depth-driven spin-up/park with a warm-up latency.
    Elastic {
        /// Pending requests per warming chip that trigger a spin-up
        /// (≥ 1).
        up_depth: usize,
        /// Seconds between the spin-up decision and the chip becoming
        /// serviceable (≥ 0; idle power is drawn while warming).
        warmup_s: f64,
        /// Chips that never park (≥ 1; the floor fleet).
        min_chips: usize,
    },
}

impl AutoscalePolicy {
    /// Whether this policy charges idle power for provisioned chips.
    pub fn accounts_idle(&self) -> bool {
        !matches!(self, AutoscalePolicy::None)
    }

    /// A short stable label for reports and CSV keys. Identical to the
    /// [`Display`](fmt::Display) rendering, which [`parse`] inverts
    /// exactly (warm-up is printed through `{}`, Rust's
    /// shortest-round-trip float form).
    ///
    /// [`parse`]: AutoscalePolicy::parse
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Parses a policy spec: `none`, `static`, or
    /// `elastic:<UP_DEPTH>:<WARMUP_S>[:<MIN_CHIPS>]` (warm-up in
    /// seconds, `min_chips` defaulting to 1).
    pub fn parse(spec: &str) -> Result<AutoscalePolicy, String> {
        let mut lx = Lexer::new("autoscale policy", spec, ':');
        let kind = lx.token("autoscale kind")?;
        let policy = if kind.eq_ignore_ascii_case("none") {
            AutoscalePolicy::None
        } else if kind.eq_ignore_ascii_case("static") {
            AutoscalePolicy::Static
        } else if kind == "elastic" {
            AutoscalePolicy::Elastic {
                up_depth: lx.nonzero("up-depth")?,
                warmup_s: lx.non_negative("warm-up in s")?,
                min_chips: if lx.at_end() {
                    1
                } else {
                    lx.nonzero("min-chips")?
                },
            }
        } else {
            return Err(lx.expected(
                kind,
                "none, static or elastic:<UP_DEPTH>:<WARMUP_S>[:<MIN_CHIPS>]",
            ));
        };
        lx.end()?;
        Ok(policy)
    }
}

impl fmt::Display for AutoscalePolicy {
    /// The canonical spec string; [`AutoscalePolicy::parse`] inverts it
    /// exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutoscalePolicy::None => write!(f, "none"),
            AutoscalePolicy::Static => write!(f, "static"),
            AutoscalePolicy::Elastic {
                up_depth,
                warmup_s,
                min_chips,
            } => write!(f, "elastic:{up_depth}:{warmup_s}:{min_chips}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_display_form() {
        for spec in ["none", "static", "elastic:4:0.0005:1", "elastic:16:0:2"] {
            let p = AutoscalePolicy::parse(spec).unwrap();
            assert_eq!(p.to_string(), spec);
            assert_eq!(AutoscalePolicy::parse(&p.to_string()).unwrap(), p);
            assert_eq!(p.label(), p.to_string());
        }
    }

    #[test]
    fn min_chips_defaults_to_one() {
        assert_eq!(
            AutoscalePolicy::parse("elastic:8:0.001").unwrap(),
            AutoscalePolicy::Elastic {
                up_depth: 8,
                warmup_s: 0.001,
                min_chips: 1
            }
        );
    }

    #[test]
    fn invalid_specs_are_rejected() {
        for bad in [
            "elastic",
            "elastic:0:0.1",
            "elastic:4",
            "elastic:4:-1",
            "elastic:4:inf",
            "elastic:4:0.1:0",
            "elastic:4:0.1:1:9",
            "dynamic",
        ] {
            assert!(AutoscalePolicy::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn only_none_skips_idle_accounting() {
        assert!(!AutoscalePolicy::None.accounts_idle());
        assert!(AutoscalePolicy::Static.accounts_idle());
        assert!(AutoscalePolicy::parse("elastic:4:0.0005:1")
            .unwrap()
            .accounts_idle());
    }
}
