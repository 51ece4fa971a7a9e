//! Batching and admission-control policy for the central dispatch queue.
//!
//! The queue is a single bounded FIFO shared by every chip in the fleet
//! (Albireo has no intra-chip batching — one inference occupies the whole
//! chip — so a "batch" is a *micro-batch*: consecutive same-network
//! requests that share one weight-programming pass, see
//! [`crate::fleet::ServiceCost`]). Batches are therefore always
//! single-network; the queue head defines the network and the batch takes
//! the earliest queued requests of that network, preserving FIFO order
//! (head-of-line semantics are intentional and documented — a released
//! chip never skips the oldest waiting request's network).

use crate::grammar::Lexer;
use std::fmt;

/// When the dispatcher may form a batch from the queue head.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchPolicy {
    /// Dispatch a single request as soon as a chip is free.
    Immediate,
    /// Wait until `size` same-network requests are queued (or the arrival
    /// stream has ended, which flushes partial batches).
    SizeN {
        /// Target batch size (≥ 1).
        size: usize,
    },
    /// Dispatch when `max_size` same-network requests are queued **or**
    /// the queue head has waited `max_wait_s`, whichever comes first.
    Deadline {
        /// Longest the queue head may wait before a partial batch is
        /// forced out, s.
        max_wait_s: f64,
        /// Upper bound on batch size.
        max_size: usize,
    },
}

impl BatchPolicy {
    /// A short stable label for reports and CSV keys, e.g. `size4`,
    /// `deadline100us`.
    pub fn label(&self) -> String {
        match self {
            BatchPolicy::Immediate => "immediate".to_string(),
            BatchPolicy::SizeN { size } => format!("size{size}"),
            BatchPolicy::Deadline {
                max_wait_s,
                max_size,
            } => format!("deadline{:.0}us_max{max_size}", max_wait_s * 1e6),
        }
    }

    /// Parses a policy spec: `immediate`, `size:<N>`,
    /// `deadline:<USEC>[:<MAX>]` (deadline in microseconds, default max
    /// batch 8), or the exact canonical form `deadline_s:<SECONDS>:<MAX>`
    /// (seconds via `{}` round-trip bit-exactly; dividing microseconds
    /// by 1e6 does not).
    pub fn parse(spec: &str) -> Result<BatchPolicy, String> {
        let mut lx = Lexer::new("policy", spec, ':');
        let kind = lx.token("policy kind")?;
        let policy = match kind {
            "deadline" => BatchPolicy::Deadline {
                // The microsecond form must still be a positive number
                // of seconds once scaled.
                max_wait_s: lx.field_where("finite deadline in us > 0", |us: &f64| {
                    us.is_finite() && us / 1e6 > 0.0
                })? / 1e6,
                max_size: if lx.at_end() {
                    8
                } else {
                    lx.nonzero("max batch size")?
                },
            },
            "deadline_s" => BatchPolicy::Deadline {
                max_wait_s: lx.positive("deadline in s")?,
                max_size: lx.nonzero("max batch size")?,
            },
            _ if kind.eq_ignore_ascii_case("immediate") => BatchPolicy::Immediate,
            _ => match kind.strip_prefix("size") {
                Some("") => BatchPolicy::SizeN {
                    size: lx.nonzero("batch size")?,
                },
                Some(n) => BatchPolicy::SizeN {
                    size: lx.parse_where(n, "batch size >= 1", |n: &usize| *n >= 1)?,
                },
                None => {
                    return Err(lx.expected(
                        kind,
                        "immediate, size:<N>, deadline:<USEC>[:<MAX>] or deadline_s:<S>:<MAX>",
                    ))
                }
            },
        };
        lx.end()?;
        Ok(policy)
    }

    /// The largest batch this policy ever dispatches.
    pub fn max_batch(&self) -> usize {
        match self {
            BatchPolicy::Immediate => 1,
            BatchPolicy::SizeN { size } => *size,
            BatchPolicy::Deadline { max_size, .. } => *max_size,
        }
    }
}

impl fmt::Display for BatchPolicy {
    /// The canonical exact spec — `immediate`, `size:<N>`, or
    /// `deadline_s:<SECONDS>:<MAX>` — that [`BatchPolicy::parse`]
    /// inverts bit-exactly (seconds print via `{}`; the microsecond
    /// form divides by 1e6, which does not invert multiplication).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchPolicy::Immediate => write!(f, "immediate"),
            BatchPolicy::SizeN { size } => write!(f, "size:{size}"),
            BatchPolicy::Deadline {
                max_wait_s,
                max_size,
            } => write!(f, "deadline_s:{max_wait_s}:{max_size}"),
        }
    }
}

/// Admission control for the shared queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Requests the queue holds before arrivals are shed. `usize::MAX`
    /// disables shedding.
    pub queue_capacity: usize,
}

impl Default for AdmissionControl {
    /// A bounded queue of 64 requests — deep enough to ride a burst,
    /// shallow enough that shed rate (not unbounded queueing delay)
    /// absorbs sustained overload.
    fn default() -> AdmissionControl {
        AdmissionControl { queue_capacity: 64 }
    }
}

impl AdmissionControl {
    /// An unbounded queue (no shedding).
    pub fn unbounded() -> AdmissionControl {
        AdmissionControl {
            queue_capacity: usize::MAX,
        }
    }

    /// A bounded queue.
    pub fn bounded(queue_capacity: usize) -> AdmissionControl {
        assert!(queue_capacity > 0, "queue capacity must be at least 1");
        AdmissionControl { queue_capacity }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(
            BatchPolicy::parse("immediate").unwrap(),
            BatchPolicy::Immediate
        );
        assert_eq!(
            BatchPolicy::parse("size:4").unwrap(),
            BatchPolicy::SizeN { size: 4 }
        );
        let d = BatchPolicy::parse("deadline:100:6").unwrap();
        assert_eq!(
            d,
            BatchPolicy::Deadline {
                max_wait_s: 100e-6,
                max_size: 6
            }
        );
        assert_eq!(d.label(), "deadline100us_max6");
        assert_eq!(BatchPolicy::parse(&d.to_string()).unwrap(), d);
        assert_eq!(BatchPolicy::parse("deadline:50").unwrap().max_batch(), 8);
        assert!(BatchPolicy::parse("size:0").is_err());
        assert!(BatchPolicy::parse("deadline:0").is_err());
        assert!(BatchPolicy::parse("fifo").is_err());
        assert_eq!(
            BatchPolicy::parse("size4").unwrap(),
            BatchPolicy::SizeN { size: 4 }
        );
        assert_eq!(
            BatchPolicy::parse("deadline_s:0.000123456789:6").unwrap(),
            BatchPolicy::Deadline {
                max_wait_s: 0.000123456789,
                max_size: 6
            }
        );
    }

    #[test]
    fn non_finite_and_over_long_policies_are_rejected() {
        for bad in [
            "deadline:nan",
            "deadline:inf:4",
            "deadline:-1",
            "deadline:1e-320",
            "deadline:100:6:99",
            "deadline_s:nan:4",
            "deadline_s:0.1",
            "size:4:1",
            "immediate:1",
        ] {
            assert!(BatchPolicy::parse(bad).is_err(), "accepted `{bad}`");
        }
        assert_eq!(
            BatchPolicy::parse("deadline:nan").unwrap_err(),
            "policy `deadline:nan`: expected finite deadline in us > 0 at byte 9"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(BatchPolicy::Immediate.label(), "immediate");
        assert_eq!(BatchPolicy::SizeN { size: 8 }.label(), "size8");
    }

    #[test]
    fn admission_defaults() {
        assert_eq!(AdmissionControl::default().queue_capacity, 64);
        assert_eq!(AdmissionControl::unbounded().queue_capacity, usize::MAX);
        assert_eq!(AdmissionControl::bounded(8).queue_capacity, 8);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        AdmissionControl::bounded(0);
    }
}
