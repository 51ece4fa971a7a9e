//! In-sim SLO burn-rate alerting on the DES virtual clock.
//!
//! The serving engine scores each request of an SLO-carrying class as a
//! *hit* or *miss* the instant the outcome becomes known (dispatch time
//! for completions — depth-first batch execution fixes the finish time
//! then — admission time for sheds). Misses burn the class's error
//! budget `1 − target`; the **burn rate** is the windowed miss fraction
//! divided by that budget, so a burn rate of 1.0 spends the budget
//! exactly over the SLO period and 14.4 spends a 30-day budget in two
//! days.
//!
//! Alerting follows the multi-window, multi-burn-rate recipe from the
//! Google SRE workbook: a rule fires only when **both** a short and a
//! long window exceed its factor (the short window gives fast reset, the
//! long one suppresses blips), and resolves when the short window drops
//! back under. The default [`AlertPolicy::standard`] pairs a fast
//! page-grade rule (5 min / 1 h at 14.4×) with a slow ticket-grade rule
//! (6 h / 3 d at 6×).
//!
//! Everything runs on the simulation's virtual clock in deterministic
//! event order: windows are ring buffers of fixed-width buckets advanced
//! by virtual time, and every fire/resolve transition is appended to an
//! [`AlertEvent`] log (capped, with a drop counter) that lands in the
//! serving report (schema v4) and the `--report-jsonl` stream. Runs are
//! byte-identical across hosts, thread counts, and interrupt/resume —
//! the full alert state is captured in `albireo.snapshot/v1` files.
//! None of this state folds into the run digest: alerting *observes* the
//! run, it never alters dispatch.

use albireo_obs::json::{num, Obj};

/// Ring-buffer buckets per window. 30 buckets keeps the trailing-window
/// approximation within ~3% of the exact interval while holding O(1)
/// memory per (class, window).
pub(crate) const WINDOW_BUCKETS: usize = 30;

/// Alert events retained per run; later transitions only bump
/// [`AlertBook::dropped`]. 1024 transitions is far beyond any sane run —
/// the cap exists so a pathological flapping config cannot grow the
/// report without bound.
pub(crate) const ALERT_EVENT_CAP: usize = 1024;

/// One burn-rate rule: a short and a long trailing window plus the
/// firing factor both must exceed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRule {
    /// Short (reset-speed) window, virtual seconds.
    pub short_s: f64,
    /// Long (confirmation) window, virtual seconds.
    pub long_s: f64,
    /// Burn-rate threshold: fire when both windows burn faster than
    /// `factor ×` the budget-neutral rate.
    pub factor: f64,
}

/// Which of the policy's two rules a transition belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertRule {
    /// The page-grade fast-burn rule.
    Fast,
    /// The ticket-grade slow-burn rule.
    Slow,
}

impl AlertRule {
    /// Stable lowercase label used in JSON and snapshots.
    pub fn label(&self) -> &'static str {
        match self {
            AlertRule::Fast => "fast",
            AlertRule::Slow => "slow",
        }
    }
}

/// The burn-rate alerting policy applied to every SLO-carrying class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertPolicy {
    /// SLO objective as a fraction (0.999 = 99.9% of offered requests
    /// meet the class latency target). The error budget is `1 − target`.
    pub target: f64,
    /// Page-grade rule (default 5 min / 1 h at 14.4×).
    pub fast: BurnRule,
    /// Ticket-grade rule (default 6 h / 3 d at 6×).
    pub slow: BurnRule,
}

impl AlertPolicy {
    /// The SRE-workbook default: 99.9% objective, fast 5m/1h @ 14.4×,
    /// slow 6h/3d @ 6×.
    pub fn standard() -> AlertPolicy {
        AlertPolicy::with_target(0.999)
    }

    /// [`AlertPolicy::standard`] windows and factors with a different
    /// SLO objective.
    pub fn with_target(target: f64) -> AlertPolicy {
        assert!(
            (0.0..1.0).contains(&target),
            "SLO target must be in [0, 1), got {target}"
        );
        AlertPolicy {
            target,
            fast: BurnRule {
                short_s: 300.0,
                long_s: 3600.0,
                factor: 14.4,
            },
            slow: BurnRule {
                short_s: 21_600.0,
                long_s: 259_200.0,
                factor: 6.0,
            },
        }
    }

    /// One-line policy description carried in the serving report.
    pub fn label(&self) -> String {
        format!(
            "slo {} fast {}/{}x{} slow {}/{}x{}",
            self.target,
            self.fast.short_s,
            self.fast.long_s,
            self.fast.factor,
            self.slow.short_s,
            self.slow.long_s,
            self.slow.factor,
        )
    }
}

impl Default for AlertPolicy {
    fn default() -> AlertPolicy {
        AlertPolicy::standard()
    }
}

/// One fire or resolve transition, in virtual-time order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertEvent {
    /// Class index into the workload's class table.
    pub class: usize,
    /// Which rule transitioned.
    pub rule: AlertRule,
    /// `true` = fired, `false` = resolved.
    pub fire: bool,
    /// Virtual instant of the transition, s.
    pub at_s: f64,
    /// Short-window burn rate at the transition.
    pub burn_short: f64,
    /// Long-window burn rate at the transition.
    pub burn_long: f64,
}

impl AlertEvent {
    /// Appends the transition's JSON members to `obj`, naming its class
    /// `class` (the report's `alerts.events` rows and the
    /// `albireo.serve.alert/v1` lines share them).
    pub(crate) fn json_fields(&self, obj: Obj, class: &str) -> Obj {
        obj.field("class", class)
            .field("rule", self.rule.label())
            .field("type", if self.fire { "fire" } else { "resolve" })
            .field("at_s", num(self.at_s))
            .field("burn_short", num(self.burn_short))
            .field("burn_long", num(self.burn_long))
    }
}

/// A trailing-window hit/miss counter: `WINDOW_BUCKETS` ring buckets of
/// width `window_s / WINDOW_BUCKETS` advanced by virtual time, plus the
/// running sums of both rings so the miss fraction costs O(1).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WindowCounts {
    /// Bucket width, s (derived from the policy; not serialized).
    bucket_s: f64,
    /// Absolute index of the newest bucket (`floor(at_s / bucket_s)`).
    pub(crate) cur: u64,
    /// Per-slot observation counts (`slot = index % WINDOW_BUCKETS`).
    total: [u64; WINDOW_BUCKETS],
    /// Per-slot miss counts, each at most its slot's total.
    miss: [u64; WINDOW_BUCKETS],
    /// Sum of `total` (kept exact: integer adds and subtracts).
    total_sum: u64,
    /// Sum of `miss`.
    miss_sum: u64,
}

impl WindowCounts {
    pub(crate) fn new(window_s: f64) -> WindowCounts {
        debug_assert!(window_s > 0.0 && window_s.is_finite());
        WindowCounts {
            bucket_s: window_s / WINDOW_BUCKETS as f64,
            cur: 0,
            total: [0; WINDOW_BUCKETS],
            miss: [0; WINDOW_BUCKETS],
            total_sum: 0,
            miss_sum: 0,
        }
    }

    /// Rolls the ring forward to the bucket containing `at_s`, evicting
    /// every bucket the clock skipped from the ring and from the sums.
    /// Observation instants are nondecreasing (DES event order), so the
    /// ring never rolls back.
    fn advance(&mut self, at_s: f64) {
        let idx = (at_s / self.bucket_s) as u64;
        if idx <= self.cur {
            return;
        }
        let steps = (idx - self.cur).min(WINDOW_BUCKETS as u64);
        for k in 1..=steps {
            let slot = ((self.cur + k) % WINDOW_BUCKETS as u64) as usize;
            self.total_sum -= self.total[slot];
            self.miss_sum -= self.miss[slot];
            self.total[slot] = 0;
            self.miss[slot] = 0;
        }
        self.cur = idx;
    }

    pub(crate) fn observe(&mut self, at_s: f64, miss: bool) {
        self.advance(at_s);
        let slot = (self.cur % WINDOW_BUCKETS as u64) as usize;
        self.total[slot] += 1;
        self.total_sum += 1;
        if miss {
            self.miss[slot] += 1;
            self.miss_sum += 1;
        }
    }

    /// Miss fraction over the trailing window (0 when nothing observed).
    pub(crate) fn miss_fraction(&self) -> f64 {
        if self.total_sum == 0 {
            return 0.0;
        }
        self.miss_sum as f64 / self.total_sum as f64
    }

    /// `(slot, total, miss)` for every slot holding an observation,
    /// ascending — the serialized form.
    pub(crate) fn occupied_slots(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        (0..WINDOW_BUCKETS)
            .filter(|&i| self.total[i] > 0)
            .map(|i| (i, self.total[i], self.miss[i]))
    }

    /// Restores one slot's counts from a snapshot, keeping the sums
    /// exact; `None` when a sum would overflow. `slot < WINDOW_BUCKETS`
    /// and `miss <= total` are the caller's checks.
    pub(crate) fn restore_slot(&mut self, slot: usize, total: u64, miss: u64) -> Option<()> {
        debug_assert!(miss <= total);
        self.total_sum = (self.total_sum - self.total[slot]).checked_add(total)?;
        self.miss_sum = (self.miss_sum - self.miss[slot]).checked_add(miss)?;
        self.total[slot] = total;
        self.miss[slot] = miss;
        Some(())
    }
}

/// Per-class alert state: four trailing windows and the firing latch of
/// each rule.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClassAlertState {
    pub(crate) fast_short: WindowCounts,
    pub(crate) fast_long: WindowCounts,
    pub(crate) slow_short: WindowCounts,
    pub(crate) slow_long: WindowCounts,
    pub(crate) fast_firing: bool,
    pub(crate) slow_firing: bool,
}

impl ClassAlertState {
    pub(crate) fn new(policy: &AlertPolicy) -> ClassAlertState {
        ClassAlertState {
            fast_short: WindowCounts::new(policy.fast.short_s),
            fast_long: WindowCounts::new(policy.fast.long_s),
            slow_short: WindowCounts::new(policy.slow.short_s),
            slow_long: WindowCounts::new(policy.slow.long_s),
            fast_firing: false,
            slow_firing: false,
        }
    }
}

/// The run's alerting ledger: policy, per-class window state (only for
/// classes with an SLO), and the capped transition log.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AlertBook {
    pub(crate) policy: AlertPolicy,
    /// Aligned with the class table; `None` for best-effort classes.
    /// Empty = alerting disabled (no class carries an SLO).
    pub(crate) states: Vec<Option<ClassAlertState>>,
    pub(crate) events: Vec<AlertEvent>,
    pub(crate) dropped: u64,
}

impl AlertBook {
    /// A book that tracks nothing (classless runs, parsed placeholders).
    pub(crate) fn disabled() -> AlertBook {
        AlertBook {
            policy: AlertPolicy::standard(),
            states: Vec::new(),
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Builds the book for a run's class table: one state per
    /// SLO-carrying class, disabled entirely when there is none.
    pub(crate) fn for_classes(policy: AlertPolicy, slos: &[Option<f64>]) -> AlertBook {
        if slos.iter().all(|s| s.is_none()) {
            return AlertBook::disabled();
        }
        AlertBook {
            policy,
            states: slos
                .iter()
                .map(|s| s.map(|_| ClassAlertState::new(&policy)))
                .collect(),
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether any class is being tracked.
    pub(crate) fn is_active(&self) -> bool {
        !self.states.is_empty()
    }

    /// Folds one SLO outcome into the class's windows and evaluates both
    /// rules, appending any fire/resolve transition. Called in DES event
    /// order with nondecreasing `at_s`.
    pub(crate) fn observe(&mut self, class: usize, at_s: f64, miss: bool) {
        let policy = self.policy;
        let Some(Some(st)) = self.states.get_mut(class) else {
            return;
        };
        st.fast_short.observe(at_s, miss);
        st.fast_long.observe(at_s, miss);
        st.slow_short.observe(at_s, miss);
        st.slow_long.observe(at_s, miss);
        let budget = 1.0 - policy.target;
        debug_assert!(budget > 0.0);
        let mut transitions: Vec<AlertEvent> = Vec::new();
        for (rule, which) in [
            (policy.fast, AlertRule::Fast),
            (policy.slow, AlertRule::Slow),
        ] {
            let (short, long, firing) = match which {
                AlertRule::Fast => (&st.fast_short, &st.fast_long, &mut st.fast_firing),
                AlertRule::Slow => (&st.slow_short, &st.slow_long, &mut st.slow_firing),
            };
            let burn_short = short.miss_fraction() / budget;
            let burn_long = long.miss_fraction() / budget;
            if !*firing && burn_short >= rule.factor && burn_long >= rule.factor {
                *firing = true;
                transitions.push(AlertEvent {
                    class,
                    rule: which,
                    fire: true,
                    at_s,
                    burn_short,
                    burn_long,
                });
            } else if *firing && burn_short < rule.factor {
                *firing = false;
                transitions.push(AlertEvent {
                    class,
                    rule: which,
                    fire: false,
                    at_s,
                    burn_short,
                    burn_long,
                });
            }
        }
        for ev in transitions {
            self.push_event(ev);
        }
    }

    fn push_event(&mut self, ev: AlertEvent) {
        if self.events.len() < ALERT_EVENT_CAP {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Fire-transition count for one class.
    pub(crate) fn fired(&self, class: usize) -> u64 {
        self.events
            .iter()
            .filter(|e| e.class == class && e.fire)
            .count() as u64
    }

    /// Whether either rule is still firing for `class`.
    pub(crate) fn active(&self, class: usize) -> bool {
        self.states
            .get(class)
            .and_then(|s| s.as_ref())
            .is_some_and(|s| s.fast_firing || s.slow_firing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_roll_forward_and_forget() {
        let mut w = WindowCounts::new(300.0); // 10 s buckets
        for i in 0..10 {
            w.observe(i as f64, true);
        }
        assert_eq!(w.miss_fraction(), 1.0);
        // 400 s later every bucket has rolled out of the window.
        w.observe(450.0, false);
        assert_eq!(w.miss_fraction(), 0.0);
    }

    #[test]
    fn partial_roll_keeps_recent_buckets() {
        let mut w = WindowCounts::new(300.0);
        w.observe(0.0, true);
        w.observe(0.0, false);
        // 150 s on: the first bucket is still inside the 300 s window.
        w.observe(150.0, false);
        assert!((w.miss_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fires_only_when_both_windows_burn() {
        let policy = AlertPolicy::with_target(0.99); // budget 0.01
        let mut book = AlertBook::for_classes(policy, &[Some(5.0)]);
        // Hits spread over 50 min, then a short miss burst: the 5 min
        // short windows burn hot but the long windows stay diluted, so
        // nothing fires.
        for i in 0..3000 {
            book.observe(0, i as f64, false);
        }
        for i in 0..50 {
            book.observe(0, 3000.0 + i as f64, true);
        }
        assert!(book.events.is_empty(), "long windows must gate the alert");
        // Sustained misses eventually push a long window over its
        // factor and fire; a stretch of hits then drains the short
        // window and resolves.
        let mut t = 3050.0;
        while !book.active(0) {
            book.observe(0, t, true);
            t += 1.0;
        }
        assert_eq!(book.fired(0), 1);
        let first = book.events[0];
        assert!(first.fire);
        let factor = match first.rule {
            AlertRule::Fast => policy.fast.factor,
            AlertRule::Slow => policy.slow.factor,
        };
        assert!(first.burn_short >= factor && first.burn_long >= factor);
        while book.active(0) {
            book.observe(0, t, false);
            t += 1.0;
        }
        let last = *book.events.last().unwrap();
        assert!(!last.fire, "hits must resolve the alert");
        let factor = match last.rule {
            AlertRule::Fast => policy.fast.factor,
            AlertRule::Slow => policy.slow.factor,
        };
        assert!(last.burn_short < factor);
    }

    #[test]
    fn best_effort_classes_are_ignored() {
        let mut book = AlertBook::for_classes(AlertPolicy::standard(), &[None, Some(5.0)]);
        assert!(book.is_active());
        book.observe(0, 1.0, true); // best-effort: no state, no panic
        assert!(book.states[0].is_none());
        assert_eq!(book.fired(0), 0);
        let none = AlertBook::for_classes(AlertPolicy::standard(), &[None, None]);
        assert!(!none.is_active(), "no SLO anywhere disables the book");
    }

    #[test]
    fn event_log_caps_and_counts_drops() {
        let mut book = AlertBook::disabled();
        for i in 0..(ALERT_EVENT_CAP + 5) {
            book.push_event(AlertEvent {
                class: 0,
                rule: AlertRule::Fast,
                fire: i % 2 == 0,
                at_s: i as f64,
                burn_short: 20.0,
                burn_long: 20.0,
            });
        }
        assert_eq!(book.events.len(), ALERT_EVENT_CAP);
        assert_eq!(book.dropped, 5);
    }

    #[test]
    fn policy_label_is_stable() {
        assert_eq!(
            AlertPolicy::standard().label(),
            "slo 0.999 fast 300/3600x14.4 slow 21600/259200x6"
        );
    }
}

/// Pins the running window sums to the ring they summarize.
#[cfg(test)]
mod props {
    use super::*;
    use crate::grammar::Lexer;
    use crate::snapshot::{parse_window, write_window};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    #[derive(Debug, Clone)]
    enum Op {
        /// Step the clock on by this many seconds, then score a request.
        Observe(f64, bool),
        /// Step the clock on, then roll the ring without an observation.
        Advance(f64),
        /// Write the ring as its snapshot line and read it back.
        RoundTrip,
    }

    /// Clock steps: often none, mostly within a bucket, sometimes past
    /// a few buckets or the whole window.
    fn step() -> impl Strategy<Value = f64> {
        prop_oneof![
            6 => Just(0.0f64),
            6 => 0.0f64..0.3,
            2 => 0.3f64..4.0,
            1 => 4.0f64..40.0,
        ]
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                8 => (step(), prop::bool::ANY).prop_map(|(dt, miss)| Op::Observe(dt, miss)),
                2 => step().prop_map(Op::Advance),
                1 => Just(Op::RoundTrip),
            ],
            0..200,
        )
    }

    /// The running sums equal the ring recomputed slot by slot, and the
    /// miss fraction equals the one the ring sums give.
    fn sums_match(w: &WindowCounts) -> Result<(), TestCaseError> {
        let total: u64 = w.total.iter().sum();
        let miss: u64 = w.miss.iter().sum();
        prop_assert_eq!((w.total_sum, w.miss_sum), (total, miss));
        prop_assert!(w.miss.iter().zip(&w.total).all(|(m, t)| m <= t));
        let fraction = if total == 0 {
            0.0
        } else {
            miss as f64 / total as f64
        };
        prop_assert_eq!(w.miss_fraction().to_bits(), fraction.to_bits());
        Ok(())
    }

    proptest! {
        /// After every observe, advance and snapshot round-trip the
        /// running sums equal the recomputed ring sums.
        #[test]
        fn running_sums_equal_ring_sums(
            window_s in prop_oneof![Just(3.0f64), Just(300.0), 0.5f64..10.0],
            ops in ops(),
        ) {
            let mut w = WindowCounts::new(window_s);
            let mut at_s = 0.0f64;
            for op in &ops {
                match *op {
                    Op::Observe(dt, miss) => {
                        at_s += dt;
                        w.observe(at_s, miss);
                    }
                    Op::Advance(dt) => {
                        at_s += dt;
                        w.advance(at_s);
                    }
                    Op::RoundTrip => {
                        let mut line = String::new();
                        write_window(&mut line, &w);
                        let mut fields = Lexer::new("snapshot", line.trim_end(), ' ');
                        prop_assert_eq!(fields.next(), Some("awin"));
                        let mut back = WindowCounts::new(window_s);
                        parse_window(fields, &mut back).map_err(TestCaseError::fail)?;
                        prop_assert_eq!(&back, &w);
                        w = back;
                    }
                }
                sums_match(&w)?;
            }
        }
    }
}
