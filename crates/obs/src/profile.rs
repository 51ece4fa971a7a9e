//! Wall-clock phase profiler: the second clock of the two-clock
//! observability model.
//!
//! Everything else in `albireo-obs` runs on **virtual** time so that
//! exports and digests are deterministic. This module is the deliberate
//! exception: it measures where the *real* CPU time goes, so speed work
//! is guided by measurements instead of guesses. Like the `--wall-clock` span
//! opt-in, profile data is excluded from every determinism digest — a
//! run with profiling on produces byte-identical reports, goldens, and
//! digests to a run with it off.
//!
//! ## Model
//!
//! A profile is a forest of named phases. [`scope`] pushes a phase onto
//! the calling thread's stack and the returned guard pops it on drop,
//! crediting the elapsed nanoseconds to the phase *path* (names joined
//! with `/`, e.g. `analog_conv/analog.conv2d/parallel.join`). Each
//! path accumulates an exact-merge [`PhaseStat`]: call count, total
//! (inclusive) time, self (exclusive) time, and min/max per call.
//!
//! Accumulation is per-thread with zero synchronization on the hot
//! path; a thread's stats are folded into a process-global map when the
//! thread exits (every worker in this workspace is `thread::scope`d, so
//! workers flush before their spawner resumes) or when [`take_report`]
//! runs on the thread itself. Merging is exact — counts add, extrema
//! take extrema — so the aggregate is independent of how work was
//! sharded, even though the measured nanoseconds themselves are not.
//!
//! Worker-thread phases root at the worker's outermost scope (e.g.
//! `parallel.chunk`), not under the spawning thread's stack: wall time
//! on concurrent threads overlaps, so nesting it under the caller would
//! double-count the join wait that the caller already measures.
//!
//! ## Cost
//!
//! Disabled (the default), [`scope`] is one relaxed atomic load.
//! Enabled, a scope costs two `Instant::now` calls and a thread-local
//! map probe (~100 ns) — instrument at batch granularity, not per
//! element.

use crate::json::{num, Doc, Obj};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Schema identifier stamped on profile JSON reports.
pub const PROFILE_SCHEMA: &str = "albireo.profile/v1";

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether profiling is on (one relaxed load; the entire disabled-path
/// cost of [`scope`]).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns profiling on or off process-wide. Toggling mid-scope is safe:
/// a guard created while enabled always pops its own frame.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Exact-merge per-phase statistics (all times wall-clock nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// Completed calls.
    pub calls: u64,
    /// Inclusive time: child scopes count.
    pub total_ns: u64,
    /// Exclusive time: `total_ns` minus time inside named child scopes.
    pub self_ns: u64,
    /// Shortest single call (`u64::MAX` when `calls == 0`).
    pub min_ns: u64,
    /// Longest single call.
    pub max_ns: u64,
}

impl PhaseStat {
    /// The merge identity.
    pub const EMPTY: PhaseStat = PhaseStat {
        calls: 0,
        total_ns: 0,
        self_ns: 0,
        min_ns: u64::MAX,
        max_ns: 0,
    };

    fn record(&mut self, elapsed_ns: u64, child_ns: u64) {
        self.calls += 1;
        self.total_ns += elapsed_ns;
        self.self_ns += elapsed_ns.saturating_sub(child_ns);
        self.min_ns = self.min_ns.min(elapsed_ns);
        self.max_ns = self.max_ns.max(elapsed_ns);
    }

    /// Exact merge: counts and times add, extrema take extrema.
    /// Associative and commutative, so flush order never changes the
    /// aggregate.
    pub fn merge_from(&mut self, other: &PhaseStat) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

struct Node {
    name: &'static str,
    parent: Option<usize>,
    children: Vec<usize>,
    stat: PhaseStat,
}

struct Frame {
    node: usize,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct ThreadProfile {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    stack: Vec<Frame>,
}

impl ThreadProfile {
    fn enter(&mut self, name: &'static str) {
        let parent = self.stack.last().map(|f| f.node);
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        let node = match siblings.iter().find(|&&i| self.nodes[i].name == name) {
            Some(&i) => i,
            None => {
                let i = self.nodes.len();
                self.nodes.push(Node {
                    name,
                    parent,
                    children: Vec::new(),
                    stat: PhaseStat::EMPTY,
                });
                match parent {
                    Some(p) => self.nodes[p].children.push(i),
                    None => self.roots.push(i),
                }
                i
            }
        };
        self.stack.push(Frame {
            node,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    fn exit(&mut self) {
        let frame = self.stack.pop().expect("profile scope stack underflow");
        let elapsed = frame.start.elapsed().as_nanos() as u64;
        self.nodes[frame.node].stat.record(elapsed, frame.child_ns);
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += elapsed,
            // Outermost scope closed: publish eagerly. `thread::scope`
            // unblocks when a worker's closure returns, which can be
            // *before* the worker's TLS destructors run, so waiting for
            // the thread-exit flush would race the spawner's
            // `take_report`.
            None => self.flush(),
        }
    }

    fn path(&self, node: usize) -> String {
        let mut names = vec![self.nodes[node].name];
        let mut cur = self.nodes[node].parent;
        while let Some(p) = cur {
            names.push(self.nodes[p].name);
            cur = self.nodes[p].parent;
        }
        names.reverse();
        names.join("/")
    }

    /// Folds every completed call into the global map and zeroes the
    /// local stats (tree shape and any open frames are kept, so a
    /// mid-run flush on the owning thread is safe).
    fn flush(&mut self) {
        if self.nodes.iter().all(|n| n.stat.calls == 0) {
            return;
        }
        let mut global = flushed().lock().expect("profile flush lock");
        for i in 0..self.nodes.len() {
            if self.nodes[i].stat.calls == 0 {
                continue;
            }
            let path = self.path(i);
            global
                .entry(path)
                .or_insert(PhaseStat::EMPTY)
                .merge_from(&self.nodes[i].stat);
            self.nodes[i].stat = PhaseStat::EMPTY;
        }
    }
}

fn flushed() -> &'static Mutex<BTreeMap<String, PhaseStat>> {
    static FLUSHED: OnceLock<Mutex<BTreeMap<String, PhaseStat>>> = OnceLock::new();
    FLUSHED.get_or_init(|| Mutex::new(BTreeMap::new()))
}

struct LocalProfile(RefCell<ThreadProfile>);

impl Drop for LocalProfile {
    fn drop(&mut self) {
        self.0.get_mut().flush();
    }
}

thread_local! {
    static LOCAL: LocalProfile = LocalProfile(RefCell::new(ThreadProfile::default()));
}

/// RAII guard for one phase; created by [`scope`], credits the elapsed
/// wall time on drop.
#[must_use = "a profile scope measures until dropped"]
pub struct Scope {
    armed: bool,
}

/// Opens the named phase on the calling thread (no-op guard when
/// profiling is disabled). `name` must not contain `/` — paths join
/// names with it.
#[inline]
pub fn scope(name: &'static str) -> Scope {
    if !enabled() {
        return Scope { armed: false };
    }
    debug_assert!(!name.contains('/'), "phase names must not contain '/'");
    LOCAL.with(|local| local.0.borrow_mut().enter(name));
    Scope { armed: true }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if self.armed {
            LOCAL.with(|local| local.0.borrow_mut().exit());
        }
    }
}

/// Clears all accumulated profile state: the global map and the calling
/// thread's local tree. Other live threads' unflushed stats survive in
/// their thread-locals; in this workspace workers are `thread::scope`d
/// and have exited by the time a driver resets.
pub fn reset() {
    LOCAL.with(|local| {
        let mut tp = local.0.borrow_mut();
        let open = tp.stack.len();
        assert_eq!(open, 0, "profile::reset with {open} open scopes");
        *tp = ThreadProfile::default();
    });
    flushed().lock().expect("profile flush lock").clear();
}

/// Flushes the calling thread and drains the global aggregate into a
/// [`ProfileReport`], leaving the profiler empty for the next run.
pub fn take_report() -> ProfileReport {
    LOCAL.with(|local| local.0.borrow_mut().flush());
    let mut global = flushed().lock().expect("profile flush lock");
    let phases: Vec<(String, PhaseStat)> = std::mem::take(&mut *global).into_iter().collect();
    ProfileReport { phases }
}

/// An aggregated wall-clock profile: one [`PhaseStat`] per phase path,
/// path-ordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// `(path, stat)` per phase, sorted by path.
    pub phases: Vec<(String, PhaseStat)>,
}

impl ProfileReport {
    /// The stat recorded under `path`, if any.
    pub fn get(&self, path: &str) -> Option<&PhaseStat> {
        self.phases
            .binary_search_by(|(p, _)| p.as_str().cmp(path))
            .ok()
            .map(|i| &self.phases[i].1)
    }

    /// Root phases: paths without a `/`.
    pub fn roots(&self) -> impl Iterator<Item = &(String, PhaseStat)> {
        self.phases.iter().filter(|(p, _)| !p.contains('/'))
    }

    /// Fraction of a root's inclusive time spent inside *named child
    /// phases*: `1 - self/total`. `None` if the root is absent or
    /// recorded no time.
    pub fn coverage(&self, root: &str) -> Option<f64> {
        let stat = self.get(root)?;
        (stat.total_ns > 0).then(|| 1.0 - stat.self_ns as f64 / stat.total_ns as f64)
    }

    /// Overall attribution: across every root phase, the fraction of
    /// measured wall time credited to a more specific named phase
    /// (`1 - Σ root self / Σ root total`). The acceptance metric for
    /// "≥90% of wall time lands in named phases".
    pub fn attributed_fraction(&self) -> f64 {
        let (mut total, mut own) = (0u64, 0u64);
        for (_, stat) in self.roots() {
            total += stat.total_ns;
            own += stat.self_ns;
        }
        if total == 0 {
            0.0
        } else {
            1.0 - own as f64 / total as f64
        }
    }

    /// `albireo.profile/v1` JSON: a root summary with per-root
    /// coverage, then the flat path-keyed phase table (`perf-diff`
    /// matches phases by `path`).
    pub fn to_json(&self) -> String {
        Doc::new()
            .field("schema", PROFILE_SCHEMA)
            .field("attributed_fraction", num(self.attributed_fraction()))
            .rows(
                "roots",
                self.roots().map(|(path, stat)| {
                    Obj::new()
                        .field("name", path)
                        .field("total_ns", stat.total_ns)
                        .field("self_ns", stat.self_ns)
                        .field("coverage", num(self.coverage(path).unwrap_or(0.0)))
                }),
            )
            .rows(
                "phases",
                self.phases.iter().map(|(path, stat)| {
                    Obj::new()
                        .field("path", path)
                        .field("calls", stat.calls)
                        .field("total_ns", stat.total_ns)
                        .field("self_ns", stat.self_ns)
                        .field("min_ns", if stat.calls == 0 { 0 } else { stat.min_ns })
                        .field("max_ns", stat.max_ns)
                }),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The profiler is process-global state; tests that enable it must
    /// serialize (same pattern as the parallel crate's obs tests).
    fn profile_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn spin_ns(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disabled_scope_records_nothing() {
        let _guard = profile_lock();
        reset();
        {
            let _s = scope("off");
        }
        assert!(take_report().phases.is_empty());
    }

    #[test]
    fn nested_scopes_split_self_and_total() {
        let _guard = profile_lock();
        reset();
        set_enabled(true);
        {
            let _outer = scope("outer");
            spin_ns(200_000);
            for _ in 0..2 {
                let _inner = scope("inner");
                spin_ns(200_000);
            }
        }
        set_enabled(false);
        let report = take_report();
        let outer = report.get("outer").expect("outer phase");
        let inner = report.get("outer/inner").expect("inner phase");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 2);
        assert!(inner.total_ns >= 400_000);
        assert!(outer.total_ns >= inner.total_ns);
        // Outer self time excludes the inner scopes but keeps its spin.
        assert!(outer.self_ns >= 150_000);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns + 100_000);
        assert!(inner.min_ns <= inner.max_ns);
        assert!(report.coverage("outer").unwrap() > 0.0);
    }

    #[test]
    fn worker_threads_flush_on_exit_and_merge_exactly() {
        let _guard = profile_lock();
        reset();
        set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _c = scope("chunk");
                    spin_ns(50_000);
                });
            }
        });
        set_enabled(false);
        let report = take_report();
        let chunk = report.get("chunk").expect("chunk phase");
        assert_eq!(chunk.calls, 4);
        assert!(chunk.total_ns >= 4 * 50_000);
        assert!(chunk.min_ns <= chunk.max_ns);
        assert!(chunk.max_ns <= chunk.total_ns);
    }

    #[test]
    fn attribution_counts_child_coverage_per_root() {
        let _guard = profile_lock();
        reset();
        set_enabled(true);
        {
            let _root = scope("root");
            let _child = scope("child");
            spin_ns(500_000);
        }
        set_enabled(false);
        let report = take_report();
        // Nearly all of root's time is inside the named child.
        assert!(report.attributed_fraction() > 0.9);
        assert_eq!(report.roots().count(), 1);
    }

    #[test]
    fn merge_is_exact_and_identity_holds() {
        let mut a = PhaseStat::EMPTY;
        a.record(100, 40);
        let mut b = PhaseStat::EMPTY;
        b.record(50, 0);
        let mut ab = a;
        ab.merge_from(&b);
        let mut ba = b;
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.calls, 2);
        assert_eq!(ab.total_ns, 150);
        assert_eq!(ab.self_ns, 110);
        assert_eq!(ab.min_ns, 50);
        assert_eq!(ab.max_ns, 100);
        let mut with_empty = a;
        with_empty.merge_from(&PhaseStat::EMPTY);
        assert_eq!(with_empty, a);
    }

    #[test]
    fn report_json_is_schema_versioned_and_balanced() {
        let _guard = profile_lock();
        reset();
        set_enabled(true);
        {
            let _s = scope("solo");
            spin_ns(10_000);
        }
        set_enabled(false);
        let json = take_report().to_json();
        assert!(json.contains("\"schema\": \"albireo.profile/v1\""));
        assert!(json.contains("\"path\": \"solo\""));
        assert!(json.contains("\"attributed_fraction\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Empty report still renders valid JSON.
        let empty = take_report().to_json();
        assert!(empty.contains("\"phases\": [\n  ]"));
        assert_eq!(empty.matches('{').count(), empty.matches('}').count());
    }
}
