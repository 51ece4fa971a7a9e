//! The ranked plan: the winning fleet, the full (energy, SLO) frontier,
//! and its text / CSV / JSON renderings.
//!
//! Conventions follow the runtime's serving report: the JSON renders
//! through the workspace writer [`albireo_obs::json`] (floats as
//! `{:.6}`, shared with the CSV) against a versioned schema string
//! (`albireo.plan/v1`), and the digest is an order-sensitive fold
//! (`d.rotate_left(13) ^ bits` here, distinct from the serving report's
//! `rotl 7` so the two digest families cannot be confused).
//!
//! **Mode independence.** The JSON, CSV, and digest cover only fields
//! that are identical between pruned and exhaustive searches: the spec,
//! the candidate count, and the *feasible* frontier (pruning never
//! changes which candidates are feasible — see the search module's
//! soundness notes — and infeasible-but-scored candidates are excluded
//! precisely because the two modes score different infeasible sets).
//! Search counters (`screened`, `pruned`, `scored`) appear only in the
//! text rendering and obs metrics.

use albireo_obs::json::{num, Doc, Obj};

/// One scored candidate's aggregate over its replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateOutcome {
    /// Comma-joined fleet spec (machine-usable with `--fleet`).
    pub fleet_spec: String,
    /// Human fleet label (`albireo_9+albireo_27` style).
    pub fleet_label: String,
    /// Fleet size.
    pub chips: usize,
    /// Batching-policy label.
    pub policy_label: String,
    /// Autoscale-policy label.
    pub autoscale_label: String,
    /// Worst 99th-percentile latency across replicas, ms.
    pub p99_ms: f64,
    /// Worst shed rate across replicas.
    pub shed_rate: f64,
    /// Worst per-class SLO-attainment floor across replicas (1.0 when
    /// the workload declares no SLO classes).
    pub attainment: f64,
    /// Mean total energy across replicas, J.
    pub energy_total_j: f64,
    /// Mean energy per completed request across replicas, J — the
    /// ranking objective.
    pub energy_per_request_j: f64,
    /// Mean goodput across replicas, requests/s.
    pub goodput_rps: f64,
    /// Elastic spin-ups summed over chips and replicas.
    pub spin_ups: u64,
    /// Whether the candidate meets the SLO on every replica.
    pub feasible: bool,
    /// Pareto-optimal in (energy/request, p99) among feasible
    /// candidates.
    pub pareto: bool,
    /// Fold of the replica run digests (order-sensitive, `rotl 13`).
    pub digest: u64,
}

impl CandidateOutcome {
    /// `energy_per_request_j` in millijoules (the headline unit).
    pub fn energy_per_request_mj(&self) -> f64 {
        self.energy_per_request_j * 1e3
    }
}

/// The finished search: spec echo, search counters, and the ranked
/// feasible frontier (ascending energy per request; the winner is rank
/// 1 / index 0).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// Canonical spec line ([`crate::PlanSpec`]'s `Display`).
    pub spec_line: String,
    /// Canonical SLO line.
    pub slo_line: String,
    /// Whether screening was skipped (every candidate scored).
    pub exhaustive: bool,
    /// Whether the search itself disabled screening because the screen
    /// length was too close to the scoring length to pay for itself
    /// (text rendering only — the JSON stays mode-independent).
    pub screen_auto_disabled: bool,
    /// Candidates enumerated.
    pub candidates_total: usize,
    /// Candidates screened (0 in exhaustive mode).
    pub screened: usize,
    /// Candidates pruned by screening.
    pub pruned: usize,
    /// Candidates fully scored.
    pub scored: usize,
    /// Scoring replicas per candidate.
    pub replicas: usize,
    /// Feasible candidates, ranked by mean energy per request.
    pub frontier: Vec<CandidateOutcome>,
}

fn fold(digest: u64, bits: u64) -> u64 {
    digest.rotate_left(13) ^ bits
}

impl PlanReport {
    /// The minimum-energy feasible candidate, if any exists.
    pub fn winner(&self) -> Option<&CandidateOutcome> {
        self.frontier.first()
    }

    /// Order-sensitive digest over the mode-independent plan: candidate
    /// count, frontier length, then every frontier entry's run digest
    /// and ranking metrics. Byte-identical JSON ⇒ equal digests, and
    /// the digest is cheap to compare across thread counts or search
    /// modes.
    pub fn digest(&self) -> u64 {
        let mut d = 0xF1EE_7A11_u64;
        d = fold(d, self.candidates_total as u64);
        d = fold(d, self.frontier.len() as u64);
        for entry in &self.frontier {
            d = fold(d, entry.digest);
            d = fold(d, entry.energy_per_request_j.to_bits());
            d = fold(d, entry.p99_ms.to_bits());
            d = fold(d, entry.chips as u64);
        }
        d
    }

    /// `digest()` as `0x`-prefixed hex.
    pub fn digest_hex(&self) -> String {
        format!("0x{:016x}", self.digest())
    }

    fn entry_json(entry: &CandidateOutcome, rank: usize) -> Obj {
        Obj::new()
            .field("rank", rank)
            .field("fleet", &entry.fleet_spec)
            .field("fleet_label", &entry.fleet_label)
            .field("chips", entry.chips)
            .field("policy", &entry.policy_label)
            .field("autoscale", &entry.autoscale_label)
            .field("p99_ms", num(entry.p99_ms))
            .field("shed_rate", num(entry.shed_rate))
            .field("attainment", num(entry.attainment))
            .field("energy_total_j", num(entry.energy_total_j))
            .field("energy_per_request_mj", num(entry.energy_per_request_mj()))
            .field("goodput_rps", num(entry.goodput_rps))
            .field("spin_ups", entry.spin_ups)
            .field("pareto", entry.pareto)
            .field("digest", format!("0x{:016x}", entry.digest))
    }

    /// The machine-readable plan, schema `albireo.plan/v1`. Contains
    /// only mode-independent fields (see module docs), so pruned and
    /// exhaustive searches of the same spec emit identical bytes.
    pub fn to_json(&self) -> String {
        Doc::new()
            .field("schema", "albireo.plan/v1")
            .field("spec", &self.spec_line)
            .field("slo", &self.slo_line)
            .field("candidates", self.candidates_total)
            .field("replicas", self.replicas)
            .field("feasible", self.frontier.len())
            .field("winner", self.winner().map(|w| Self::entry_json(w, 1)))
            .rows(
                "frontier",
                self.frontier
                    .iter()
                    .enumerate()
                    .map(|(i, e)| Self::entry_json(e, i + 1)),
            )
            .field("digest", self.digest_hex())
            .finish()
            + "\n"
    }

    /// The frontier CSV header.
    pub fn csv_header() -> &'static str {
        "rank,fleet,chips,policy,autoscale,p99_ms,shed_rate,attainment,\
         energy_total_j,energy_per_request_mj,goodput_rps,spin_ups,pareto"
    }

    /// The ranked frontier as CSV (mode-independent, like the JSON).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Self::csv_header());
        out.push('\n');
        for (i, e) in self.frontier.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                i + 1,
                e.fleet_label,
                e.chips,
                e.policy_label,
                e.autoscale_label,
                num(e.p99_ms),
                num(e.shed_rate),
                num(e.attainment),
                num(e.energy_total_j),
                num(e.energy_per_request_mj()),
                num(e.goodput_rps),
                e.spin_ups,
                e.pareto,
            ));
        }
        out
    }

    /// The human-oriented rendering: search counters (mode-dependent —
    /// this is the one place pruning statistics appear) plus the ranked
    /// frontier table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("plan: {}\n", self.spec_line));
        if self.exhaustive {
            out.push_str(&format!(
                "searched {} candidates exhaustively{} ({} scored x {} replica(s)) — {} feasible\n",
                self.candidates_total,
                if self.screen_auto_disabled {
                    " (screening auto-disabled: screen > requests/4)"
                } else {
                    ""
                },
                self.scored,
                self.replicas,
                self.frontier.len()
            ));
        } else {
            out.push_str(&format!(
                "searched {} candidates ({} screened, {} pruned, {} scored x {} replica(s)) — {} feasible\n",
                self.candidates_total,
                self.screened,
                self.pruned,
                self.scored,
                self.replicas,
                self.frontier.len()
            ));
        }
        match self.winner() {
            None => out.push_str(&format!(
                "no feasible fleet meets {} — raise max-chips, widen the chip/policy lists, \
                 or relax the SLO\n",
                self.slo_line
            )),
            Some(w) => {
                out.push_str(&format!(
                    "winner: {} ({} chip(s), policy {}, autoscale {}) — {:.3} mJ/request, \
                     p99 {:.4} ms vs {}\n",
                    w.fleet_label,
                    w.chips,
                    w.policy_label,
                    w.autoscale_label,
                    w.energy_per_request_mj(),
                    w.p99_ms,
                    self.slo_line
                ));
                out.push_str(&format!(
                    "{:<5} {:<28} {:<16} {:<20} {:>10} {:>9} {:>8} {:>10} {:>9} {:>7}\n",
                    "rank",
                    "fleet",
                    "policy",
                    "autoscale",
                    "mJ/req",
                    "p99 ms",
                    "shed %",
                    "attain",
                    "spin-ups",
                    "pareto"
                ));
                for (i, e) in self.frontier.iter().enumerate() {
                    out.push_str(&format!(
                        "{:<5} {:<28} {:<16} {:<20} {:>10.3} {:>9.4} {:>8.2} {:>10.4} {:>9} {:>7}\n",
                        i + 1,
                        e.fleet_label,
                        e.policy_label,
                        e.autoscale_label,
                        e.energy_per_request_mj(),
                        e.p99_ms,
                        e.shed_rate * 100.0,
                        e.attainment,
                        e.spin_ups,
                        if e.pareto { "*" } else { "" }
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(energy_j: f64, p99_ms: f64, pareto: bool) -> CandidateOutcome {
        CandidateOutcome {
            fleet_spec: "albireo_9:C".to_string(),
            fleet_label: "albireo_9_C".to_string(),
            chips: 1,
            policy_label: "immediate".to_string(),
            autoscale_label: "none".to_string(),
            p99_ms,
            shed_rate: 0.0,
            attainment: 1.0,
            energy_total_j: energy_j * 100.0,
            energy_per_request_j: energy_j,
            goodput_rps: 1000.0,
            spin_ups: 0,
            feasible: true,
            pareto,
            digest: 0xDEAD_BEEF,
        }
    }

    fn report(frontier: Vec<CandidateOutcome>) -> PlanReport {
        PlanReport {
            spec_line: "rate=1000;slo=p99<5ms;chips=albireo_9:C".to_string(),
            slo_line: "p99<5ms".to_string(),
            exhaustive: false,
            screen_auto_disabled: false,
            candidates_total: 3,
            screened: 3,
            pruned: 1,
            scored: 2,
            replicas: 1,
            frontier,
        }
    }

    #[test]
    fn json_is_mode_independent_and_carries_the_digest() {
        let mut pruned = report(vec![entry(0.002, 1.5, true)]);
        let mut exhaustive = pruned.clone();
        exhaustive.exhaustive = true;
        exhaustive.screened = 0;
        exhaustive.pruned = 0;
        exhaustive.scored = 3;
        assert_eq!(pruned.to_json(), exhaustive.to_json());
        assert_eq!(pruned.to_csv(), exhaustive.to_csv());
        assert_eq!(pruned.digest(), exhaustive.digest());
        assert!(pruned.to_json().contains("\"schema\": \"albireo.plan/v1\""));
        assert!(pruned.to_json().contains(&pruned.digest_hex()));
        // The digest reacts to frontier changes.
        exhaustive.frontier.push(entry(0.003, 2.0, false));
        assert_ne!(pruned.digest(), exhaustive.digest());
        // But the text renderings differ (search counters are visible).
        pruned.exhaustive = false;
        assert!(pruned.render_text().contains("pruned"));
        assert!(exhaustive.render_text().contains("exhaustively"));
    }

    #[test]
    fn empty_frontier_reports_no_winner() {
        let r = report(Vec::new());
        assert!(r.winner().is_none());
        assert!(r.to_json().contains("\"winner\": null"));
        assert!(r.render_text().contains("no feasible fleet"));
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines, vec![PlanReport::csv_header()]);
    }

    #[test]
    fn csv_rows_follow_the_frontier_ranking() {
        let r = report(vec![entry(0.002, 1.5, true), entry(0.004, 1.0, true)]);
        let csv = r.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), 2);
        // The fleet column is the `+`-joined label: the spec form can
        // contain commas, which would break the CSV.
        assert!(rows[0].starts_with("1,albireo_9_C,1,immediate,none,"));
        assert!(!rows[0].contains("albireo_9:C"));
        assert!(rows[1].starts_with("2,"));
    }
}
