//! Memory subsystem model.
//!
//! The paper models its 7 nm FinFET SRAM with PCACTI and reports only the
//! derived quantities: the 256 kB global buffer footprint (0.59×0.34 mm²),
//! the 16 kB per-PLCG kernel cache footprint (0.092×0.085 mm²), and the
//! total cache power (0.03 W for Albireo-9 in Table III). This module takes
//! those reported values as calibration anchors and adds a per-access
//! dynamic-energy model for the ablation and dataflow studies; the
//! substitution is recorded in DESIGN.md.

use crate::config::ChipConfig;

/// SRAM leakage/area/access model calibrated to the paper's PCACTI results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Global buffer leakage + refresh power, W.
    pub global_buffer_w: f64,
    /// Per-PLCG kernel cache leakage power, W.
    pub plcg_cache_w: f64,
    /// Global buffer footprint, m².
    pub global_buffer_area_m2: f64,
    /// Kernel cache footprint, m².
    pub plcg_cache_area_m2: f64,
    /// Dynamic energy per byte accessed in the global buffer, J
    /// (7 nm SRAM-class value, ~0.2 pJ/byte).
    pub buffer_access_j_per_byte: f64,
}

impl MemoryModel {
    /// The paper-calibrated model: 9 caches + 1 buffer total 0.03 W static.
    pub fn paper() -> MemoryModel {
        MemoryModel {
            global_buffer_w: 3.3e-3,
            plcg_cache_w: 2.966e-3,
            global_buffer_area_m2: 0.59e-3 * 0.34e-3,
            plcg_cache_area_m2: 0.092e-3 * 0.085e-3,
            buffer_access_j_per_byte: 0.2e-12,
        }
    }

    /// Static memory power for a chip configuration, W.
    pub fn static_power_w(&self, chip: &ChipConfig) -> f64 {
        self.global_buffer_w + self.plcg_cache_w * chip.ng as f64
    }

    /// Total memory area for a chip configuration, m².
    pub fn area_m2(&self, chip: &ChipConfig) -> f64 {
        self.global_buffer_area_m2 + self.plcg_cache_area_m2 * chip.ng as f64
    }

    /// Dynamic energy of moving `bytes` through the global buffer, J.
    pub fn buffer_access_energy_j(&self, bytes: u64) -> f64 {
        bytes as f64 * self.buffer_access_j_per_byte
    }
}

impl Default for MemoryModel {
    fn default() -> MemoryModel {
        MemoryModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn albireo_9_static_power_matches_table_iii() {
        let m = MemoryModel::paper();
        let p = m.static_power_w(&ChipConfig::albireo_9());
        assert!((p - 0.03).abs() < 1e-3, "p = {p}");
    }

    #[test]
    fn area_matches_reported_footprints() {
        let m = MemoryModel::paper();
        let a = m.area_m2(&ChipConfig::albireo_9());
        // 0.2006 mm² + 9 × 0.00782 mm² ≈ 0.271 mm².
        assert!((a * 1e6 - 0.271).abs() < 0.005, "a = {} mm²", a * 1e6);
    }

    #[test]
    fn more_groups_more_power() {
        let m = MemoryModel::paper();
        assert!(
            m.static_power_w(&ChipConfig::albireo_27())
                > m.static_power_w(&ChipConfig::albireo_9())
        );
    }

    #[test]
    fn access_energy_scales_with_bytes() {
        let m = MemoryModel::paper();
        assert_eq!(
            m.buffer_access_energy_j(1000),
            1000.0 * m.buffer_access_j_per_byte
        );
    }
}
