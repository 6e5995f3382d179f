//! The explored mapping space: targets, design points and the platform
//! cost proxy.

use scperf_core::{CostTable, Platform, ResourceId};
use scperf_kernel::Time;
use scperf_workloads::vocoder::pipeline::VocoderMapping;

/// Clock period shared by every platform resource in the sweep.
pub const CLOCK: Time = Time::ns(10);

/// RTOS overhead (cycles per channel access / timed wait) charged on the
/// sequential processors, matching the bench harness calibration.
pub const RTOS_CYCLES: f64 = 150.0;

/// Time-area weight of the hardware accelerator (§3 of the paper):
/// annotated HW time is `T_min + (T_max − T_min)·k`.
pub const HW_K: f64 = 0.5;

/// The three mapping targets explored per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Target {
    /// First processor.
    Cpu0,
    /// Second processor.
    Cpu1,
    /// Hardware accelerator (parallel resource, k = [`HW_K`]).
    Hw,
}

impl Target {
    /// All targets, in exploration order.
    pub const ALL: [Target; 3] = [Target::Cpu0, Target::Cpu1, Target::Hw];

    /// Short display name.
    pub fn label(self) -> &'static str {
        match self {
            Target::Cpu0 => "cpu0",
            Target::Cpu1 => "cpu1",
            Target::Hw => "hw",
        }
    }

    /// Relative silicon/BOM cost of instantiating this target at all.
    pub fn cost(self) -> f64 {
        match self {
            Target::Cpu0 => 1.0,
            Target::Cpu1 => 1.0,
            Target::Hw => 2.5,
        }
    }
}

/// One explored design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Per-process targets, in
    /// [`STAGE_NAMES`](scperf_workloads::vocoder::pipeline::STAGE_NAMES)
    /// order.
    pub mapping: [Target; 5],
    /// Simulated end-to-end time for the workload.
    pub latency: Time,
    /// Cost proxy ([`platform_cost`]).
    pub cost: f64,
    /// Decoded-output checksum, for validating that every evaluation —
    /// live or replayed from the cache — produced the same data.
    pub checksum: i32,
}

impl DesignPoint {
    /// Renders the mapping compactly, e.g. `cpu0/cpu0/hw/cpu1/cpu0`.
    pub fn mapping_label(&self) -> String {
        self.mapping
            .iter()
            .map(|t| t.label())
            .collect::<Vec<_>>()
            .join("/")
    }
}

/// The platform cost proxy: the summed [`Target::cost`] of every
/// *distinct* resource the mapping instantiates. Each resource is priced
/// once per platform instance — mapping all five processes onto the
/// accelerator costs one accelerator (2.5), not five.
pub fn platform_cost(mapping: &[Target; 5]) -> f64 {
    let mut cost = 0.0;
    for t in Target::ALL {
        if mapping.contains(&t) {
            cost += t.cost();
        }
    }
    cost
}

/// All 3⁵ = 243 mappings, in deterministic lexicographic
/// ([`Target::ALL`]) order. Index `i` of the returned vector is the
/// canonical *point index* used for deterministic result collection.
pub fn all_mappings() -> Vec<[Target; 5]> {
    let mut mappings = Vec::with_capacity(243);
    for a in Target::ALL {
        for b in Target::ALL {
            for c in Target::ALL {
                for d in Target::ALL {
                    for e in Target::ALL {
                        mappings.push([a, b, c, d, e]);
                    }
                }
            }
        }
    }
    mappings
}

/// Builds the explored platform — two RISC processors sharing `table`
/// and one accelerator, at the sweep's [`CLOCK`], [`RTOS_CYCLES`] and
/// [`HW_K`] — and returns it with the resource ids in [`Target::ALL`]
/// order.
pub fn build_platform(table: &CostTable) -> (Platform, [ResourceId; 3]) {
    build_platform_with(table, CLOCK, RTOS_CYCLES, HW_K)
}

/// [`build_platform`] with every resource on `clock`, `rtos_cycles` of
/// RTOS overhead on both processors and time-area weight `hw_k` on the
/// accelerator.
pub fn build_platform_with(
    table: &CostTable,
    clock: Time,
    rtos_cycles: f64,
    hw_k: f64,
) -> (Platform, [ResourceId; 3]) {
    let mut platform = Platform::new();
    let cpu0 = platform.sequential("cpu0", clock, table.clone(), rtos_cycles);
    let cpu1 = platform.sequential("cpu1", clock, table.clone(), rtos_cycles);
    let hw = platform.parallel("hw", clock, CostTable::asic_hw(), hw_k);
    (platform, [cpu0, cpu1, hw])
}

/// Resolves a mapping to concrete resource ids on `ids` (in
/// [`Target::ALL`] order).
pub fn resolve_mapping(mapping: [Target; 5], ids: [ResourceId; 3]) -> VocoderMapping {
    let pick = |t: Target| ids[t as usize];
    VocoderMapping {
        lsp: pick(mapping[0]),
        lpc_int: pick(mapping[1]),
        acb: pick(mapping[2]),
        icb: pick(mapping[3]),
        post: pick(mapping[4]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mappings_are_exhaustive_and_ordered() {
        let all = all_mappings();
        assert_eq!(all.len(), 243);
        assert_eq!(all[0], [Target::Cpu0; 5]);
        assert_eq!(all[242], [Target::Hw; 5]);
        // Lexicographic: sorted and free of duplicates.
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn platform_cost_prices_each_resource_once() {
        // Regression: a resource used by many processes is still one
        // physical instance — its cost must not scale with the number of
        // processes mapped to it.
        assert_eq!(platform_cost(&[Target::Hw; 5]), 2.5, "one accelerator");
        assert_eq!(platform_cost(&[Target::Cpu0; 5]), 1.0, "one processor");
        assert_eq!(
            platform_cost(&[
                Target::Cpu0,
                Target::Cpu1,
                Target::Hw,
                Target::Cpu0,
                Target::Cpu1,
            ]),
            4.5,
            "all three resources instantiated once each"
        );
    }

    #[test]
    fn mapping_resolution_follows_target_order() {
        let (platform, ids) = build_platform(&CostTable::risc_sw());
        assert_eq!(platform.len(), 3);
        let vm = resolve_mapping(
            [
                Target::Cpu1,
                Target::Cpu0,
                Target::Hw,
                Target::Hw,
                Target::Cpu1,
            ],
            ids,
        );
        assert_eq!(vm.lsp, ids[1]);
        assert_eq!(vm.lpc_int, ids[0]);
        assert_eq!(vm.acb, ids[2]);
        assert_eq!(vm.icb, ids[2]);
        assert_eq!(vm.post, ids[1]);
        assert_eq!(platform.resource(ids[2]).k, HW_K);
    }
}
