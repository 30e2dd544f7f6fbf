//! Inputs generated from the workload seed.
//!
//! The programs under test receive only what is generated here: the
//! daemon's query mix, the cell indices it asks for, the simulation and
//! coordinator seeds, and the fault-plan positions. The same seed always
//! yields the same inputs.

use resilience::{first_order_overhead, grid_spec, reference_scenarios, SweepSpec, Theorem};
use resilience_service::protocol::{Query, Reply};
use serde::Serialize;
use std::collections::HashSet;

/// SplitMix64: a tiny, well-mixed generator for input selection.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one workload seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

/// Grid size the daemon's `sweep_cell` queries address: the service smoke
/// client's.
pub const SERVE_GRID: usize = 10;

/// One query of the mix and the reply a direct library call gives for it.
#[derive(Debug, Clone)]
pub struct MixQuery {
    /// The query as the daemon receives it.
    pub query: Query,
    /// The reply the library computes for it.
    pub reply: Reply,
}

/// A seeded mix with the shape of the service smoke client's (`query_at`
/// in resilience-service's `service-client`): positions rotate through
/// `optimum`, `overhead` and `sweep_cell`, a third each; optimum and
/// overhead queries take a reference scenario under any of the four
/// theorems, and `sweep_cell` queries a cell of the 10³ grid. Where that
/// client steps through scenarios, theorems and cells arithmetically, this
/// mix draws each uniformly from the seed. No repeat share is imposed:
/// keys repeat because the key space is small, and [`repeat_share`]
/// reports how often. Every reply is computed by the library directly, as
/// the smoke client does.
pub fn query_mix(seed: u64, stream: u64, n: usize) -> Vec<MixQuery> {
    let mut rng = Rng::new(seed, stream);
    let grid = grid_spec(SERVE_GRID);
    let scenarios = reference_scenarios();
    (0..n)
        .map(|i| {
            if i % 3 == 2 {
                return sweep_cell(&grid, SERVE_GRID, rng.below(grid.len() as u64));
            }
            let s = &scenarios[rng.below(scenarios.len() as u64) as usize];
            let (platform, costs) = (s.platform, s.costs);
            let theorem = Theorem::ALL[rng.below(Theorem::ALL.len() as u64) as usize];
            if i % 3 == 0 {
                return MixQuery {
                    query: Query::Optimum {
                        platform,
                        costs,
                        theorem,
                    },
                    reply: Reply::Optimum(theorem.optimize(&platform, &costs)),
                };
            }
            let pattern = theorem.optimize(&platform, &costs).pattern;
            let h = first_order_overhead(&pattern, &platform, &costs);
            MixQuery {
                query: Query::Overhead {
                    pattern,
                    platform,
                    costs,
                },
                reply: Reply::Overhead(h),
            }
        })
        .collect()
}

/// Share of the mix's queries that repeat an earlier query exactly.
pub fn repeat_share(mix: &[MixQuery]) -> f64 {
    let mut seen = HashSet::new();
    let repeats = mix
        .iter()
        .filter(|q| !seen.insert(q.query.to_json_string()))
        .count();
    repeats as f64 / mix.len().max(1) as f64
}

/// `count` `sweep_cell` queries at seeded indices of `grid_spec(grid_size)`:
/// the batcher and codec layers' input on workloads that never talk to the
/// daemon.
pub fn sweep_cell_mix(seed: u64, stream: u64, grid_size: usize, count: usize) -> Vec<MixQuery> {
    let mut rng = Rng::new(seed, stream);
    let grid = grid_spec(grid_size);
    (0..count)
        .map(|_| sweep_cell(&grid, grid_size, rng.below(grid.len() as u64)))
        .collect()
}

fn sweep_cell(grid: &SweepSpec, grid_size: usize, index: u64) -> MixQuery {
    let cell = grid.cell_at(index as usize);
    MixQuery {
        query: Query::SweepCell {
            grid_size: grid_size as u64,
            index,
        },
        reply: Reply::SweepCell {
            index,
            name: cell.name.to_string(),
            theorem: cell.theorem,
            optimum: cell.theorem.optimize(&cell.platform, &cell.costs),
        },
    }
}

/// The orchestrate workload's injected faults: one fail-stop `kill` and one
/// silent `corrupt`, in two distinct units of the first half of the slice
/// (so their retries overlap the remaining units instead of extending the
/// tail), at seeded line positions. The kill lands in the middle fifth of
/// its unit so the wasted work, and with it the run time, varies little
/// from seed to seed. Returns the `--fault-plan` string.
pub fn fault_plan(seed: u64, units: usize, lines_per_unit: u64) -> String {
    let mut rng = Rng::new(seed, 3);
    let half = (units / 2).max(2) as u64;
    let kill_unit = rng.below(half);
    let corrupt_unit = (kill_unit + 1 + rng.below(half - 1)) % half;
    let kill_after = rng.range(lines_per_unit * 2 / 5, lines_per_unit * 3 / 5);
    let corrupt_line = rng.range(1, lines_per_unit - 1);
    format!("kill:{kill_unit}:{kill_after};corrupt:{corrupt_unit}:{corrupt_line}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a: Vec<String> = query_mix(7, 1, 50)
            .iter()
            .map(|q| format!("{:?}", q.query))
            .collect();
        let b: Vec<String> = query_mix(7, 1, 50)
            .iter()
            .map(|q| format!("{:?}", q.query))
            .collect();
        let c: Vec<String> = query_mix(8, 1, 50)
            .iter()
            .map(|q| format!("{:?}", q.query))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(fault_plan(7, 8, 1000), fault_plan(7, 8, 1000));
    }

    #[test]
    fn fault_plan_targets_two_distinct_early_units() {
        for seed in 0..200 {
            let plan = fault_plan(seed, 8, 31_250);
            let parts: Vec<Vec<&str>> = plan.split(';').map(|p| p.split(':').collect()).collect();
            assert_eq!(parts[0][0], "kill");
            assert_eq!(parts[1][0], "corrupt");
            let ku: u64 = parts[0][1].parse().expect("unit");
            let cu: u64 = parts[1][1].parse().expect("unit");
            assert!(ku < 4 && cu < 4 && ku != cu, "{plan}");
            let k: u64 = parts[0][2].parse().expect("line");
            assert!((12_500..18_750).contains(&k), "{plan}");
        }
    }

    #[test]
    fn mix_has_the_smoke_clients_shape() {
        let mix = query_mix(1, 1, 600);
        let kinds = |pred: fn(&Query) -> bool| mix.iter().filter(|q| pred(&q.query)).count();
        assert_eq!(kinds(|q| matches!(q, Query::Optimum { .. })), 200);
        assert_eq!(kinds(|q| matches!(q, Query::Overhead { .. })), 200);
        assert_eq!(kinds(|q| matches!(q, Query::SweepCell { .. })), 200);
        let reference = reference_scenarios();
        for q in &mix {
            match &q.query {
                Query::Optimum {
                    platform, costs, ..
                }
                | Query::Overhead {
                    platform, costs, ..
                } => assert!(reference
                    .iter()
                    .any(|s| s.platform == *platform && s.costs == *costs)),
                Query::SweepCell { grid_size, index } => {
                    assert_eq!(*grid_size, SERVE_GRID as u64);
                    assert!(*index < 1000);
                }
                other => panic!("unexpected query {other:?}"),
            }
        }
    }

    #[test]
    fn repeat_share_counts_exact_repeats() {
        let mix = query_mix(2, 1, 3);
        assert_eq!(repeat_share(&mix[..1]), 0.0);
        let doubled: Vec<MixQuery> = mix.iter().chain(&mix).cloned().collect();
        assert_eq!(repeat_share(&doubled), 0.5);
        assert_eq!(repeat_share(&[]), 0.0);
        // The small key space makes most of a long mix repeats.
        assert!(repeat_share(&query_mix(2, 1, 3000)) > 0.5);
    }

    #[test]
    fn sweep_cell_queries_name_their_grid_size() {
        for q in sweep_cell_mix(3, 2, 10, 20) {
            let Query::SweepCell { grid_size, index } = q.query else {
                panic!("sweep_cell mix produced {:?}", q.query);
            };
            assert_eq!(grid_size, 10);
            assert!(index < 1000);
        }
    }
}
