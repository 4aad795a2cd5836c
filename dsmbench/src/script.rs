//! Seeded workload scripts. Each is a pure function of its parameters
//! and seed; the system under test only ever sees the drawn script.

use memcore::{Location, Word};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Bytes per value the threaded and TCP workloads write.
pub const PAYLOAD_BYTES: usize = 64;

/// One scripted operation: which node issues it, where, and whether it
/// reads (`true`) or writes pool value `i % pool.len()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// Issuing node.
    pub node: u32,
    /// Location read or written.
    pub loc: Location,
    /// Read (`true`) or write.
    pub read: bool,
}

/// A cluster-wide op sequence over a pool of payload values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MixedScript {
    /// The values writes draw from: step `i` writes `pool[i % 64]`.
    pub pool: Vec<Vec<u8>>,
    /// The op sequence, in issue order.
    pub steps: Vec<Step>,
}

impl MixedScript {
    /// Draws `len` steps: node and location uniform, reads with
    /// probability `read_pct`%. `salt` keeps workloads that share a seed
    /// from sharing a script.
    #[must_use]
    pub fn draw(
        nodes: u32,
        locations: u32,
        len: usize,
        read_pct: u32,
        seed: u64,
        salt: u64,
    ) -> Self {
        Self::draw_with(nodes, locations, len, read_pct, seed, salt, None)
    }

    /// [`MixedScript::draw`], except that with `owners` (the owner of each
    /// location) every op targets a location its node does not own, drawn
    /// uniformly from those.
    #[must_use]
    pub fn draw_with(
        nodes: u32,
        locations: u32,
        len: usize,
        read_pct: u32,
        seed: u64,
        salt: u64,
        owners: Option<&[u32]>,
    ) -> Self {
        assert!(nodes > 0 && locations > 0 && read_pct <= 100);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ salt);
        let pool = (0..64)
            .map(|_| {
                (0..PAYLOAD_BYTES)
                    .map(|_| rng.gen_range(0..=255u32) as u8)
                    .collect()
            })
            .collect();
        let foreign: Vec<Vec<u32>> = (0..nodes)
            .map(|n| match owners {
                Some(o) => (0..locations).filter(|&l| o[l as usize] != n).collect(),
                None => (0..locations).collect(),
            })
            .collect();
        assert!(
            foreign.iter().all(|f| !f.is_empty()),
            "every node needs a location to target"
        );
        let steps = (0..len)
            .map(|_| {
                let node = rng.gen_range(0..nodes);
                let pick = &foreign[node as usize];
                Step {
                    node,
                    loc: Location::new(pick[rng.gen_range(0..pick.len() as u32) as usize]),
                    read: rng.gen_range(0..100u32) < read_pct,
                }
            })
            .collect();
        MixedScript { pool, steps }
    }

    /// The value step `i` writes.
    #[must_use]
    pub fn value(&self, i: usize) -> &Vec<u8> {
        &self.pool[i % self.pool.len()]
    }
}

/// One simulated node's op list for the `certify` workload.
#[derive(Clone, Debug, PartialEq)]
pub enum SimStep {
    /// Read a location.
    Read(Location),
    /// Write a unique tag to a location.
    Write(Location, Word),
}

/// Draws `per_node` ops for each of `nodes` simulated nodes: location
/// uniform, writes with probability `write_pct`%, each write's value a
/// tag unique across the history.
#[must_use]
pub fn sim_script(
    nodes: u32,
    locations: u32,
    per_node: usize,
    write_pct: u32,
    seed: u64,
) -> Vec<Vec<SimStep>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xCE27_1F1E);
    (0..nodes)
        .map(|node| {
            (0..per_node)
                .map(|i| {
                    let loc = Location::new(rng.gen_range(0..locations));
                    if rng.gen_range(0..100u32) < write_pct {
                        SimStep::Write(loc, Word::Int(i64::from(node) << 32 | i as i64))
                    } else {
                        SimStep::Read(loc)
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_scripts_repeat_per_seed_and_differ_across_seeds() {
        let a = MixedScript::draw(4, 64, 4096, 70, 7, 1);
        assert_eq!(a, MixedScript::draw(4, 64, 4096, 70, 7, 1));
        assert_ne!(a.steps, MixedScript::draw(4, 64, 4096, 70, 8, 1).steps);
        assert_ne!(a.steps, MixedScript::draw(4, 64, 4096, 70, 7, 2).steps);
        assert!(a.pool.iter().all(|v| v.len() == PAYLOAD_BYTES));
        let reads = a.steps.iter().filter(|s| s.read).count();
        assert!((2700..=3050).contains(&reads), "reads = {reads}");
        assert!(a.steps.iter().all(|s| s.node < 4 && s.loc.index() < 64));
    }

    #[test]
    fn peer_only_scripts_never_target_an_owned_location() {
        let owners: Vec<u32> = (0..64).map(|l| l % 2).collect();
        let a = MixedScript::draw_with(2, 64, 4096, 20, 9, 1, Some(&owners));
        assert_eq!(
            a,
            MixedScript::draw_with(2, 64, 4096, 20, 9, 1, Some(&owners))
        );
        assert!(a.steps.iter().all(|s| owners[s.loc.index()] != s.node));
        // Both nodes issue, and every foreign location is reachable.
        let mut seen: Vec<usize> = a.steps.iter().map(|s| s.loc.index()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn sim_scripts_repeat_per_seed_with_unique_write_tags() {
        let a = sim_script(8, 64, 500, 40, 3);
        assert_eq!(a, sim_script(8, 64, 500, 40, 3));
        assert_ne!(a, sim_script(8, 64, 500, 40, 4));
        let mut tags: Vec<i64> = a
            .iter()
            .flatten()
            .filter_map(|s| match s {
                SimStep::Write(_, Word::Int(t)) => Some(*t),
                _ => None,
            })
            .collect();
        let writes = tags.len();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), writes);
        assert!((1400..=1800).contains(&writes), "writes = {writes}");
    }
}
