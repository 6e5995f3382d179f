//! Seeded input generators. Everything a workload feeds the program —
//! request lines, scenario tuples, visiting orders — comes from here,
//! from the `--seed` argument alone.
//!
//! The generators are *stratified*: a seed changes the order and the
//! parameter values, never the mix. Every serve_repeat block visits each
//! shape once, and every serve_novel block of 243 requests visits each
//! mapping once with a balanced frame count. So two seeds present the
//! same amount of work, and the spread between runs is the host's.

use scperf_dse::{all_mappings, Target};

/// SplitMix64: small, fast and good enough to shuffle inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
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

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// A seeded permutation of `0..n`, one per `block`: block `b` of a
/// stratified stream visits every item once, in this order.
pub fn block_order(seed: u64, stream: u64, block: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed ^ block.wrapping_mul(0xd6e8_feb8_6659_fd93), stream).shuffle(&mut order);
    order
}

/// One (mapping, frames) pair of the fixed serve_repeat shape set.
pub type Shape = ([Target; 5], usize);

/// serve_repeat's fixed shape set: four mappings that cover all-SW,
/// all-HW and mixed platforms, each at two frame counts.
pub fn repeat_shapes(tiny: bool) -> Vec<Shape> {
    use Target::{Cpu0 as C0, Cpu1 as C1, Hw};
    let mappings = [
        [C0, C0, C0, C0, C0],
        [C0, C1, Hw, C0, C1],
        [Hw, Hw, Hw, Hw, Hw],
        [C1, C1, C0, Hw, C0],
    ];
    let frames: &[usize] = if tiny { &[1] } else { &[1, 2] };
    mappings
        .iter()
        .flat_map(|&m| frames.iter().map(move |&f| (m, f)))
        .collect()
}

/// The platform parameters of one serve request; `None` keeps the
/// service defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Clock period in nanoseconds.
    pub clock_ns: f64,
    /// RTOS overhead per access, in cycles.
    pub rtos_cycles: f64,
    /// Accelerator time-area weight.
    pub hw_k: f64,
}

/// One generated serve request.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// Per-stage targets.
    pub mapping: [Target; 5],
    /// Frames through the pipeline.
    pub nframes: usize,
    /// Explicit platform parameters (serve_novel) or defaults.
    pub params: Option<Params>,
}

impl SimRequest {
    /// The JSON line the service receives.
    pub fn line(&self, id: &str) -> String {
        let targets: Vec<String> = self
            .mapping
            .iter()
            .map(|t| format!("\"{}\"", t.label()))
            .collect();
        let mut line = format!(
            "{{\"id\":\"{id}\",\"mapping\":[{}],\"nframes\":{}",
            targets.join(","),
            self.nframes
        );
        if let Some(p) = self.params {
            // `{:?}` prints the shortest text that parses back to the
            // same f64, so the service sees exactly these bits.
            line.push_str(&format!(
                ",\"clock_ns\":{:?},\"rtos_cycles\":{:?},\"hw_k\":{:?}",
                p.clock_ns, p.rtos_cycles, p.hw_k
            ));
        }
        line.push('}');
        line
    }
}

/// serve_repeat's request `i`: block `i / shapes` is a seeded
/// permutation of the shape set, so every shape recurs equally often.
pub fn repeat_request(seed: u64, shapes: &[Shape], i: u64) -> SimRequest {
    let n = shapes.len() as u64;
    let order = block_order(seed, 1, i / n, shapes.len());
    let (mapping, nframes) = shapes[order[(i % n) as usize]];
    SimRequest {
        mapping,
        nframes,
        params: None,
    }
}

/// Requests per serve_novel stratum: one visit of every mapping.
pub const NOVEL_BLOCK: u64 = 243;

/// The serve_novel stream that warm passes draw from; measured streams
/// count up from 0.
pub const WARM_STREAM: u64 = 999;

/// serve_novel's tuple `j` (< 65536) of stream `stream`. A stream's
/// tuple set is fixed — the seed only orders it, see [`novel_order`] —
/// so every seed checks the same results and `sim.digest` repeats. Each
/// block of 243 tuples visits every mapping once, with one and two
/// frames alternating between blocks; clock and `k` are fixed
/// pseudo-random draws. The RTOS overhead carries a sub-cycle offset
/// unique to `(stream, j)`, so no platform tuple — and therefore no
/// pool shape and no trace-cache fingerprint — repeats within a stream,
/// while the simulated work stays alike.
pub fn novel_tuple(stream: u64, j: u64, tiny: bool) -> SimRequest {
    let pos = j % NOVEL_BLOCK;
    let block = j / NOVEL_BLOCK;
    let mut rng = Rng::new(j.wrapping_mul(0x2545_f491_4f6c_dd1d), 100 + stream);
    let clock_ns = 5.0 + (rng.unit() * 10_000.0).round() / 1000.0;
    let hw_k = (rng.unit() * 1000.0).round() / 1000.0;
    SimRequest {
        mapping: all_mappings()[pos as usize],
        nframes: if tiny {
            1
        } else {
            1 + ((pos + block) % 2) as usize
        },
        params: Some(Params {
            clock_ns,
            rtos_cycles: 150.0 + (stream * 65_536 + j) as f64 / 1_048_576.0,
            hw_k,
        }),
    }
}

/// The tuple serve_novel's request `i` carries: a seeded permutation
/// within each block of `block` tuples.
pub fn novel_order(seed: u64, i: u64, block: u64) -> u64 {
    let order = block_order(seed, 2, i / block, block as usize);
    i / block * block + order[(i % block) as usize] as u64
}

/// FNV-1a accumulator for `sim.digest`.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one 64-bit word.
    pub fn mix(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest, folded to 48 bits so it survives a JSON number.
    pub fn value(self) -> u64 {
        (self.0 ^ (self.0 >> 48)) & 0xffff_ffff_ffff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_requests() {
        let shapes = repeat_shapes(false);
        for i in 0..40 {
            assert_eq!(
                repeat_request(7, &shapes, i).line("r"),
                repeat_request(7, &shapes, i).line("r")
            );
            assert_eq!(
                novel_order(7, i, NOVEL_BLOCK),
                novel_order(7, i, NOVEL_BLOCK)
            );
        }
    }

    #[test]
    fn every_repeat_block_visits_every_shape_once() {
        let shapes = repeat_shapes(false);
        let n = shapes.len() as u64;
        for seed in [1, 2, 3] {
            let mut seen: Vec<String> = (n..2 * n)
                .map(|i| repeat_request(seed, &shapes, i).line("r"))
                .collect();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), shapes.len());
        }
    }

    #[test]
    fn novel_tuples_never_repeat_and_mappings_are_stratified() {
        let mut tuples: Vec<String> = (0..2 * NOVEL_BLOCK)
            .map(|j| format!("{:?}", novel_tuple(0, j, false).params))
            .collect();
        tuples.sort();
        tuples.dedup();
        assert_eq!(tuples.len() as u64, 2 * NOVEL_BLOCK);
        let mut maps: Vec<[Target; 5]> = (0..NOVEL_BLOCK)
            .map(|j| novel_tuple(0, j, false).mapping)
            .collect();
        maps.sort_by_key(|m| m.map(|t| t as u8));
        maps.dedup();
        assert_eq!(maps.len() as u64, NOVEL_BLOCK);
    }

    #[test]
    fn a_seed_only_reorders_novel_tuples_within_blocks() {
        for seed in [1, 9] {
            let mut order: Vec<u64> = (0..2 * NOVEL_BLOCK)
                .map(|i| novel_order(seed, i, NOVEL_BLOCK))
                .collect();
            assert!(order[..NOVEL_BLOCK as usize]
                .iter()
                .all(|&j| j < NOVEL_BLOCK));
            order.sort_unstable();
            assert_eq!(order, (0..2 * NOVEL_BLOCK).collect::<Vec<_>>());
        }
    }
}
