//! The frozen reference kernel: a fixed piece of work owned by `perf/`,
//! run after every repetition, so a workload's timing can be reported at
//! reference speed: relative to the host's speed at that moment. Host
//! speed on a shared VM drifts by tens of percent from minute to minute;
//! the ratio drifts far less.
//!
//! It is a naive greedy switch scheduler over per-cell FIFO lists, on a
//! fixed arrival list that depends on nothing — not on `--seed`, not on
//! any `fss-*` crate — so neither its work nor its timing can change with
//! the program. The unit test pins its output checksum; never edit the
//! kernel without re-baselining every drift-corrected timing in the ledger.

const PORTS: usize = 150;
const ROUNDS: u32 = 150;
const NIL: u32 = u32::MAX;

/// Fixed input of the kernel.
pub struct RefKernel {
    /// `(release, src, dst)` in release order; the index is the flow id.
    arrivals: Vec<(u32, u16, u16)>,
}

/// xorshift64*: integer-only, so the arrival list is bit-identical on
/// every platform.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl RefKernel {
    /// Build the fixed arrival list: per round a Binomial(19200, 1/32)
    /// count — mean 600 = 4m, variance 581, Poisson(600) to within 3 % —
    /// of flows on uniformly random port pairs.
    pub fn new() -> RefKernel {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        let mut arrivals = Vec::new();
        for release in 0..ROUNDS {
            let mut bits = 0u32;
            // 12 five-bit fields per draw; a field is a success when all
            // five bits are zero (probability 1/32).
            for _ in 0..19200 / 12 {
                let mut x = rng.next();
                for _ in 0..12 {
                    bits += u32::from(x & 31 == 0);
                    x >>= 5;
                }
            }
            for _ in 0..bits {
                let x = rng.next();
                let src = ((x >> 16) % PORTS as u64) as u16;
                let dst = ((x >> 40) % PORTS as u64) as u16;
                arrivals.push((release, src, dst));
            }
        }
        RefKernel { arrivals }
    }

    /// Schedule the list to completion and return a checksum of the
    /// schedule. Each round, every input port in turn scans the output
    /// ports from a rotating start and sends the oldest flow of the first
    /// cell whose output is still free.
    pub fn run(&self) -> u64 {
        let n = self.arrivals.len();
        let mut head = vec![NIL; PORTS * PORTS];
        let mut tail = vec![NIL; PORTS * PORTS];
        let mut next = vec![NIL; n];
        let mut out_used = [false; PORTS];
        let (mut ingested, mut sent, mut round, mut sum) = (0usize, 0usize, 0u32, 0u64);
        while sent < n {
            while ingested < n && self.arrivals[ingested].0 <= round {
                let (_, src, dst) = self.arrivals[ingested];
                let cell = src as usize * PORTS + dst as usize;
                if head[cell] == NIL {
                    head[cell] = ingested as u32;
                } else {
                    next[tail[cell] as usize] = ingested as u32;
                }
                tail[cell] = ingested as u32;
                ingested += 1;
            }
            out_used.fill(false);
            for p in 0..PORTS {
                let start = (p + round as usize) % PORTS;
                for k in 0..PORTS {
                    let q = (start + k) % PORTS;
                    let cell = p * PORTS + q;
                    if out_used[q] || head[cell] == NIL {
                        continue;
                    }
                    let id = head[cell];
                    head[cell] = next[id as usize];
                    out_used[q] = true;
                    sent += 1;
                    sum = sum
                        .wrapping_mul(0x100_0000_01B3)
                        .wrapping_add(u64::from(id) << 20 | u64::from(round));
                    break;
                }
            }
            round += 1;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_frozen() {
        let k = RefKernel::new();
        assert_eq!(k.arrivals.len(), PINNED_FLOWS, "the fixed input drifted");
        assert_eq!(k.run(), PINNED_CHECKSUM, "the fixed schedule drifted");
    }

    const PINNED_FLOWS: usize = 89_850;
    const PINNED_CHECKSUM: u64 = 3_893_291_532_993_909_217;
}
