//! Timing that other tenants of a shared host disturb less than wall
//! time does.
//!
//! Two things move a wall-clock figure on a shared virtual machine
//! without any change to the code: the hypervisor takes the vCPU away
//! (steal time), and other tenants' work on the same cores and caches
//! slows every instruction down. Process CPU time removes the first.
//! The second is measured with a fixed reference kernel run beside the
//! timed work: the benchmark reports the work's CPU time in units of
//! the kernel's, scaled back to seconds by [`REFERENCE_S`].

use std::hint::black_box;

/// Seconds of CPU time this process has used, on every thread.
#[must_use]
pub fn cpu_seconds() -> f64 {
    imp::process_cpu_seconds()
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod imp {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    pub(super) fn process_cpu_seconds() -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the duration of
        // the call, and the clock id is one Linux defines.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod imp {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Elsewhere the wall clock stands in for CPU time.
    pub(super) fn process_cpu_seconds() -> f64 {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
    }
}

/// Measures CPU seconds from its start.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(f64);

impl Stopwatch {
    /// Starts measuring now.
    #[must_use]
    pub fn start() -> Self {
        Self(cpu_seconds())
    }

    /// CPU seconds since [`Stopwatch::start`].
    #[must_use]
    pub fn seconds(&self) -> f64 {
        cpu_seconds() - self.0
    }
}

/// The reference kernel's nominal CPU time: about what one
/// [`Reference::run`] takes on the 2-vCPU Xeon virtual machine the
/// benchmark was tuned on, when the host is quiet. Times divided by a
/// measured kernel time are scaled back to seconds with it.
pub const REFERENCE_S: f64 = 0.003;

/// Entries of the kernel's dependent-load cycle (128 KiB).
const CYCLE_LEN: usize = 1 << 15;
/// Keys the kernel sorts.
const KEYS_LEN: usize = 20_000;
/// Slots of the kernel's open-addressing table (512 KiB).
const SLOTS_LEN: usize = 1 << 16;
/// Width and height of the kernel's block-matching frame.
const FRAME_W: usize = 176;
const FRAME_H: usize = 144;

/// A fixed mix of the kinds of work the layers do: sums of absolute
/// differences over a frame (motion search), independent integer
/// multiply chains (entropy coding, checksums), open-addressing inserts
/// and lookups (caches and session tables), sorting (event queues),
/// dependent loads through a table the size of a core's L2 cache, and
/// one dependent multiply chain.
///
/// Other tenants of a shared host slow throughput-bound code (SIMD,
/// independent chains) far more than a single dependency chain: over
/// runs of one workload minutes apart, dividing by this mix cut the
/// spread of the timed CPU seconds by two to four times.
#[derive(Debug)]
pub struct Reference {
    frame: Vec<u8>,
    cycle: Vec<u32>,
    keys: Vec<u32>,
    slots: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Builds the kernel's fixed inputs.
    #[must_use]
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x = signal::rng::splitmix64(x);
            x
        };
        let frame = (0..FRAME_W * FRAME_H)
            .map(|_| (next() >> 56) as u8)
            .collect();
        // One random cycle through every entry (Sattolo's shuffle), so
        // each load depends on the one before it.
        let mut cycle: Vec<u32> = (0..CYCLE_LEN as u32).collect();
        for i in (1..CYCLE_LEN).rev() {
            cycle.swap(i, (next() % i as u64) as usize);
        }
        let keys = (0..KEYS_LEN).map(|_| next() as u32).collect();
        Self {
            frame,
            cycle,
            keys,
            slots: vec![0; SLOTS_LEN],
        }
    }

    /// Runs the kernel once and returns the CPU seconds it took.
    pub fn run(&mut self) -> f64 {
        let t = Stopwatch::start();
        let checksum = self.block_match()
            ^ self.independent_chains()
            ^ self.table_ops()
            ^ self.sort_keys()
            ^ self.dependent_loads()
            ^ self.dependent_chain();
        black_box(checksum);
        t.seconds()
    }

    fn block_match(&self) -> u64 {
        let frame = black_box(&self.frame[..]);
        let mut acc = 0u64;
        for _ in 0..12 {
            for y in (0..FRAME_H - 16).step_by(8) {
                for x in (0..FRAME_W - 24).step_by(8) {
                    let mut best = u32::MAX;
                    for dx in 0..8 {
                        let mut sad = 0u32;
                        for r in 0..16 {
                            let a = &frame[(y + r) * FRAME_W + x..][..16];
                            let b = &frame[(y + r) * FRAME_W + x + dx..][..16];
                            sad += a
                                .iter()
                                .zip(b)
                                .map(|(p, q)| u32::from(p.abs_diff(*q)))
                                .sum::<u32>();
                        }
                        best = best.min(sad);
                    }
                    acc = acc.wrapping_add(u64::from(best));
                }
            }
        }
        acc
    }

    fn independent_chains(&self) -> u64 {
        let mut h = black_box([1u64, 2, 3, 4]);
        for _ in 0..150_000 {
            for v in &mut h {
                *v = v.rotate_left(13).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (*v >> 29);
            }
        }
        h[0] ^ h[1] ^ h[2] ^ h[3]
    }

    fn table_ops(&mut self) -> u64 {
        self.slots.fill(0);
        let slots = &mut self.slots;
        let mask = slots.len() - 1;
        let (mut x, mut hits) = (black_box(1u64), 0u64);
        for k in 0..60_000u64 {
            x = signal::rng::splitmix64(x ^ k);
            let key = x | 1;
            let mut at = x as usize & mask;
            // A third of the operations insert, so the table stays
            // under a third full and every probe ends.
            loop {
                if slots[at] == 0 {
                    if k % 3 == 0 {
                        slots[at] = key;
                    }
                    break;
                }
                if slots[at] == key {
                    hits += 1;
                    break;
                }
                at = (at + 1) & mask;
            }
        }
        hits
    }

    fn sort_keys(&self) -> u64 {
        let mut unstable = black_box(&self.keys[..]).to_vec();
        unstable.sort_unstable();
        let mut stable: Vec<u32> = unstable.iter().rev().map(|k| k.rotate_left(7)).collect();
        stable.sort();
        u64::from(unstable[KEYS_LEN / 2] ^ stable[KEYS_LEN / 3])
    }

    fn dependent_loads(&self) -> u64 {
        let cycle = black_box(&self.cycle[..]);
        let (mut at, mut acc) = (0usize, 0u64);
        for _ in 0..150_000 {
            at = cycle[at] as usize;
            acc = acc.wrapping_add(at as u64);
        }
        acc
    }

    fn dependent_chain(&self) -> u64 {
        let mut h = black_box(7u64);
        for _ in 0..120_000 {
            h = h.rotate_left(13).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (h >> 29);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let t = Stopwatch::start();
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        black_box(x);
        assert!(t.seconds() > 0.0);
    }

    #[test]
    fn reference_kernel_is_fixed_work() {
        let mut reference = Reference::new();
        let first = Reference::new();
        assert_eq!(first.frame, reference.frame);
        assert_eq!(first.cycle, reference.cycle);
        let times: Vec<f64> = (0..5).map(|_| reference.run()).collect();
        assert!(times.iter().all(|&t| t > 0.0), "{times:?}");
        eprintln!("reference kernel CPU seconds: {times:?}");
    }
}
