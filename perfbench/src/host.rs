//! Host speed. The reference host is a share of a machine whose speed
//! changes in spells that can outlast a whole run, so a wall time alone
//! says as much about the machine as about the program. The benchmark
//! therefore takes every end-to-end time as CPU time ([`cpu_s`]), which
//! leaves out the time the hypervisor gives the vCPU to other tenants
//! and waits on the disk, and states it in reference seconds: CPU
//! seconds × [`REF_KERNEL_S`] ÷ the CPU time of a fixed reference
//! `Kernel`, which belongs to the benchmark and calls no workspace
//! crate, timed in the gaps just before and after the step. A change to
//! the program moves the workload's time and not the kernel's; a slower
//! core moves both.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;

use crate::util::{median, peak_rss_mb, reset_peak_rss};

/// Median CPU time of one `Kernel::run` on the reference host (2-vCPU
/// Intel Xeon VM at 2.1 GHz) at its usual speed, seconds.
pub const REF_KERNEL_S: f64 = 0.028;

/// Share of the gap before each iteration given to kernel samples,
/// relative to the previous iteration's wall time.
const SHARE: f64 = 0.08;

/// The reference kernel: the kinds of work the workloads do, at a fixed
/// size and with fixed inputs — records formatted as text lines and
/// parsed back, a sort, hash-map inserts and look-ups (fixed hasher
/// keys), a pass over a buffer larger than the caches touching every
/// cache line, and first touches of a freshly mapped region (page
/// faults, as the workloads' large allocations take). Its other buffers
/// are allocated once, so its time does not depend on the allocator's
/// state after the workload's iterations.
struct Kernel {
    buf: Vec<u64>,
    line: String,
    keys: Vec<u64>,
    sorted: Vec<u64>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            buf: vec![1; 4 << 20],
            line: String::with_capacity(64),
            keys: Vec::with_capacity(LINES),
            sorted: Vec::with_capacity(LINES),
            map: HashMap::with_capacity_and_hasher(1024, Default::default()),
        }
    }

    /// One kernel call. Returns a checksum.
    fn run(&mut self) -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut sum = 0u64;
        self.keys.clear();
        for _ in 0..LINES {
            let (t, fd, off) = (next() % 1_000_000_000, next() % 64, next() % (1 << 30));
            self.line.clear();
            let _ = write!(
                self.line,
                "{}.{:06} write({fd}, {off}, 65536) = 65536",
                t / 1000,
                t % 1000
            );
            let parsed = self
                .line
                .split(|c: char| !c.is_ascii_digit())
                .filter(|s| !s.is_empty())
                .map(|s| s.parse::<u64>().unwrap_or(0))
                .fold(0u64, |a, v| a.wrapping_mul(31).wrapping_add(v));
            sum = sum.wrapping_add(parsed);
            self.keys.push(parsed ^ off);
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.keys);
        self.sorted.sort_unstable();
        self.map.clear();
        for (i, k) in self.keys.iter().enumerate() {
            *self.map.entry(k % 1024).or_insert(0) += i as u64;
        }
        for k in &self.sorted {
            sum = sum.wrapping_add(self.map.get(&(k % 1024)).copied().unwrap_or(0));
        }
        for i in (0..self.buf.len()).step_by(8) {
            self.buf[i] = self.buf[i].wrapping_add(sum);
            sum ^= self.buf[i];
        }
        // Above glibc's largest mmap threshold, so every call maps and
        // unmaps it; one write per FAULT_STRIDE bytes faults a page in.
        let mut fresh = vec![0u8; FRESH_BYTES];
        for i in (0..FRESH_BYTES).step_by(FAULT_STRIDE) {
            fresh[i] = sum as u8;
        }
        sum.wrapping_add(black_box(&fresh)[FRESH_BYTES - FAULT_STRIDE] as u64)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const PROCESS_CPUTIME: i32 = 2;

/// CPU time this process has used so far, all threads, seconds.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; the clock id is a
    // constant Linux defines.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Bytes of the region the kernel maps afresh on every call, and the
/// stride of its first touches (4,096 page faults, 16 MiB resident).
const FRESH_BYTES: usize = 64 << 20;
const FAULT_STRIDE: usize = 16 << 10;

/// Records formatted and parsed per kernel call.
const LINES: usize = 32768;

/// Kernel times taken over one stretch of a run, by gap: gap `i` is
/// the samples taken just before the stretch's `i`-th timed step, the
/// last gap those taken after its last step.
pub struct KernelTimes(Vec<Vec<f64>>);

impl KernelTimes {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Median kernel time over the stretch, seconds.
    pub fn kernel_s(&self) -> f64 {
        median(&self.0.concat())
    }

    /// Reference seconds per CPU second for timed step `i`, from the
    /// samples just before and just after it, so that a change of the
    /// host's speed within a run is followed step by step.
    pub fn scale_at(&self, i: usize) -> f64 {
        let around = self.0[i..(i + 2).min(self.0.len())].concat();
        REF_KERNEL_S / median(&around)
    }
}

/// Times the reference `Kernel` in CPU time, and keeps the peak
/// resident set size of everything between its gaps.
pub struct HostClock {
    kernel: Kernel,
    gaps: Vec<Vec<f64>>,
    peak_mb: f64,
}

impl Default for HostClock {
    fn default() -> Self {
        Self::new()
    }
}

impl HostClock {
    pub fn new() -> Self {
        let mut clock = HostClock {
            kernel: Kernel::new(),
            gaps: Vec::new(),
            peak_mb: 0.0,
        };
        // First touch of the buffers stays out of the samples.
        black_box(clock.kernel.run());
        reset_peak_rss();
        clock
    }

    /// Time `n` kernel calls: one gap. The kernel's freshly mapped pages
    /// stay out of [`HostClock::peak_rss_mb`].
    pub fn sample(&mut self, n: usize) {
        self.peak_mb = self.peak_mb.max(peak_rss_mb());
        let gap = (0..n)
            .map(|_| {
                let t0 = cpu_s();
                black_box(self.kernel.run());
                cpu_s() - t0
            })
            .collect();
        self.gaps.push(gap);
        reset_peak_rss();
    }

    /// Peak resident set size outside the gaps so far, MiB: the
    /// workload's, plus the kernel's buffer, which stays resident.
    pub fn peak_rss_mb(&mut self) -> f64 {
        self.peak_mb = self.peak_mb.max(peak_rss_mb());
        self.peak_mb
    }

    /// Time kernel calls for about [`SHARE`] of `wall_s`, at least two.
    pub fn sample_beside(&mut self, wall_s: f64) {
        self.sample(((SHARE * wall_s / REF_KERNEL_S).ceil() as usize).max(2));
    }

    /// The gaps so far; the next stretch starts with none.
    pub fn take(&mut self) -> KernelTimes {
        KernelTimes(std::mem::take(&mut self.gaps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_samples_are_counted() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        assert_eq!(a.run(), b.run());
        assert_eq!(a.run(), b.run());
        let mut clock = HostClock::new();
        clock.sample(3);
        clock.sample_beside(0.0);
        let times = clock.take();
        assert_eq!(times.len(), 5);
        assert!(times.kernel_s() > 0.0 && times.scale_at(0) > 0.0 && times.scale_at(1) > 0.0);
        assert!(clock.take().is_empty());
    }

    #[test]
    fn cpu_time_advances() {
        let t0 = cpu_s();
        black_box(Kernel::new().run());
        assert!(cpu_s() > t0);
    }
}
