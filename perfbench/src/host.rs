//! What the host is and what the process costs on it: core count, CPU
//! model and kernel version (a speed-up counts only on a named host),
//! the CPU a run is confined to, process CPU time across all threads,
//! and resident memory.

use std::fs;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads process CPU time and memory through 64-bit Linux interfaces");

/// The host a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs this process may run on.
    pub nproc: usize,
    /// Logical CPUs online on the host.
    pub online: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu: String,
    /// Kernel release, as `uname -r` prints it.
    pub kernel: String,
}

impl Host {
    /// Reads the host description.
    pub fn detect() -> Host {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let online = fs::read_to_string("/proc/stat")
            .map(|s| {
                s.lines()
                    .filter(|l| {
                        l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit)
                    })
                    .count()
            })
            .unwrap_or(0);
        Host {
            nproc: nproc(),
            online,
            cpu,
            kernel,
        }
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Confines the calling thread, and every thread it spawns later, to
/// the lowest-numbered CPU it may run on now; returns that CPU, or
/// `None` when the kernel refuses.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable `cpu_set_t`-sized buffer for the
    // whole call and its size is passed along; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads `one`.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (rc == 0).then_some(cpu)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, user plus
/// system, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked by the `compile_error!` gate above)
    // for the whole call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn status_kib(field: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with(field)).and_then(|l| {
                l[field.len()..]
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Current resident set, in KiB.
pub fn rss_kib() -> u64 {
    status_kib("VmRSS:")
}

/// Peak resident set of this process so far, in KiB.
pub fn peak_rss_kib() -> u64 {
    status_kib("VmHWM:")
}
