//! What the operating system knows about this process: CPU time, peak
//! resident memory, core count, and which cores it may run on. 64-bit
//! Linux only — the benchmark refuses to report numbers it cannot
//! read. The two libc calls are declared here because the offline
//! build has no `libc` crate; `std` links the C library anyway.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ms(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target of this benchmark), and
    // `clock` is one of the two constants above.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// CPU time of the whole process in milliseconds: every thread, the
/// exited ones too, user and system. This is the scheduler's own
/// nanosecond account; `utime + stime` in `/proc/self/stat` are sampled
/// at the 100 Hz tick and were off by +-10% on a run that mostly sleeps.
pub fn process_cpu_ms() -> f64 {
    cpu_clock_ms(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread in milliseconds. Used to subtract
/// benchmark-side work (source writes, oracle re-derivation) from the
/// process total.
pub fn thread_cpu_ms() -> f64 {
    cpu_clock_ms(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Resets the peak-RSS watermark to the current RSS, so that
/// `peak_rss_mb` after a timed run is the peak *of that run* and not
/// of set-up (which holds a second, oracle copy of the data). Where
/// the kernel refuses, the watermark simply keeps its set-up value.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Cores the scheduler may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Confines the calling thread, and every thread it spawns from now
/// on, to the first core. False when the kernel refuses (the process
/// then simply stays where it was).
pub fn pin_to_first_core() -> bool {
    let mask: u64 = 1;
    // SAFETY: glibc's `sched_setaffinity` reads `cpusetsize` bytes from
    // `mask`; `mask` is 8 bytes and outlives the call. Pid 0 names the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}
