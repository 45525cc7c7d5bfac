//! Host-side probes: per-thread CPU time and the process's memory
//! high-water marks (Linux only).

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_MAX: i32 = -4;

/// Makes glibc keep freed memory in the process: no allocation is served
/// by its own `mmap`, and the heap top is never returned to the kernel.
///
/// Every repetition builds a fresh network. With the default allocator
/// each 100,000-station build faults in ~400 MB of new pages, and how
/// fast the host serves those faults swings by a third from one minute
/// to the next; on a kept heap only the first build faults, so `setup_s`
/// measures the construction itself.
pub fn keep_freed_memory() {
    // SAFETY: mallopt takes two integers, touches only the allocator's
    // own tunables, and both parameters are documented glibc options.
    let ok = unsafe { mallopt(M_MMAP_MAX, 0) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 };
    assert!(ok, "mallopt rejected an allocator setting");
}

/// CPU time consumed so far by the calling thread, in seconds.
///
/// CPU time rather than wall time: on a shared host a descheduled
/// benchmark thread stops this clock, so neighbours' load shows up far
/// less than in wall time.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in KiB.
pub fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

/// Cost of one `Instant::now()` pair in ns, to be subtracted from each
/// timed call of the traced run and the drives. A low percentile, not the
/// median: an overestimate would turn the cheapest calls (a 15 ns wheel
/// push) negative, an underestimate only adds a few ns to every call.
pub fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<u64> = (0..20_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            b.duration_since(a).as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 100] as f64
}
