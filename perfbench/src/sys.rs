//! What the benchmark asks of the operating system: CPU clocks of the
//! process and of single threads, peak memory, steal time and the core
//! count. Linux only.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of all threads.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by the whole process so far, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID).expect("the process CPU clock is always readable")
}

fn cpu_clock_ns(clock: i32) -> Option<u64> {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call; an unknown clock id
    // makes the call fail with EINVAL, which is returned as `None`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return None;
    }
    Some(u64::try_from(ts.tv_sec).ok()? * 1_000_000_000 + u64::try_from(ts.tv_nsec).ok()?)
}

/// The id of this process's thread named `name`, if there is one.
pub fn thread_named(name: &str) -> Option<i32> {
    std::fs::read_dir("/proc/self/task").ok()?.flatten().find_map(|e| {
        let comm = std::fs::read_to_string(e.path().join("comm")).ok()?;
        (comm.trim_end() == name).then(|| e.file_name().to_str()?.parse().ok())?
    })
}

/// CPU time of thread `tid` of this process, in nanoseconds, read
/// through its per-thread CPU clock (`MAKE_THREAD_CPUCLOCK(tid,
/// CPUCLOCK_SCHED)` in the kernel's clock-id encoding).
pub fn thread_cpu_ns(tid: i32) -> Option<u64> {
    cpu_clock_ns((!tid << 3) | 6)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time the hypervisor gave this machine's cores to someone else
/// (`steal` in `/proc/stat`), in seconds summed over cores; 0 where the
/// kernel does not report it.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|rest| rest.split_whitespace().nth(7))
        .and_then(|t| t.parse::<f64>().ok())
        .unwrap_or(0.0);
    ticks / 100.0 // USER_HZ
}

/// Usable cores, as the standard library sees them.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_ns() > a);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn thread_clock_reads_a_named_thread() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::Builder::new()
            .name("perfbench-probe".into())
            .spawn(move || {
                let mut x = 0u64;
                for i in 0..5_000_000u64 {
                    x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
                }
                rx.recv().ok();
            })
            .unwrap();
        let tid = loop {
            if let Some(tid) = thread_named("perfbench-probe") {
                break tid;
            }
            std::thread::yield_now();
        };
        let a = thread_cpu_ns(tid).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(thread_cpu_ns(tid).unwrap() >= a);
        tx.send(()).unwrap();
        t.join().unwrap();
        assert!(thread_named("no-such-thread").is_none());
    }
}
