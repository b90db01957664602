//! Pinning worker threads to CPUs.
//!
//! Unpinned, the two STM workers of a window workload settle into one of
//! two placements and stay there for minutes: both on one CPU, taking
//! turns at every window barrier, or one on each CPU. The scheduler keeps
//! waking the barrier's waiter on the waker's CPU, and with one task
//! runnable at a time the load balancer sees nothing to move, so the
//! shared placement sustains itself (per-CPU tick counts in `/proc/stat`
//! show all the work on one CPU). The two placements differ by 25% in
//! throughput and 8x in p99 latency, so the benchmark pins worker `t` to
//! the `t`-th CPU it may run on. The simulator's single thread is moved
//! between CPUs the same way, so that each run samples all of them.

/// Pin the calling thread to the `t`-th CPU of its allowed set (modulo
/// the set's size). Returns false where pinning is unsupported or fails.
pub fn pin_to_nth_cpu(t: usize) -> bool {
    imp::pin(t)
}

#[cfg(target_os = "linux")]
mod imp {
    /// A `cpu_set_t` of 1024 CPUs.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn pin(t: usize) -> bool {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
            return false;
        }
        let cpus: Vec<usize> = (0..1024)
            .filter(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        if cpus.is_empty() {
            return false;
        }
        let cpu = cpus[t % cpus.len()];
        let mut mask: CpuSet = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin(_t: usize) -> bool {
        false
    }
}
