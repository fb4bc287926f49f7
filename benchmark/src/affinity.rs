//! Confines the process to one CPU.
//!
//! On the small virtual machines this repository is measured on, waking
//! a thread on another virtual CPU costs several requests' worth of
//! time, and where the scheduler happens to place the five or six
//! threads of a cell flips every few hundred milliseconds. Left alone,
//! closed-loop throughput is bimodal — `shared-mix` alternates between
//! ~130k and ~40k ops/s at *identical* protocol work per request — and
//! no amount of repetition makes a median of that repeatable. On one
//! CPU every hand-off is a plain context switch, so the figures measure
//! the path length of a request and repeat within a few percent. What
//! they cannot show is parallel speed-up or cross-CPU lock contention;
//! the README says so.

/// Pins the calling thread — and so every thread spawned after it — to
/// the highest-numbered CPU it is currently allowed on (CPU 0 tends to
/// take the machine's device interrupts). Returns that CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    /// `cpu_set_t` is 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the byte
    // size passed, which is glibc's `sizeof(cpu_set_t)`; pid 0 means the
    // calling thread. The call writes at most that many bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("sched_getaffinity returned an empty CPU set")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of the byte size passed and is only
    // read; pid 0 means the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU pinning is implemented for Linux only".into())
}
