//! Pin the benchmark to one CPU.
//!
//! On a small shared box the scheduler's placement of the generator's and
//! the servers' threads settles into states that last for seconds and
//! differ by a quarter in throughput from one run to the next. On one CPU
//! there is nothing to place: the same code repeats within a few percent.
//! The price is stated where the numbers are: every rate is "on one CPU
//! shared by the load generator and the system".
//!
//! Threads inherit the mask of the thread that spawns them, so pinning
//! the main thread first pins every server and client thread too. The
//! standard library has no affinity call, hence the two raw system calls.

/// Restrict the calling thread (and every thread it spawns from now on)
/// to the lowest-numbered CPU it is allowed on. Returns that CPU, or
/// `None` where the system calls are not available or fail; the run then
/// goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // sched_getaffinity returns the number of bytes it wrote.
    let got = affinity_call(Call::Get, bytes, mask.as_mut_ptr());
    if got <= 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().find(|(_, bits)| **bits != 0)?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bits.trailing_zeros();
    (affinity_call(Call::Set, bytes, one.as_mut_ptr()) == 0).then_some(cpu)
}

#[derive(Clone, Copy)]
enum Call {
    Get,
    Set,
}

/// `sched_{get,set}affinity(0, bytes, mask)` on the calling thread.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn affinity_call(call: Call, bytes: usize, mask: *mut u64) -> isize {
    let number: isize = match call {
        Call::Set => 203,
        Call::Get => 204,
    };
    let ret: isize;
    // SAFETY: both calls only read or write `bytes` bytes at `mask`, which
    // the caller passes as a live, exclusively borrowed array of exactly
    // that size; pid 0 names the calling thread. `syscall` clobbers rcx
    // and r11 and nothing else.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") number => ret,
            in("rdi") 0usize,
            in("rsi") bytes,
            in("rdx") mask,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn affinity_call(call: Call, bytes: usize, mask: *mut u64) -> isize {
    let number: isize = match call {
        Call::Set => 122,
        Call::Get => 123,
    };
    let ret: isize;
    // SAFETY: as on x86-64; `svc 0` returns in x0 and preserves the rest.
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") number,
            inlateout("x0") 0isize => ret,
            in("x1") bytes,
            in("x2") mask,
            options(nostack),
        );
    }
    ret
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn affinity_call(_call: Call, _bytes: usize, _mask: *mut u64) -> isize {
    -1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_exactly_one_cpu_and_threads_inherit_it() {
        // In a thread of its own, so the test runner's threads stay free.
        let outcome = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu()?;
            let seen_here = std::thread::available_parallelism().map_or(0, usize::from);
            let seen_by_child =
                std::thread::spawn(|| std::thread::available_parallelism().map_or(0, usize::from))
                    .join()
                    .expect("child thread");
            Some((cpu, seen_here, seen_by_child))
        })
        .join()
        .expect("pinning thread");
        if let Some((_, seen_here, seen_by_child)) = outcome {
            assert_eq!(seen_here, 1);
            assert_eq!(seen_by_child, 1);
        }
    }
}
