//! `/proc` readers for the process under test, and the daemon child guard.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. It is 100
/// on every Linux ABI this harness can run on, and there is no libc crate
/// here to ask `sysconf`.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed so far by `pid` (all its threads).
pub fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let mut f = rest.split_ascii_whitespace();
    // After comm: state is field 3, utime 14, stime 15 (1-based).
    let utime: f64 = f.nth(11).and_then(|v| v.parse().ok()).expect("utime");
    let stime: f64 = f.next().and_then(|v| v.parse().ok()).expect("stime");
    (utime + stime) / TICKS_PER_S
}

/// Seconds the hypervisor has run something else while a virtual CPU of
/// this box was runnable (`steal` in `/proc/stat`), summed over CPUs. Stamped
/// into the report so that a run disturbed by a neighbour can be told from
/// one that was not.
pub fn host_steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.to_string();
            cpu.split_ascii_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
type CpuMask = [u64; 16];

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..64 * mask.len())
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and every thread or process it starts from
/// now on, to `cpu`.
pub fn pin_to_cpu(cpu: usize) -> Result<(), String> {
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0 names
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("cannot pin to CPU {cpu}"))
    }
}

/// Removes every `TCSM_*` variable from this process's environment, so no
/// ambient switch (threads, kernel, trace, audit) reaches the library; the
/// harness passes each of those explicitly instead.
pub fn scrub_tcsm_env() {
    let keys: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("TCSM_"))
        .collect();
    for k in keys {
        // Called first thing in `main`, before any thread exists.
        std::env::remove_var(k);
    }
}

/// The `tcsm-serviced` child. Killed and reaped on drop, so no exit path —
/// error return, panic unwind, failed check — leaves a daemon behind.
pub struct Daemon {
    child: Child,
    stderr: BufReader<ChildStderr>,
    pub addr: String,
}

impl Daemon {
    /// Starts the daemon on an ephemeral loopback port and waits for its
    /// `listening on ADDR` line.
    pub fn spawn(bin: &Path, input: &Path, delta: i64) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--input", &input.to_string_lossy()])
            .args(["--format", "native", "--delta", &delta.to_string()])
            .args(["--listen", "127.0.0.1:0", "--shards", "1", "--threads", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        // The child inherits this process's environment, which
        // `scrub_tcsm_env` has already cleared of every TCSM_* switch.
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut daemon = Daemon {
            child,
            stderr,
            addr: String::new(),
        };
        let mut seen = String::new();
        loop {
            let mut line = String::new();
            match daemon.stderr.read_line(&mut line) {
                Ok(0) | Err(_) => return Err(format!("daemon exited before listening: {seen}")),
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("tcsm-serviced: listening on ") {
                daemon.addr = addr.to_string();
                return Ok(daemon);
            }
            seen.push_str(&line);
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for a daemon that was asked to shut down; `false` when it had
    /// to be killed or exited non-zero.
    pub fn wait_clean_exit(mut self) -> bool {
        for _ in 0..500 {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(std::time::Duration::from_millis(10)),
                Err(_) => return false,
            }
        }
        false // Drop kills it.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_cpu_and_rss() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid) >= 0.0);
        assert!(peak_rss_mb(pid) > 0.1);
    }

    #[test]
    fn pinning_narrows_the_allowed_set_of_this_thread_only() {
        let before = allowed_cpus();
        assert!(!before.is_empty());
        let cpu = *before.last().unwrap();
        let pinned = std::thread::spawn(move || {
            pin_to_cpu(cpu).unwrap();
            allowed_cpus()
        })
        .join()
        .unwrap();
        assert_eq!(pinned, vec![cpu]);
        assert_eq!(allowed_cpus(), before);
    }
}
