//! Running the program under test as a subprocess: stamped stdout lines,
//! peak resident memory from `/proc`, and no process left behind.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a running child is polled for exit and peak memory: the
/// resolution of spawn-to-exit times (well under 1 % of the shortest one).
const POLL: Duration = Duration::from_millis(2);

/// A spawned `gtinker`, killed and reaped on drop if still running.
pub struct Proc {
    child: Child,
    lines: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
    pub spawned: Instant,
    /// Highest `VmHWM` seen so far, bytes.
    peak_rss: u64,
}

#[derive(Debug)]
pub struct Exit {
    pub at: Instant,
    pub status: ExitStatus,
    pub peak_rss_bytes: u64,
}

impl Proc {
    /// Spawns `bin args...` with stdout piped (stderr is inherited, so a
    /// failing child explains itself on the benchmark's stderr).
    pub fn spawn(bin: &Path, args: &[&str]) -> Result<Proc, String> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Proc { child, lines, reader: Some(reader), spawned, peak_rss: 0 })
    }

    /// The next stdout line satisfying `pred`, with its arrival time.
    /// Earlier lines are dropped.
    pub fn wait_line(
        &mut self,
        pred: impl Fn(&str) -> bool,
        timeout: Duration,
    ) -> Result<(Instant, String), String> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left.min(Duration::from_millis(20))) {
                Ok((at, line)) if pred(&line) => return Ok((at, line)),
                Ok(_) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("child closed stdout before the expected line".into())
                }
                Err(RecvTimeoutError::Timeout) if left.is_zero() => {
                    return Err("timed out waiting for a line from the child".into())
                }
                Err(RecvTimeoutError::Timeout) => self.sample_rss(),
            }
        }
    }

    /// Every stdout line not yet consumed (call after exit).
    pub fn drain_lines(&mut self) -> Vec<String> {
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        self.lines.try_iter().map(|(_, l)| l).collect()
    }

    /// Reads `VmHWM` while the process still has an address space.
    pub fn sample_rss(&mut self) {
        if let Ok(status) = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())) {
            if let Some(bytes) = vm_hwm_bytes(&status) {
                self.peak_rss = self.peak_rss.max(bytes);
            }
        }
    }

    pub fn peak_rss_bytes(&mut self) -> u64 {
        self.sample_rss();
        self.peak_rss
    }

    /// Waits for the child to exit by itself, sampling peak memory on the
    /// way (a reaped process has none to read).
    pub fn wait_exit(&mut self, timeout: Duration) -> Result<Exit, String> {
        let deadline = Instant::now() + timeout;
        loop {
            self.sample_rss();
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    return Ok(Exit { at: Instant::now(), status, peak_rss_bytes: self.peak_rss })
                }
                Ok(None) if Instant::now() >= deadline => {
                    return Err("child did not exit in time".into())
                }
                Ok(None) => std::thread::sleep(POLL),
                Err(e) => return Err(format!("waiting for child: {e}")),
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// `VmHWM:   123456 kB` in `/proc/<pid>/status`, as bytes.
fn vm_hwm_bytes(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb * 1024)
}

/// Runs `bin args...` to completion; returns spawn-to-exit time, peak
/// memory and its stdout lines, or an error if it failed.
pub fn run_to_exit(
    bin: &Path,
    args: &[&str],
    timeout: Duration,
) -> Result<(Duration, u64, Vec<String>), String> {
    let mut p = Proc::spawn(bin, args)?;
    let exit = p.wait_exit(timeout)?;
    let lines = p.drain_lines();
    if !exit.status.success() {
        return Err(format!("{} {} exited with {}", bin.display(), args.join(" "), exit.status));
    }
    Ok((exit.at.duration_since(p.spawned), exit.peak_rss_bytes, lines))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tgtinker\nVmPeak:\t  900 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_bytes(status), Some(2048 * 1024));
        assert_eq!(vm_hwm_bytes("Name:\tzombie\n"), None);
    }

    #[test]
    fn runs_a_child_and_stamps_its_lines() {
        let sh = Path::new("/bin/sh");
        let mut p = Proc::spawn(sh, &["-c", "echo one; echo two; sleep 0.05; echo three"]).unwrap();
        let (at, line) = p.wait_line(|l| l == "two", Duration::from_secs(5)).unwrap();
        assert_eq!(line, "two");
        assert!(at >= p.spawned);
        let exit = p.wait_exit(Duration::from_secs(5)).unwrap();
        assert!(exit.status.success());
        assert!(exit.peak_rss_bytes > 0);
        assert_eq!(p.drain_lines(), vec!["three".to_string()]);

        let err = run_to_exit(sh, &["-c", "exit 3"], Duration::from_secs(5)).unwrap_err();
        assert!(err.contains("exit"), "{err}");
    }

    #[test]
    fn a_dropped_child_is_killed_and_reaped() {
        let p = Proc::spawn(Path::new("/bin/sh"), &["-c", "exec sleep 30"]).unwrap();
        let pid = p.child.id();
        drop(p);
        assert!(!Path::new(&format!("/proc/{pid}/status")).exists());
    }
}
