//! Spawning the program under test and measuring what its user pays.
//!
//! A child's wall time runs from just before spawn until its stdout is
//! drained and it has exited. CPU time and peak resident set come from the
//! `rusage` that `wait4` returns for the reaped child; Linux folds in every
//! descendant the child itself waited for, so the figures cover a whole
//! process tree (the orchestrator and its workers). Stdout is digested with
//! [`WordHash`] as it streams, never stored; stderr goes to
//! a fresh file in the harness's temporary directory, read and removed after
//! exit. (Truncating one reused file instead would cost tens of
//! milliseconds per child on ext4, which flushes a truncated file's pending
//! writes.)

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// What one finished child cost and produced.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Spawn until stdout drained and the process reaped, seconds.
    pub wall_s: f64,
    /// User plus system CPU of the process tree, seconds.
    pub cpu_s: f64,
    /// Largest resident set of any process in the tree, MB.
    pub peak_rss_mb: f64,
    /// Exit code, `None` when killed by a signal.
    pub code: Option<i32>,
    /// [`WordHash`] digest of everything written to stdout.
    pub stdout_hash: u64,
    /// Bytes written to stdout.
    pub stdout_bytes: u64,
    /// Everything written to stderr.
    pub stderr: String,
}

impl Finished {
    /// Whether the child exited with status 0.
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }

    /// A one-line description of a failed child for the report.
    pub fn describe_failure(&self, what: &str) -> String {
        let last = self.stderr.lines().last().unwrap_or("");
        match self.code {
            Some(c) => format!("{what}: exit {c}: {last}"),
            None => format!("{what}: killed by a signal: {last}"),
        }
    }
}

/// Numbers the stderr capture files of this process's children.
static CAPTURES: AtomicU64 = AtomicU64::new(0);

/// Runs `cmd` to completion with stdout digested and stderr captured in a
/// file under `tmp_dir`.
pub fn run(cmd: &mut Command, tmp_dir: &Path) -> io::Result<Finished> {
    let n = CAPTURES.fetch_add(1, Ordering::Relaxed);
    let stderr_path = tmp_dir.join(format!("stderr-{}-{n}.log", std::process::id()));
    let stderr = File::options()
        .write(true)
        .create_new(true)
        .open(&stderr_path)?;
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()?;
    let mut out = child
        .stdout
        .take()
        .ok_or_else(|| io::Error::other("child stdout was not piped"))?;
    let mut digest = WordHash::default();
    let mut bytes = 0u64;
    let mut buf = vec![0u8; 1 << 16];
    loop {
        match out.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                digest.update(&buf[..n]);
                bytes += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                let _ = child.kill();
                let _ = reap(&child);
                return Err(e);
            }
        }
    }
    drop(out);
    let usage = reap(&child)?;
    let wall_s = start.elapsed().as_secs_f64();
    let stderr = std::fs::read_to_string(&stderr_path);
    std::fs::remove_file(&stderr_path)?;
    Ok(Finished {
        wall_s,
        cpu_s: usage.cpu_s,
        peak_rss_mb: usage.peak_rss_mb,
        code: usage.code,
        stdout_hash: digest.finish(),
        stdout_bytes: bytes,
        stderr: stderr?,
    })
}

/// A fast streaming digest for comparing outputs: eight bytes per step, so
/// hashing a 65 MB table costs the harness little CPU next to the program
/// it is timing on a small host. It detects differences, not tampering.
#[derive(Debug, Default, Clone)]
pub struct WordHash {
    h: u64,
    len: u64,
    tail: Vec<u8>,
}

impl WordHash {
    fn mix(&mut self, word: u64) {
        self.h = (self.h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// Feeds the next bytes; the digest does not depend on how the stream
    /// is split into calls.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if !self.tail.is_empty() {
            let take = (8 - self.tail.len()).min(bytes.len());
            self.tail.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.tail.len() < 8 {
                return;
            }
            let word = u64::from_le_bytes(self.tail[..].try_into().expect("eight bytes"));
            self.mix(word);
            self.tail.clear();
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        self.tail.extend_from_slice(words.remainder());
    }

    /// The digest of everything fed so far, length included.
    pub fn finish(&self) -> u64 {
        let mut h = self.clone();
        let mut last = [0u8; 8];
        last[..h.tail.len()].copy_from_slice(&h.tail);
        h.mix(u64::from_le_bytes(last));
        h.mix(h.len);
        h.h
    }
}

/// Resource use of a reaped child.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU of the process tree, seconds.
    pub cpu_s: f64,
    /// Largest resident set in the tree, MB.
    pub peak_rss_mb: f64,
    /// Exit code, `None` when killed by a signal.
    pub code: Option<i32>,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two timevals,
/// then fourteen longs starting with `ru_maxrss` (in KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Waits for `child` with `wait4`, returning its exit and the rusage of its
/// process tree. The `Child` must not be waited on through std afterwards.
pub fn reap(child: &Child) -> io::Result<Usage> {
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are live, exclusively borrowed locals of
        // the exact types `wait4(2)` writes (an int and a 64-bit Linux
        // `struct rusage`, mirrored by `Rusage` above); the call retains
        // neither pointer after it returns.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_mb: ru.maxrss as f64 / 1024.0,
        code,
    })
}

#[cfg(test)]
mod tests {
    use super::WordHash;

    fn hash_in_pieces(data: &[u8], piece: usize) -> u64 {
        let mut h = WordHash::default();
        for chunk in data.chunks(piece) {
            h.update(chunk);
        }
        h.finish()
    }

    #[test]
    fn digest_ignores_how_the_stream_is_split() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = hash_in_pieces(&data, data.len());
        for piece in [1, 3, 7, 8, 9, 64, 999] {
            assert_eq!(hash_in_pieces(&data, piece), whole, "piece {piece}");
        }
    }

    #[test]
    fn digest_sees_flips_and_lengths() {
        let data = vec![b'x'; 100];
        let mut flipped = data.clone();
        flipped[57] ^= 1;
        assert_ne!(hash_in_pieces(&data, 10), hash_in_pieces(&flipped, 10));
        assert_ne!(hash_in_pieces(&data, 10), hash_in_pieces(&data[..99], 10));
        assert_ne!(hash_in_pieces(&[0u8; 8], 8), hash_in_pieces(&[0u8; 9], 8));
    }
}
