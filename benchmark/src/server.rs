//! The system under test as a child process: build the repository's real
//! `serve` binary, spawn `serve run --listen 127.0.0.1:0 --durable DIR
//! --readers 2`, find the port it bound, kill it, read its `/proc` entry.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The repository root: the benchmark package sits one level below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

/// Where this run may write: `benchmark/out/`.
pub fn out_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Build the workspace's `serve` binary from the checkout's source
/// (release profile, offline) and return its path. A no-op when fresh.
pub fn build_serve() -> Result<PathBuf, String> {
    let root = repo_root();
    // One target directory for both packages when the caller names one
    // (relative names resolve against the invoking directory, as cargo's
    // own do); the workspace's default otherwise.
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| format!("no current directory: {e}"))?
            .join(dir),
        None => root.join("target"),
    };
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "serve",
        ])
        .arg("--target-dir")
        .arg(&target)
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the serve binary failed: {status}"));
    }
    let binary = target.join("release").join("serve");
    if !binary.exists() {
        return Err(format!("{} was not produced", binary.display()));
    }
    Ok(binary)
}

/// How a server is started; restarting after a crash reuses it verbatim.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    pub binary: PathBuf,
    /// `NAME:DOMAIN:STATE[:MODEL]`
    pub tenant: String,
    pub durable_dir: PathBuf,
}

/// One running `serve` process.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    stderr_lines: Arc<Mutex<Vec<String>>>,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn the server and block until it reports its listening address.
    pub fn spawn(spec: &ServerSpec) -> Result<Server, String> {
        let mut child = Command::new(&spec.binary)
            .args(["run", "--tenant", &spec.tenant, "--durable"])
            .arg(&spec.durable_dir)
            .args(["--listen", "127.0.0.1:0", "--readers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", spec.binary.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let stderr_lines = Arc::new(Mutex::new(Vec::new()));
        let (found, address): (_, Receiver<SocketAddr>) = channel();
        // The drain thread outlives the address hand-off so the child never
        // blocks on a full stderr pipe; it ends at the child's EOF.
        let drain = {
            let lines = stderr_lines.clone();
            std::thread::spawn(move || {
                for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                    if let Some(addr) = line
                        .strip_prefix("serve: listening on ")
                        .and_then(|rest| rest.split_whitespace().next())
                        .and_then(|addr| addr.parse().ok())
                    {
                        let _ = found.send(addr);
                    }
                    lines.lock().expect("stderr log poisoned").push(line);
                }
            })
        };
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr_lines,
            drain: Some(drain),
        };
        match address.recv_timeout(Duration::from_secs(150)) {
            Ok(addr) => {
                server.addr = addr;
                Ok(server)
            }
            Err(_) => {
                server.kill();
                Err(format!(
                    "server never listened; its stderr:\n{}",
                    server.stderr().join("\n")
                ))
            }
        }
    }

    /// Everything the server wrote to stderr so far.
    pub fn stderr(&self) -> Vec<String> {
        self.stderr_lines
            .lock()
            .expect("stderr log poisoned")
            .clone()
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set of the server process so far, in kB (`VmHWM`).
    pub fn vm_hwm_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    }

    /// `kill -9` the server and reap it: the crash the durability checks
    /// recover from. Idempotent.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Whether a process with this id still exists (zombies count as gone).
pub fn process_alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map(|stat| !stat.contains(") Z "))
        .unwrap_or(false)
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|entry| entry.metadata().ok())
                .filter(|meta| meta.is_file())
                .map(|meta| meta.len())
                .sum()
        })
        .unwrap_or(0)
}
