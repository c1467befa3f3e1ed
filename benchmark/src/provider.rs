//! The provider process: our own `provider` subcommand (for the model
//! `aq2pnn-serve` cannot register) and the child-process handle the driver
//! spawns, watches and always reaps.

use crate::models::{vggtail_model, LENET5, VGGTAIL};
use crate::OUT_DIR;
use aq2pnn_server::{signal, InferenceServer, ModelRegistry, ServerConfig, ServerObs, TcpAcceptor};
use aq2pnn_transport::TcpConfig;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

/// `aq2pnn-benchmark provider [--admin ADDR]`: `aq2pnn-serve` with one
/// extra registry entry. Same `ServerConfig` values (the binary's flag
/// defaults equal `ServerConfig::default()`), same ready/drain lines and
/// exit codes, so the driver treats both providers alike.
pub fn provider_main(args: &[String]) -> i32 {
    let admin = match args {
        [] => None,
        [flag, addr] if flag == "--admin" => Some(addr.clone()),
        _ => {
            eprintln!("usage: aq2pnn-benchmark provider [--admin ADDR]");
            return 2;
        }
    };
    signal::install_handlers();
    let model = match vggtail_model() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("provider: {e}");
            return 2;
        }
    };
    let mut registry = ModelRegistry::new();
    registry.insert(VGGTAIL, model);
    let acceptor = match TcpAcceptor::bind("127.0.0.1:0", TcpConfig::default()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("provider: {e}");
            return 2;
        }
    };
    let addr = acceptor.local_addr().map_or_else(|e| e.to_string(), |a| a.to_string());
    let obs = if admin.is_some() {
        ServerObs { metrics: aq2pnn_obs::MetricsRegistry::new(), ..ServerObs::default() }
    } else {
        ServerObs::default()
    };
    let mut server =
        InferenceServer::start(Box::new(acceptor), ServerConfig::default(), registry, obs);
    let admin_addr = match admin.map(|a| server.start_admin(&a)) {
        Some(Err(e)) => {
            eprintln!("provider: {e}");
            return 2;
        }
        Some(Ok(a)) => Some(a),
        None => None,
    };
    println!("listening on {addr}");
    if let Some(a) = admin_addr {
        println!("admin on {a}");
    }
    let _ = std::io::stdout().flush();
    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(20));
    }
    let report = server.drain();
    let c = server.counters();
    println!(
        "drain clean={} forced={} ms={} admitted={} completed={} shed={} reaped={}",
        report.clean, report.forced, report.drain_ms, c.admitted, c.completed, c.shed, c.reaped
    );
    if report.clean {
        0
    } else {
        3
    }
}

/// What a stopped provider reported about itself.
#[derive(Debug)]
pub struct ProviderExit {
    /// Process exit code (`None`: died to a signal).
    pub code: Option<i32>,
    pub clean: bool,
    pub admitted: u64,
    pub completed: u64,
    pub shed: u64,
    pub reaped: u64,
    /// Last lines of the provider's stderr.
    pub stderr_tail: String,
}

/// A running provider child. Dropping it kills and reaps the process.
pub struct Provider {
    child: Child,
    lines: Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
    stderr_path: PathBuf,
    pub addr: String,
    pub admin: Option<String>,
}

fn sibling(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("{} is not built (run benchmark/run.sh)", path.display()))
    }
}

impl Provider {
    /// Spawns the provider for `model` on an ephemeral port and waits for
    /// its `listening on` line (and `admin on`, when asked for).
    pub fn spawn(model: &str, admin: bool, tag: &str) -> Result<Provider, String> {
        let mut cmd = match model {
            LENET5 => {
                let mut c = Command::new(sibling("aq2pnn-serve")?);
                c.args(["--listen", "127.0.0.1:0", "--model", LENET5, "--max-sessions", "4"]);
                c
            }
            VGGTAIL => {
                let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
                let mut c = Command::new(exe);
                c.arg("provider");
                c
            }
            other => return Err(format!("no provider serves {other}")),
        };
        if admin {
            cmd.args(["--admin", "127.0.0.1:0"]);
        }
        let stderr_path = Path::new(OUT_DIR).join(format!("provider-{tag}.stderr"));
        let stderr = std::fs::File::create(&stderr_path)
            .map_err(|e| format!("{}: {e}", stderr_path.display()))?;
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn provider: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        // Reads until EOF, i.e. until the child exits: never blocks it on a
        // full pipe, and ends by itself.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut p = Provider {
            child,
            lines,
            reader: Some(reader),
            stderr_path,
            addr: String::new(),
            admin: None,
        };
        p.addr = p.expect_line("listening on ", Duration::from_secs(60))?;
        if admin {
            p.admin = Some(p.expect_line("admin on ", Duration::from_secs(5))?);
        }
        Ok(p)
    }

    fn expect_line(&mut self, prefix: &str, budget: Duration) -> Result<String, String> {
        let line = self
            .lines
            .recv_timeout(budget)
            .map_err(|_| format!("provider printed no {prefix:?} line: {}", self.stderr_tail()))?;
        line.strip_prefix(prefix)
            .map(str::to_owned)
            .ok_or_else(|| format!("unexpected provider line {line:?}"))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) of the provider, in MiB.
    pub fn vm_hwm_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    fn stderr_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.stderr_path).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }

    /// SIGTERMs the provider, waits for its drain line and exit, and
    /// returns what it reported. A provider that ignores the signal for
    /// 20 s is killed.
    pub fn stop(mut self) -> Result<ProviderExit, String> {
        signal_pid(self.pid(), "TERM")?;
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match self.child.try_wait().map_err(|e| format!("wait provider: {e}"))? {
                Some(status) => break status,
                None if Instant::now() >= deadline => {
                    return Err(format!("provider ignored SIGTERM: {}", self.stderr_tail()));
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        let drain = self
            .lines
            .try_iter()
            .find(|l| l.starts_with("drain "))
            .ok_or_else(|| format!("provider printed no drain line: {}", self.stderr_tail()))?;
        let field = |key: &str| -> Option<&str> {
            drain.split_whitespace().find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        };
        let count = |key: &str| -> Result<u64, String> {
            field(key).and_then(|v| v.parse().ok()).ok_or_else(|| format!("bad drain line {drain}"))
        };
        Ok(ProviderExit {
            code: status.code(),
            clean: field("clean") == Some("true"),
            admitted: count("admitted")?,
            completed: count("completed")?,
            shed: count("shed")?,
            reaped: count("reaped")?,
            stderr_tail: self.stderr_tail(),
        })
    }
}

impl Drop for Provider {
    fn drop(&mut self) {
        // Idempotent after `stop`: killing an exited, reaped child is a
        // no-op error we ignore.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// Delivers `sig` with `kill(1)`, like the repository's own process tests:
/// the workspace carries no libc binding.
pub fn signal_pid(pid: u32, sig: &str) -> Result<(), String> {
    let status = Command::new("kill")
        .args([format!("-{sig}"), pid.to_string()])
        .status()
        .map_err(|e| format!("run kill: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("kill -{sig} {pid} failed"))
    }
}
