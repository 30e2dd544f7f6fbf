//! End-to-end measurements, with tracing off: the release binary is spawned
//! (and, for `serve`, driven over TCP) exactly as a user would run it.
//!
//! Every workload reports the same eight metrics; see the README for what
//! each one means on each workload. Set-up is measured several times per
//! run and reported as a median; the main command alternates with its
//! single-worker twin until the run's time is used up.

use crate::child::{self, Finished};
use crate::inputs::{self, MixQuery};
use crate::measure::{median, percentile, relative_spread, tail_percentile, Tally};
use crate::Env;
use resilience_coord::CoordReport;
use resilience_service::protocol::{Query, Reply, Request, Response};
use serde::{Deserialize, Serialize, Value};
use sim::executor::SweepExecutor;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// A run's metrics plus, per sampled metric, its sample count and
/// within-run spread (interquartile range over median).
pub struct Measured {
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// `{metric: {"samples": n, "iqr_over_median": x}}`.
    pub spread: Value,
    /// Workers the main command actually ran on: the threaded side of the
    /// threaded-over-serial ratio.
    pub workers_used: usize,
    /// Share of the daemon's queries that repeat an earlier one (`serve`).
    pub repeat_share: Option<f64>,
}

/// Set-up probes before each main/serial pair of a CLI run. Spreading them
/// over the run, instead of taking them all at once, keeps one noisy moment
/// of the host from deciding the run's set-up and latency figures. Each
/// round's 200 probes give a p95 with ten samples beyond it; the run
/// reports the median of the rounds' p95s, so a noisy round moves the tail
/// no more than a quiet one.
const CLI_PROBES_PER_ROUND: usize = 200;
/// Set-up probes (daemon start and shutdown) before each serve session.
const SERVE_PROBES_PER_SESSION: usize = 10;
/// Fewest alternating main/serial pairs a CLI run measures.
const MIN_PAIRS: usize = 3;
/// Replications per cell of the `simulate` workload: far above the 20,000
/// at which `auto` leaves the event engine.
pub const SIM_REPS: u64 = 200_000;
/// Work units the orchestrate workload splits its slice into.
pub const ORCH_UNITS: usize = 8;
/// Closed-loop queries per daemon session (phase A).
const SERVE_CLOSED: usize = 10;
/// Fewest daemon sessions per serve run: twenty give phase A the 200
/// samples a p95 needs. The daemon's CPU varies from session to session
/// with how its threads interleave, so a run takes many short sessions
/// rather than a few long ones.
const MIN_SESSIONS: usize = 20;
/// Queries per pipelined burst (phase B) and bursts per session.
const BURST: usize = 10_000;
const BURSTS: usize = 3;
/// Socket deadline: a wedged daemon becomes a counted failure, not a hang.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The seed the CLI's simulations run with, derived from the workload seed.
pub fn sim_seed(seed: u64) -> u64 {
    inputs::Rng::new(seed, 2).next_u64() >> 1
}

/// The CLI argument lists of one workload.
pub struct CliPlan {
    /// The command users run, at the host's parallelism.
    pub main: Vec<String>,
    /// The same command with one thread or worker.
    pub serial: Vec<String>,
    /// The same command at `--grid-size 1`: its fixed per-invocation cost,
    /// and the smallest request the CLI takes (its round trip).
    pub probe: Vec<String>,
    /// Optimum queries (cells) one main command answers.
    pub cells: f64,
}

/// An owned argument list.
pub fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

/// The argument lists for the CLI workloads.
pub fn cli_plan(workload: &str, env: &Env) -> CliPlan {
    let n = env.nproc.to_string();
    match workload {
        "grid-analytic" => CliPlan {
            main: args(&["grid", "--grid-size", "100", "--threads", &n]),
            serial: args(&["grid", "--grid-size", "100", "--threads", "1"]),
            probe: args(&["grid", "--grid-size", "1", "--threads", &n]),
            cells: 1e6,
        },
        "simulate" => {
            let reps = SIM_REPS.to_string();
            let seed = sim_seed(env.seed).to_string();
            let sim = |size: &str, threads: &str| {
                args(&[
                    "grid",
                    "--grid-size",
                    size,
                    "--reps",
                    &reps,
                    "--seed",
                    &seed,
                    "--threads",
                    threads,
                ])
            };
            CliPlan {
                main: sim("10", &n),
                serial: sim("10", "1"),
                probe: sim("1", &n),
                cells: 1e3,
            }
        }
        "orchestrate" => {
            let seed = (inputs::Rng::new(env.seed, 4).next_u64() >> 1).to_string();
            let plan = inputs::fault_plan(env.seed, ORCH_UNITS, 250_000 / ORCH_UNITS as u64);
            let units = ORCH_UNITS.to_string();
            let orch = |workers: &str| {
                args(&[
                    "orchestrate",
                    "--grid-size",
                    "100",
                    "--shard",
                    "0/4",
                    "--workers",
                    workers,
                    "--units",
                    &units,
                    "--seed",
                    &seed,
                    "--fault-plan",
                    &plan,
                ])
            };
            CliPlan {
                main: orch(&n),
                serial: orch("1"),
                probe: args(&["orchestrate", "--grid-size", "1", "--workers", &n]),
                cells: 250_000.0,
            }
        }
        other => unreachable!("not a CLI workload: {other}"),
    }
}

impl Env {
    /// A command for the CLI under test. Temporary files (the orchestrator's
    /// optimum snapshot) land in the harness's output directory.
    pub fn cli(&self, args: &[String]) -> Command {
        let mut cmd = Command::new(&self.cli);
        cmd.args(args).env("TMPDIR", self.tmp_dir());
        cmd
    }

    /// Runs the CLI to completion; a failed spawn or nonzero exit is a
    /// counted failure and yields `None`.
    pub fn run_cli(&self, args: &[String], tally: &mut Tally) -> Option<Finished> {
        let what = args.join(" ");
        match child::run(&mut self.cli(args), &self.tmp_dir()) {
            Ok(f) if f.ok() => Some(f),
            Ok(f) => {
                tally.fail(f.describe_failure(&what));
                None
            }
            Err(e) => {
                tally.fail(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// What a CLI workload's outputs must match.
enum Expected {
    /// Every output equals the first one (threaded, serial and repeats).
    Same(Option<(u64, u64)>),
    /// Output equals a reference run, and the coordinator's summary reports
    /// exactly the injected faults.
    Orchestrated { digest: (u64, u64), units: u64 },
}

impl Expected {
    fn check(&mut self, f: &Finished, what: &str, tally: &mut Tally) {
        let got = (f.stdout_hash, f.stdout_bytes);
        match self {
            Expected::Same(first) => {
                let want = *first.get_or_insert(got);
                tally.check(got == want, || {
                    format!("{what}: stdout differs ({got:x?} vs {want:x?})")
                });
            }
            Expected::Orchestrated { digest, units } => {
                tally.check(got == *digest, || {
                    format!("{what}: merged stdout differs from grid --shard 0/4")
                });
                let summary = f
                    .stderr
                    .lines()
                    .find(|l| l.starts_with("{\"event\":\"summary\""))
                    .map(CoordReport::from_json_str);
                let exact = matches!(&summary, Some(Ok(r))
                    if r.fail_stop_retries == 1
                        && r.verify_failures == 1
                        && r.units == *units
                        && r.inproc_fallbacks == 0);
                tally.check(exact, || {
                    format!("{what}: summary is not exactly one retry and one verify failure: {summary:?}")
                });
            }
        }
    }
}

/// Runs one CLI workload for the configured time.
pub fn run_cli_workload(workload: &str, env: &Env, tally: &mut Tally) -> Measured {
    let plan = cli_plan(workload, env);
    let mut expected = if workload == "orchestrate" {
        let reference = args(&["grid", "--grid-size", "100", "--shard", "0/4"]);
        let digest = env
            .run_cli(&reference, tally)
            .map_or((0, 0), |f| (f.stdout_hash, f.stdout_bytes));
        Expected::Orchestrated {
            digest,
            units: ORCH_UNITS as u64,
        }
    } else {
        Expected::Same(None)
    };

    let start = Instant::now();
    let mut probe_expected = Expected::Same(None);
    let (mut probes, mut round_tails) = (Vec::new(), Vec::new());
    let (mut wall, mut cpu, mut rss, mut serial) = (vec![], vec![], vec![], vec![]);
    let mut pair = 0;
    while pair < MIN_PAIRS || start.elapsed().as_secs_f64() < env.seconds {
        let mut round = Vec::with_capacity(CLI_PROBES_PER_ROUND);
        for _ in 0..CLI_PROBES_PER_ROUND {
            if let Some(f) = env.run_cli(&plan.probe, tally) {
                probe_expected.check(&f, "set-up probe", tally);
                round.push(f.wall_s);
            }
        }
        if !round.is_empty() {
            round_tails.push(latency_ms(&round).1);
        }
        probes.extend(round);
        // Alternate which side runs first so neither always follows the
        // other's cache and page-cache footprint.
        for serial_side in [pair % 2 == 1, pair % 2 == 0] {
            let cmd = if serial_side {
                &plan.serial
            } else {
                &plan.main
            };
            if let Some(f) = env.run_cli(cmd, tally) {
                expected.check(&f, &cmd.join(" "), tally);
                if serial_side {
                    serial.push(f.wall_s);
                } else {
                    wall.push(f.wall_s);
                    cpu.push(f.cpu_s);
                    rss.push(f.peak_rss_mb);
                }
            }
        }
        pair += 1;
    }
    let qps: Vec<f64> = wall.iter().map(|w| plan.cells / w).collect();
    // What the CLI resolves `--threads nproc` to over its cells, and the
    // coordinator `--workers nproc` to over its units.
    let workers_used = if workload == "orchestrate" {
        env.nproc.min(ORCH_UNITS)
    } else {
        SweepExecutor::new(env.nproc).effective_workers(plan.cells as usize)
    };
    let latency = (latency_ms(&probes).0, median_or_nan(&round_tails));
    Measured {
        workers_used,
        ..report(&wall, &serial, &cpu, &rss, &probes, &probes, latency, &qps)
    }
}

fn median_or_nan(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        median(xs)
    }
}

/// Mean, for CPU time: it adds up over samples, and a stall that slows one
/// sample's wall clock does not inflate its CPU, so no outlier needs the
/// median's protection and the mean settles faster.
fn mean_or_nan(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Latency percentiles in ms: the median and the p95 (or, with too few
/// samples for a p95 with ten beyond it, the highest such percentile).
fn latency_ms(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let tail = tail_percentile(samples.len()).map_or(100.0, |p| p.min(95.0));
    (
        1e3 * percentile(samples, 50.0),
        1e3 * percentile(samples, tail),
    )
}

/// The eight metrics from a run's samples; `(p50, p95)` are the round trip
/// percentiles in ms, and `rtt` their samples, for the spread.
#[allow(clippy::too_many_arguments)]
fn report(
    wall: &[f64],
    serial: &[f64],
    cpu: &[f64],
    rss: &[f64],
    setup: &[f64],
    rtt: &[f64],
    (p50, p95): (f64, f64),
    qps: &[f64],
) -> Measured {
    let spread = |name: &str, xs: &[f64]| {
        let iqr = if xs.len() >= 2 {
            Value::from_f64(relative_spread(xs))
        } else {
            Value::Null
        };
        let entry = Value::obj(vec![
            ("samples", xs.len().to_json()),
            ("iqr_over_median", iqr),
        ]);
        (name.to_owned(), entry)
    };
    Measured {
        metrics: vec![
            ("wall_s".into(), median_or_nan(wall), "s"),
            ("serial_wall_s".into(), median_or_nan(serial), "s"),
            ("cpu_s".into(), mean_or_nan(cpu), "s"),
            ("peak_rss_mb".into(), median_or_nan(rss), "MB"),
            ("setup_s".into(), median_or_nan(setup), "s"),
            ("rtt_p50_ms".into(), p50, "ms"),
            ("rtt_p95_ms".into(), p95, "ms"),
            ("queries_per_s".into(), median_or_nan(qps), "q/s"),
        ],
        spread: Value::Obj(vec![
            spread("wall_s", wall),
            spread("serial_wall_s", serial),
            spread("cpu_s", cpu),
            spread("setup_s", setup),
            spread("rtt", rtt),
            spread("queries_per_s", qps),
        ]),
        workers_used: 1,
        repeat_share: None,
    }
}

/// A running daemon: its process and the address it announced.
/// Dropping it before [`Daemon::shut_down`] has reaped the process kills
/// and reaps it, so no error path leaves a daemon behind.
struct Daemon {
    child: std::process::Child,
    stderr: BufReader<std::process::ChildStderr>,
    addr: String,
    spawned: Instant,
    listening_s: f64,
    reaped: bool,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = child::reap(&self.child);
        }
    }
}

impl Daemon {
    fn start(env: &Env) -> Result<Daemon, String> {
        let spawned = Instant::now();
        let mut child = env
            .cli(&args(&["serve", "--port", "0"]))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn serve: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().ok_or("serve stderr not piped")?);
        let mut line = String::new();
        let announced = stderr.read_line(&mut line);
        let listening_s = spawned.elapsed().as_secs_f64();
        let addr = line.trim().strip_prefix("listening on ").map(str::to_owned);
        let daemon = Daemon {
            child,
            stderr,
            addr: addr.clone().unwrap_or_default(),
            spawned,
            listening_s,
            reaped: false,
        };
        match (announced, addr) {
            (Ok(_), Some(_)) => Ok(daemon),
            _ => Err(format!("serve did not announce its port: {line:?}")),
        }
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
            .map_err(|e| format!("socket deadline: {e}"))?;
        // A large buffer drains each burst in few reads, so the client's
        // read pace disturbs the daemon's write pattern as little as it can.
        let reader =
            BufReader::with_capacity(1 << 20, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
            line: String::new(),
        })
    }

    /// Sends `shutdown` on `conn`, checks the acknowledgement, and reaps the
    /// daemon. Returns (spawn-to-exit wall, CPU, peak RSS).
    fn shut_down(mut self, conn: &mut Conn, id: u64) -> Result<(f64, f64, f64), String> {
        let ack = conn.roundtrip(&Request {
            id,
            query: Query::Shutdown,
        });
        let acked = ack.as_deref().map(Response::from_json_str);
        let ok = matches!(&acked, Ok(Ok(r)) if r.outcome == Ok(Reply::ShuttingDown));
        if !ok {
            let _ = self.child.kill();
        }
        let mut rest = String::new();
        let _ = self.stderr.read_to_string(&mut rest);
        let usage = child::reap(&self.child).map_err(|e| format!("reap serve: {e}"))?;
        self.reaped = true;
        let wall = self.spawned.elapsed().as_secs_f64();
        if !ok {
            return Err(format!("shutdown not acknowledged: {acked:?}"));
        }
        if usage.code != Some(0) {
            return Err(format!("serve exited with {:?}: {rest}", usage.code));
        }
        Ok((wall, usage.cpu_s, usage.peak_rss_mb))
    }
}

/// One client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    /// Writes one request line and reads one response line.
    fn roundtrip(&mut self, req: &Request) -> Result<String, String> {
        let line = req.to_json_string() + "\n";
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write request {}: {e}", req.id))?;
        self.read_line(req.id)
    }

    fn read_line(&mut self, id: u64) -> Result<String, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err(format!("connection closed before response {id}")),
            Ok(_) => Ok(self.line.trim_end_matches('\n').to_owned()),
            Err(e) => Err(format!("read response {id}: {e}")),
        }
    }
}

/// Request lines and the byte-exact response lines a direct library call
/// renders for them, ids numbered from `first_id`.
fn wire(mix: &[MixQuery], first_id: u64) -> (Vec<String>, Vec<String>) {
    mix.iter()
        .zip(first_id..)
        .map(|(q, id)| {
            let req = Request {
                id,
                query: q.query.clone(),
            };
            let resp = Response {
                id,
                outcome: Ok(q.reply.clone()),
            };
            (req.to_json_string(), resp.to_json_string())
        })
        .unzip()
}

/// Runs the serve workload for the configured time.
pub fn run_serve_workload(env: &Env, tally: &mut Tally) -> Measured {
    let mix = inputs::query_mix(env.seed, 1, SERVE_CLOSED + BURST * BURSTS);
    let (requests, responses) = wire(&mix, 1);
    let start = Instant::now();

    let (mut wall, mut cpu, mut rss, mut closed_wall) = (vec![], vec![], vec![], vec![]);
    let (mut rtt, mut qps) = (vec![], vec![]);
    let mut setup = Vec::new();
    let mut sessions = 0;
    while sessions < MIN_SESSIONS || start.elapsed().as_secs_f64() < env.seconds {
        sessions += 1;
        for _ in 0..SERVE_PROBES_PER_SESSION {
            let probe = Daemon::start(env).and_then(|d| {
                let listening = d.listening_s;
                let mut conn = d.connect()?;
                d.shut_down(&mut conn, 0)?;
                Ok(listening)
            });
            match probe {
                Ok(s) => {
                    tally.check(true, String::new);
                    setup.push(s);
                }
                Err(e) => tally.fail(format!("serve set-up probe: {e}")),
            }
        }
        let session = Daemon::start(env).and_then(|d| {
            let mut conn = d.connect()?;
            let phase_a = Instant::now();
            for (i, (req, want)) in requests[..SERVE_CLOSED].iter().zip(&responses).enumerate() {
                let sent = Instant::now();
                conn.writer
                    .write_all(format!("{req}\n").as_bytes())
                    .map_err(|e| format!("write: {e}"))?;
                let got = conn.read_line(i as u64 + 1)?;
                rtt.push(sent.elapsed().as_secs_f64());
                tally.check(got == *want, || {
                    format!("closed-loop reply {}: {got}", i + 1)
                });
            }
            closed_wall.push(phase_a.elapsed().as_secs_f64());
            for b in 0..BURSTS {
                let lo = SERVE_CLOSED + b * BURST;
                let secs = burst(
                    &mut conn,
                    &requests[lo..lo + BURST],
                    &responses[lo..lo + BURST],
                    tally,
                )?;
                qps.push(BURST as f64 / secs);
            }
            let stats = conn.roundtrip(&Request {
                id: u64::MAX - 1,
                query: Query::Stats,
            })?;
            let stats_ok = matches!(Response::from_json_str(&stats),
                Ok(Response { outcome: Ok(Reply::Stats(s)), .. })
                    if s.requests >= (SERVE_CLOSED + BURST * BURSTS) as u64);
            tally.check(stats_ok, || format!("stats reply: {stats}"));
            d.shut_down(&mut conn, u64::MAX)
        });
        match session {
            Ok((w, c, r)) => {
                tally.check(true, String::new);
                wall.push(w);
                cpu.push(c);
                rss.push(r);
            }
            Err(e) => tally.fail(format!("serve session: {e}")),
        }
    }
    Measured {
        repeat_share: Some(inputs::repeat_share(&mix)),
        ..report(
            &wall,
            &closed_wall,
            &cpu,
            &rss,
            &setup,
            &rtt,
            latency_ms(&rtt),
            &qps,
        )
    }
}

/// Phase B: writes every request in one pipelined write, then reads and
/// byte-checks the responses in order. One thread suffices: the daemon's
/// reader half keeps consuming requests while its writer half waits for
/// this client to read, so the write cannot stall. Returns the seconds from
/// the first byte sent to the last response read.
fn burst(
    conn: &mut Conn,
    requests: &[String],
    responses: &[String],
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut payload = requests.join("\n");
    payload.push('\n');
    let start = Instant::now();
    conn.writer
        .write_all(payload.as_bytes())
        .map_err(|e| format!("burst write: {e}"))?;
    let mut mismatches = 0u64;
    let mut first_bad = None;
    for (i, want) in responses.iter().enumerate() {
        let got = conn.read_line(i as u64)?;
        if got != *want {
            mismatches += 1;
            first_bad.get_or_insert(got);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    tally.check_batch(responses.len() as u64, mismatches, || {
        format!("{mismatches} burst replies differ, first: {first_bad:?}")
    });
    Ok(secs)
}
