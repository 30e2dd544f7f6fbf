//! The traced run: per-layer metrics from timing calls into each crate's
//! public functions on the workload's own inputs.
//!
//! Each workload names a grid slice (the cells its command sweeps) and a
//! query mix. Every layer is measured on those inputs where the workload
//! uses the layer, and on a small fixed probe where it does not (the
//! snapshot, unit and coordinator probes of the analytic and simulated
//! workloads, the 10³ grid behind the daemon's table layers), so each
//! metric exists on every workload and moves only where its layer runs.
//! The passes repeat until the run's time is used up; each metric is the
//! median over passes.

use crate::child::WordHash;
use crate::e2e::{args, cli_plan, sim_seed, Metric, ORCH_UNITS, SIM_REPS};
use crate::inputs::{self, MixQuery};
use crate::measure::{median, percentile, Tally};
use crate::spans::Recorder;
use crate::Env;
use resilience::{
    grid_spec, parse_snapshot, reference_scenarios, snapshot_of_entries, theorem4_batch,
    validation_scenarios, CostModel, OptimumCache, OptimumKey, PatternOptimum, Platform, Scenario,
    SweepSpec, Theorem,
};
use resilience_coord::{unit_range, CoordReport};
use resilience_service::protocol::{Query, Reply, Request, Response};
use resilience_service::{BatchConfig, Batcher, ServiceStats};
use serde::{Deserialize, Serialize};
use sim::executor::{CellResult, SimSettings, SweepExecutor};
use sim::{Backend, RunConfig};
use stats::table::{Align, TableFormat};
use stats::Fnv64;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::io::Write;
use std::ops::Range;
use std::time::Instant;

/// Rows rendered per chunk between executor and writer.
const CHUNK: usize = 4096;
/// Replications per engine × scenario measurement.
const ENGINE_REPS: u64 = 100_000;
/// Queries in the batcher and codec passes: 400 leaves twenty samples
/// beyond the p95.
const BATCHER_QUERIES: usize = 400;
/// Bare-start spawns per pass for `coord.spawn_s`.
const SPAWN_PROBES: usize = 11;
/// Fewest passes per traced run: the first is coverage's warm-up, and
/// coverage compares the fastest of the rest.
const MIN_PASSES: usize = 3;

/// The cells one workload sweeps, and how.
struct GridInput {
    per_axis: usize,
    range: Range<usize>,
    sim: Option<SimSettings>,
    /// The CLI command producing exactly these rows single-threaded.
    serial_cli: Vec<String>,
}

fn grid_input(workload: &str, env: &Env) -> GridInput {
    match workload {
        "grid-analytic" => GridInput {
            per_axis: 100,
            range: 0..1_000_000,
            sim: None,
            serial_cli: cli_plan(workload, env).serial,
        },
        "simulate" => GridInput {
            per_axis: 10,
            range: 0..1000,
            sim: Some(SimSettings {
                replications: SIM_REPS,
                threads_per_cell: 1,
                seed: sim_seed(env.seed),
                backend: Backend::Auto,
            }),
            serial_cli: cli_plan(workload, env).serial,
        },
        "orchestrate" => GridInput {
            per_axis: 100,
            range: unit_range(1_000_000, 0, 4),
            sim: None,
            serial_cli: args(&[
                "grid",
                "--grid-size",
                "100",
                "--shard",
                "0/4",
                "--threads",
                "1",
            ]),
        },
        // The daemon renders no tables: its table layers run on the 10³
        // grid's probe.
        _ => GridInput {
            per_axis: 10,
            range: 0..1000,
            sim: None,
            serial_cli: args(&["grid", "--grid-size", "10", "--threads", "1"]),
        },
    }
}

// The CLI's table path (`table_format`, `render_cells` and `render_table`
// in resilience-cli's main.rs) is private to the binary, so the traced run
// times a mirror of it. The mirror must change whenever the CLI's does:
// every pass byte-compares its output with the CLI's stdout, and
// `coverage.grid_ratio` must stay within `COVERAGE` of 1 on grid-analytic,
// so a drift in either bytes or cost fails the run.

/// How far `coverage.grid_ratio` may stray from 1 on grid-analytic.
const COVERAGE: f64 = 0.15;

/// The sweep table's column layout, as the CLI builds it.
fn table_format(simulated: bool) -> TableFormat {
    let mut fmt = TableFormat::new()
        .col("scenario", 20, Align::Left)
        .col("pattern", 9, Align::Left)
        .col("m", 3, Align::Right)
        .col("n", 3, Align::Right)
        .col("pv", 4, Align::Right)
        .col("W*(s)", 9, Align::Right)
        .col("H*(%)", 9, Align::Right);
    if simulated {
        fmt = fmt
            .col("sim(%) ± ci", 18, Align::Right)
            .col("ckpt/h", 8, Align::Right)
            .col("rec/d", 8, Align::Right);
    }
    fmt
}

/// One result row's cells, as the CLI renders them. The traced pipeline's
/// digest is checked against the CLI's stdout, so any drift from the CLI's
/// rendering shows up as a failure.
fn render_cells(r: &CellResult) -> Vec<String> {
    let pat = &r.optimum.pattern;
    let mut cells = vec![
        r.name.to_string(),
        r.theorem.label().to_string(),
        pat.guaranteed_verifs().to_string(),
        pat.partials_per_segment().to_string(),
        pat.partial_verifs().to_string(),
        format!("{:.0}", r.optimum.work()),
        format!("{:.3}", 100.0 * r.optimum.overhead),
    ];
    if let Some(rep) = &r.report {
        cells.push(format!(
            "{:.3} ± {:.3}",
            100.0 * rep.overhead.mean,
            100.0 * rep.overhead.ci95
        ));
        cells.push(format!("{:.2}", rep.checkpoints_per_hour()));
        cells.push(format!("{:.2}", rep.recoveries_per_day()));
    }
    cells
}

/// What one table pipeline pass produced.
struct Table {
    wall_s: f64,
    /// [`WordHash`] of the rendered bytes, comparable with a CLI's stdout.
    hash: u64,
    bytes: u64,
}

/// One table line, written as the CLI's `render_table` writes it: one
/// `writeln!` per line through a `dyn Write`.
fn emit(w: &mut dyn Write, line: &str) {
    writeln!(w, "{line}").expect("writing to memory cannot fail");
}

/// The CLI's table path in-process: a 1-worker executor streams results,
/// each rendered with `TableFormat::row` and written line by line through a
/// 64 KiB `BufWriter`, as `render_table` does into stdout. The writer's
/// flushed blocks land in memory and are digested with `Fnv64` (the
/// coordinator's verification step). Rows are rendered and written in
/// chunks so that a span brackets thousands of rows, not one; the harness's
/// own comparison digest gets a span of its own, so no layer is charged
/// for it.
fn table_pipeline(rec: &mut Recorder, spec: &SweepSpec, input: &GridInput) -> Table {
    let fmt = table_format(input.sim.is_some());
    let start = Instant::now();
    let mut out = std::io::BufWriter::with_capacity(1 << 16, Vec::<u8>::new());
    let mut digest = Fnv64::new();
    let mut check = WordHash::default();
    let mut bytes = 0u64;
    let mut lines: Vec<String> = Vec::with_capacity(CHUNK + 2);
    let mut chunk: Vec<CellResult> = Vec::with_capacity(CHUNK);
    let mut with_header = input.range.start == 0;
    let mut flush = |rec: &mut Recorder, chunk: &mut Vec<CellResult>, last: bool| {
        let span = rec.enter("table.render", None);
        if std::mem::take(&mut with_header) {
            lines.push(fmt.header());
            lines.push(fmt.rule());
        }
        lines.extend(chunk.drain(..).map(|r| fmt.row(&render_cells(&r))));
        rec.exit(span);
        let span = rec.enter("output.write", None);
        for line in lines.drain(..) {
            emit(&mut out, &line);
        }
        if last {
            out.flush().expect("flushing to memory cannot fail");
        }
        rec.exit(span);
        let flushed = out.get_mut();
        let span = rec.enter("coord.verify", None);
        digest.update(flushed);
        rec.exit(span);
        let span = rec.enter("harness.check", None);
        check.update(flushed);
        rec.exit(span);
        bytes += flushed.len() as u64;
        flushed.clear();
    };
    let exec = SweepExecutor::new(1);
    let span = rec.enter("executor.run", None);
    exec.run_streaming_range(spec, input.range.clone(), input.sim, |r| {
        chunk.push(r);
        if chunk.len() == CHUNK {
            flush(rec, &mut chunk, false);
        }
    });
    flush(rec, &mut chunk, true);
    // The CLI drops its executor, and with it the optimum cache, before it
    // exits: 0.08-0.13 s for the 10⁶-cell grid on a 2-vCPU AMD EPYC host.
    drop(exec);
    rec.exit(span);
    black_box(digest.digest());
    Table {
        wall_s: start.elapsed().as_secs_f64(),
        hash: check.finish(),
        bytes,
    }
}

/// Scenario labels for engine metrics: the set name plus the scenario name,
/// so the two different `atlas` scenarios stay two rows.
fn labelled_scenarios() -> Vec<(String, Scenario)> {
    let reference = reference_scenarios()
        .into_iter()
        .map(|s| (format!("reference.{}", s.name), s));
    let validation = validation_scenarios()
        .into_iter()
        .map(|s| (format!("validation.{}", s.name), s));
    reference.chain(validation).collect()
}

/// Whether every label in `labels` is distinct.
fn labels_unique<S: AsRef<str>>(labels: &[S]) -> bool {
    let mut seen = HashSet::new();
    labels.iter().all(|l| seen.insert(l.as_ref()))
}

/// Per-metric samples across passes; each is reported as its median.
#[derive(Default)]
struct Samples(BTreeMap<String, (Vec<f64>, &'static str)>);

impl Samples {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0
            .entry(name.into())
            .or_insert((Vec::new(), unit))
            .0
            .push(value);
    }

    fn medians(&self) -> Vec<Metric> {
        self.0
            .iter()
            .map(|(name, (xs, unit))| (name.clone(), median(xs), *unit))
            .collect()
    }
}

/// Distinct optimizer inputs of a cell range, in first-seen order.
fn distinct_inputs(spec: &SweepSpec, range: Range<usize>) -> Vec<(Platform, CostModel, Theorem)> {
    let mut seen = HashSet::new();
    spec.iter_range(range)
        .filter(|c| seen.insert(OptimumKey::new(&c.platform, &c.costs, c.theorem)))
        .map(|c| (c.platform, c.costs, c.theorem))
        .collect()
}

/// Runs the traced passes of one workload. Returns the per-layer metrics
/// and every pass's spans.
pub fn run_traced(workload: &str, env: &Env, tally: &mut Tally) -> (Vec<Metric>, Vec<Recorder>) {
    let input = grid_input(workload, env);
    let spec = grid_spec(input.per_axis);
    let distinct = distinct_inputs(&spec, input.range.clone());
    let mix = if workload == "serve" {
        inputs::query_mix(env.seed, 1, BATCHER_QUERIES)
    } else {
        inputs::sweep_cell_mix(env.seed, 5, input.per_axis, BATCHER_QUERIES)
    };
    // The snapshot layer: the orchestrator snapshots its slice's optima;
    // nothing else snapshots, so elsewhere it runs on the 10³ grid's.
    let snapshot_inputs = if workload == "orchestrate" {
        distinct.clone()
    } else {
        let probe = grid_spec(10);
        distinct_inputs(&probe, 0..probe.len())
    };
    let (unit_cmd, coord_cmd) = coord_commands(workload, env);
    let scenarios = labelled_scenarios();
    let labels: Vec<&str> = scenarios.iter().map(|(l, _)| l.as_str()).collect();
    tally.check(labels_unique(&labels), || {
        format!("engine scenario labels are not unique: {labels:?}")
    });

    let mut samples = Samples::default();
    let mut recorders = Vec::new();
    let (mut cov_stages, mut cov_cli) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < env.seconds {
        passes += 1;
        let mut rec = Recorder::new(true);
        analytic_layers(&mut rec, &spec, &input, &distinct, &mut samples);

        // The table path, traced and untraced, then the CLI doing the same.
        let traced = table_pipeline(&mut rec, &spec, &input);
        let untraced = table_pipeline(&mut Recorder::new(false), &spec, &input);
        let cli = env.run_cli(&input.serial_cli, tally);
        let ok = cli.as_ref().is_some_and(|f| {
            (f.stdout_hash, f.stdout_bytes) == (traced.hash, traced.bytes)
                && (untraced.hash, untraced.bytes) == (traced.hash, traced.bytes)
        });
        tally.check(ok, || {
            format!(
                "in-process table differs from `{}`",
                input.serial_cli.join(" ")
            )
        });
        let selfs = rec.self_times();
        let stage = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
        samples.add("executor.run_s", stage("executor.run"), "s");
        samples.add("table.render_s", stage("table.render"), "s");
        samples.add("output.write_s", stage("output.write"), "s");
        samples.add("coord.verify_s", stage("coord.verify"), "s");
        samples.add("output.bytes", traced.bytes as f64, "bytes");
        samples.add(
            "trace.overhead_ratio",
            traced.wall_s / untraced.wall_s,
            "ratio",
        );
        // The first pass is a warm-up for coverage: on a 2-vCPU AMD EPYC
        // host its ratio read 0.05-0.15 below every later pass's.
        if let Some(f) = cli.as_ref().filter(|_| passes > 1) {
            cov_stages.push(stage("executor.run") + stage("table.render") + stage("output.write"));
            cov_cli.push(f.wall_s);
        }

        let par = SweepExecutor::new(env.nproc);
        let workers = par.effective_workers(input.range.len());
        rec.time("executor.run_par", |_| {
            par.run_streaming_range(&spec, input.range.clone(), input.sim, |r| {
                black_box(&r);
            })
        });
        samples.add("executor.run_par_s", rec.total("executor.run_par"), "s");
        samples.add("executor.workers_used", workers as f64, "count");

        engine_layers(
            &mut rec,
            &scenarios,
            sim_seed(env.seed),
            tally,
            &mut samples,
        );
        snapshot_layer(&mut rec, &snapshot_inputs, tally, &mut samples);
        coord_layers(env, &unit_cmd, &coord_cmd, workload, tally, &mut samples);
        batcher_layer(&mut rec, &mix, tally, &mut samples);
        codec_layer(&mut rec, &mix, tally, &mut samples);
        recorders.push(rec);
    }
    // Coverage divides the fastest in-process stage sum by the fastest CLI
    // run. Host noise only ever adds time, so the two minima compare the
    // costs themselves; ratios of single passes scattered from 0.7 to 1.5
    // on a busy 2-vCPU AMD EPYC host, while the minima stayed within 0.95
    // to 1.0.
    let fastest = |xs: &[f64]| xs.iter().copied().reduce(f64::min);
    let ratio = fastest(&cov_stages)
        .zip(fastest(&cov_cli))
        .map(|(stages, cli)| stages / cli);
    if let Some(r) = ratio {
        samples.add("coverage.grid_ratio", r, "ratio");
    }
    if workload == "grid-analytic" {
        tally.check(ratio.is_some_and(|r| (r - 1.0).abs() <= COVERAGE), || {
            format!("coverage.grid_ratio {ratio:?} is not within {COVERAGE} of 1")
        });
    }
    (samples.medians(), recorders)
}

/// Expansion, derivation (scalar and batched) and the cache, each over the
/// workload's cells.
fn analytic_layers(
    rec: &mut Recorder,
    spec: &SweepSpec,
    input: &GridInput,
    distinct: &[(Platform, CostModel, Theorem)],
    samples: &mut Samples,
) {
    let cells = rec.time("sweep.expand", |_| {
        let mut n = 0usize;
        for c in spec.iter_range(input.range.clone()) {
            black_box(&c);
            n += 1;
        }
        n
    });
    samples.add("sweep.expand_s", rec.total("sweep.expand"), "s");
    samples.add("sweep.cells", cells as f64, "count");

    rec.time("optimal.derive", |_| {
        for (p, c, t) in distinct {
            black_box(t.optimize(p, c));
        }
    });
    let t4: Vec<(Platform, CostModel)> = distinct
        .iter()
        .filter(|(_, _, t)| *t == Theorem::Four)
        .map(|(p, c, _)| (*p, *c))
        .collect();
    rec.time("optimal.batch_derive", |_| black_box(theorem4_batch(&t4)));
    samples.add("optimal.derive_s", rec.total("optimal.derive"), "s");
    samples.add(
        "optimal.batch_derive_s",
        rec.total("optimal.batch_derive"),
        "s",
    );
    samples.add("optimal.distinct_keys", distinct.len() as f64, "count");

    let cache = OptimumCache::new();
    rec.time("cache", |_| {
        for c in spec.iter_range(input.range.clone()) {
            black_box(cache.optimum(&c.platform, &c.costs, c.theorem));
        }
    });
    let stats = cache.stats();
    let lookups = (stats.hits + stats.misses).max(1) as f64;
    samples.add("cache.hit_ratio", stats.hits as f64 / lookups, "ratio");
    samples.add("cache.hits", stats.hits as f64, "count");
    samples.add("cache.misses", stats.misses as f64, "count");
    samples.add("cache.entries", stats.entries as f64, "count");
}

/// Every engine on every labelled scenario's Theorem-4 optimum, one
/// stream each, plus the runner as the executor uses it (`auto` backend at
/// the simulate workload's replication count).
fn engine_layers(
    rec: &mut Recorder,
    scenarios: &[(String, Scenario)],
    seed: u64,
    tally: &mut Tally,
    samples: &mut Samples,
) {
    for (label, s) in scenarios {
        let optimum = Theorem::Four.optimize(&s.platform, &s.costs);
        for backend in [Backend::Event, Backend::Batch, Backend::Simd] {
            let cfg = RunConfig {
                replications: ENGINE_REPS,
                threads: 1,
                seed,
                backend,
                time_hist: None,
            };
            let t = Instant::now();
            let report = rec.time("engine.run", |_| {
                sim::run_replications(&optimum.pattern, &s.platform, &s.costs, &cfg)
            });
            let secs = t.elapsed().as_secs_f64();
            tally.check(report.replications == ENGINE_REPS, || {
                format!(
                    "{} on {label} ran {} replications",
                    backend.label(),
                    report.replications
                )
            });
            samples.add(
                format!("engine.{}.reps_per_s.{label}", backend.label()),
                ENGINE_REPS as f64 / secs,
                "reps/s",
            );
        }
    }
    let (_, hera) = &scenarios[0];
    let optimum = Theorem::Four.optimize(&hera.platform, &hera.costs);
    let cfg = RunConfig {
        replications: SIM_REPS,
        threads: 1,
        seed,
        backend: Backend::Auto,
        time_hist: None,
    };
    let t = Instant::now();
    let report = rec.time("runner.run", |_| {
        sim::run_replications(&optimum.pattern, &hera.platform, &hera.costs, &cfg)
    });
    samples.add("runner.run_s", t.elapsed().as_secs_f64(), "s");
    tally.check(report.replications == SIM_REPS, || {
        format!("runner ran {} replications", report.replications)
    });
}

/// Snapshot encode and parse of `inputs`' optima; the parse must give back
/// exactly the encoded entries.
fn snapshot_layer(
    rec: &mut Recorder,
    inputs: &[(Platform, CostModel, Theorem)],
    tally: &mut Tally,
    samples: &mut Samples,
) {
    let mut entries: Vec<(OptimumKey, PatternOptimum)> = inputs
        .iter()
        .map(|(p, c, t)| (OptimumKey::new(p, c, *t), t.optimize(p, c)))
        .collect();
    let text = rec.time("snapshot.encode", |_| snapshot_of_entries(&entries));
    let parsed = rec.time("snapshot.parse", |_| parse_snapshot(&text));
    entries.sort_unstable_by_key(|(k, _)| k.order_key());
    tally.check(parsed.as_ref() == Ok(&entries), || {
        "snapshot parse did not return the encoded entries".to_owned()
    });
    samples.add("snapshot.encode_s", rec.total("snapshot.encode"), "s");
    samples.add("snapshot.parse_s", rec.total("snapshot.parse"), "s");
    samples.add("snapshot.bytes", text.len() as f64, "bytes");
}

/// The unit command (`grid --shard J/M --trailer`) and coordinator command
/// a workload's coordinator layer runs: the orchestrate workload's own, a
/// 10³-grid probe elsewhere.
fn coord_commands(workload: &str, env: &Env) -> (Vec<String>, Vec<String>) {
    if workload == "orchestrate" {
        let shards = format!("0/{}", 4 * ORCH_UNITS);
        (
            args(&[
                "grid",
                "--grid-size",
                "100",
                "--shard",
                &shards,
                "--trailer",
            ]),
            cli_plan(workload, env).main,
        )
    } else {
        let n = env.nproc.to_string();
        (
            args(&["grid", "--grid-size", "10", "--shard", "0/8", "--trailer"]),
            args(&["orchestrate", "--grid-size", "10", "--workers", &n]),
        )
    }
}

/// Coordinator layers: a bare binary start, one worker unit, and one
/// coordinator run whose summary supplies the spawn and failure counters.
fn coord_layers(
    env: &Env,
    unit_cmd: &[String],
    coord_cmd: &[String],
    workload: &str,
    tally: &mut Tally,
    samples: &mut Samples,
) {
    let help = vec!["--help".to_owned()];
    let spawns: Vec<f64> = (0..SPAWN_PROBES)
        .filter_map(|_| env.run_cli(&help, tally).map(|f| f.wall_s))
        .collect();
    if !spawns.is_empty() {
        samples.add("coord.spawn_s", median(&spawns), "s");
    }
    if let Some(f) = env.run_cli(unit_cmd, tally) {
        tally.check(f.stderr.contains("\"event\":\"trailer\""), || {
            format!("`{}` wrote no trailer", unit_cmd.join(" "))
        });
        samples.add("coord.unit_s", f.wall_s, "s");
    }
    let Some(f) = env.run_cli(coord_cmd, tally) else {
        return;
    };
    let summary = f
        .stderr
        .lines()
        .find(|l| l.starts_with("{\"event\":\"summary\""))
        .map(CoordReport::from_json_str);
    let Some(Ok(report)) = summary else {
        tally.fail(format!("`{}` printed no summary", coord_cmd.join(" ")));
        return;
    };
    let injected = u64::from(workload == "orchestrate");
    tally.check(
        report.fail_stop_retries == injected && report.verify_failures == injected,
        || format!("coordinator counters are not exact: {report:?}"),
    );
    samples.add(
        "coord.workers_spawned",
        report.workers_spawned as f64,
        "count",
    );
    samples.add(
        "coord.fail_stop_retries",
        report.fail_stop_retries as f64,
        "count",
    );
    samples.add(
        "coord.verify_failures",
        report.verify_failures as f64,
        "count",
    );
    samples.add(
        "coord.useful_ratio",
        report.units as f64 / report.workers_spawned.max(1) as f64,
        "ratio",
    );
}

fn stats_of(batcher: &Batcher) -> Option<ServiceStats> {
    match batcher.query(Query::Stats) {
        Ok(Reply::Stats(s)) => Some(s),
        _ => None,
    }
}

/// The in-process batcher: a closed loop of single `Batcher::query` calls
/// (per-query latency), then the same queries submitted at once (how well
/// they coalesce). Every reply must equal the library's.
fn batcher_layer(rec: &mut Recorder, mix: &[MixQuery], tally: &mut Tally, samples: &mut Samples) {
    let batcher = Batcher::new(BatchConfig::default());
    let mut lat = Vec::with_capacity(mix.len());
    let mut bad = 0u64;
    for (q, id) in mix.iter().zip(1u64..) {
        let span = rec.enter("batcher.query", Some(id));
        let t = Instant::now();
        let reply = batcher.query(q.query.clone());
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        rec.exit(span);
        bad += u64::from(reply.as_ref() != Ok(&q.reply));
    }
    let before = stats_of(&batcher);
    let receivers: Vec<_> = rec.time("batcher.burst", |_| {
        mix.iter()
            .map(|q| batcher.submit(q.query.clone()))
            .collect()
    });
    for (rx, q) in receivers.into_iter().zip(mix) {
        let reply = rx
            .recv()
            .unwrap_or_else(|_| Err("batcher dropped a query".to_owned()));
        bad += u64::from(reply != Ok(q.reply.clone()));
    }
    let after = stats_of(&batcher);
    batcher.shutdown();
    tally.check_batch(2 * mix.len() as u64, bad, || {
        format!("{bad} in-process batcher replies differ from the library")
    });
    let (Some(before), Some(after)) = (before, after) else {
        tally.fail("the batcher answered no stats".to_owned());
        return;
    };
    let batches = (after.batches - before.batches).max(1) as f64;
    samples.add("batcher.query_p50_us", percentile(&lat, 50.0), "us");
    samples.add("batcher.query_p95_us", percentile(&lat, 95.0), "us");
    samples.add(
        "batcher.mean_batch",
        (after.requests - before.requests) as f64 / batches,
        "count",
    );
    samples.add(
        "batcher.coalesced_ratio",
        (after.coalesced_batches - before.coalesced_batches) as f64 / batches,
        "ratio",
    );
    samples.add("batcher.window_us", after.window_us as f64, "us");
}

/// The wire codec: parse each request line and render its response line,
/// per query; parsing must give back the query that was rendered.
fn codec_layer(rec: &mut Recorder, mix: &[MixQuery], tally: &mut Tally, samples: &mut Samples) {
    let lines: Vec<(u64, String)> = mix
        .iter()
        .zip(1u64..)
        .map(|(q, id)| {
            let req = Request {
                id,
                query: q.query.clone(),
            };
            (id, req.to_json_string())
        })
        .collect();
    let mut bad = 0u64;
    let t = Instant::now();
    for ((id, line), q) in lines.iter().zip(mix) {
        let span = rec.enter("protocol.codec", Some(*id));
        let parsed = Request::from_json_str(line);
        let out = Response {
            id: *id,
            outcome: Ok(q.reply.clone()),
        }
        .to_json_string();
        rec.exit(span);
        bad += u64::from(parsed.map(|r| r.query) != Ok(q.query.clone()) || out.is_empty());
    }
    let per_query_us = t.elapsed().as_secs_f64() * 1e6 / mix.len() as f64;
    tally.check_batch(mix.len() as u64, bad, || {
        format!("{bad} request lines did not parse back to their query")
    });
    samples.add("protocol.codec_us", per_query_us, "us");
}

/// The names of every per-layer metric, for the schema check.
pub fn metric_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "sweep.expand_s",
        "sweep.cells",
        "optimal.derive_s",
        "optimal.batch_derive_s",
        "optimal.distinct_keys",
        "cache.hit_ratio",
        "cache.hits",
        "cache.misses",
        "cache.entries",
        "executor.run_s",
        "executor.run_par_s",
        "executor.workers_used",
        "table.render_s",
        "output.write_s",
        "output.bytes",
        "runner.run_s",
        "snapshot.encode_s",
        "snapshot.parse_s",
        "snapshot.bytes",
        "coord.spawn_s",
        "coord.unit_s",
        "coord.verify_s",
        "coord.workers_spawned",
        "coord.fail_stop_retries",
        "coord.verify_failures",
        "coord.useful_ratio",
        "batcher.query_p50_us",
        "batcher.query_p95_us",
        "batcher.mean_batch",
        "batcher.coalesced_ratio",
        "batcher.window_us",
        "protocol.codec_us",
        "trace.overhead_ratio",
        "coverage.grid_ratio",
    ]
    .map(str::to_owned)
    .to_vec();
    for (label, _) in labelled_scenarios() {
        for engine in ["event", "batch", "simd"] {
            names.push(format!("engine.{engine}.reps_per_s.{label}"));
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_labels_are_unique_although_names_repeat() {
        let scenarios = labelled_scenarios();
        let names: Vec<&str> = scenarios.iter().map(|(_, s)| s.name).collect();
        assert!(
            !labels_unique(&names),
            "the raw names are expected to collide"
        );
        let labels: Vec<&str> = scenarios.iter().map(|(l, _)| l.as_str()).collect();
        assert!(labels_unique(&labels));
        assert!(labels.contains(&"reference.atlas") && labels.contains(&"validation.atlas"));
    }

    #[test]
    fn metric_names_are_unique() {
        let names = metric_names();
        assert!(labels_unique(&names));
        assert_eq!(names.len(), 34 + 18);
    }
}
