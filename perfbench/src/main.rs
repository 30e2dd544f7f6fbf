//! The repository's benchmark: end-to-end and per-layer metrics for
//! `resilience-cli`, measured from outside the program.
//!
//! ```text
//! perfbench --cli PATH --out DIR --workload NAME --seed N --seconds S --trace 0|1
//!           [--commit REV]
//! ```
//!
//! `--trace 0` spawns the release binary (and drives `serve` over TCP) and
//! reports the end-to-end metrics; `--trace 1` times each layer in-process
//! with the span recorder and reports the per-layer metrics. `--workload
//! all` runs every workload both ways. The last stdout line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`; the lines
//! before it list every metric with its unit and the host's provenance.
//! `perfbench/README.md` documents the workloads and metrics, and
//! `perfbench/run.sh` builds everything and runs this binary.

mod child;
mod e2e;
mod inputs;
mod layers;
mod measure;
mod spans;

use e2e::{Measured, Metric};
use measure::Tally;
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::process::exit;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["grid-analytic", "simulate", "orchestrate", "serve"];

/// The end-to-end metrics every workload reports with `--trace 0`.
const E2E_METRICS: [&str; 8] = [
    "wall_s",
    "serial_wall_s",
    "cpu_s",
    "peak_rss_mb",
    "setup_s",
    "rtt_p50_ms",
    "rtt_p95_ms",
    "queries_per_s",
];

/// Where the programs under test are and what one run measures.
pub struct Env {
    /// The release `resilience-cli` binary.
    pub cli: PathBuf,
    /// Directory for captured stderr, temporary files, spans and results.
    pub out: PathBuf,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long one run measures.
    pub seconds: f64,
    /// Host parallelism: the thread, worker and connection budget.
    pub nproc: usize,
}

impl Env {
    /// Temporary files: captured stderr and the programs' own temporaries.
    fn tmp_dir(&self) -> PathBuf {
        self.out.join("tmp")
    }
}

struct Args {
    env: Env,
    workload: String,
    trace: bool,
    commit: String,
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    exit(2)
}

fn parse_args() -> Args {
    let mut cli = None;
    let mut out = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut commit = "unknown".to_owned();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--cli" => cli = Some(PathBuf::from(value())),
            "--out" => out = Some(PathBuf::from(value())),
            "--workload" => workload = Some(value()),
            "--seed" => seed = Some(parse_num::<u64>(&flag, &value())),
            "--seconds" => seconds = Some(parse_num::<u32>(&flag, &value())),
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    other => die(&format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--commit" => commit = value(),
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| die("--workload is required"));
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        die(&format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?} or all"
        ));
    }
    let cli = cli.unwrap_or_else(|| die("--cli PATH is required"));
    if !cli.is_file() {
        die(&format!("no resilience-cli binary at {}", cli.display()));
    }
    let seconds = seconds.unwrap_or_else(|| die("--seconds is required"));
    if seconds == 0 {
        die("--seconds must be at least 1");
    }
    Args {
        env: Env {
            cli,
            out: out.unwrap_or_else(|| die("--out DIR is required")),
            seed: seed.unwrap_or_else(|| die("--seed is required")),
            seconds: f64::from(seconds),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
        workload,
        trace: trace.unwrap_or_else(|| die("--trace is required")),
        commit,
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        die(&format!(
            "{flag}: expected a non-negative integer, got {s:?}"
        ))
    })
}

/// The host's CPU model, from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The benchmark's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric as `{"value": .., "unit": ..}`.
fn result_value(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Value {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            let entry = Value::obj(vec![
                ("value", Value::from_f64(*value)),
                ("unit", unit.to_json()),
            ]);
            (name.clone(), entry)
        })
        .collect();
    Value::obj(vec![
        ("correct", correct.to_json()),
        ("attempted", attempted.to_json()),
        ("failed", failed.to_json()),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// Records a failure for every expected metric that is missing or not a
/// finite number.
fn check_metrics(metrics: &[Metric], expected: &[String], tally: &mut Tally) {
    for name in expected {
        let value = metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1);
        tally.check(value.is_some_and(f64::is_finite), || {
            format!("metric {name} is missing or not finite: {value:?}")
        });
    }
}

/// One workload, traced or not: its metrics, checked for completeness,
/// with the within-run spread of the sampled end-to-end metrics.
fn run_workload(workload: &str, trace: bool, env: &Env, tally: &mut Tally) -> Measured {
    if trace {
        let (metrics, recorders) = layers::run_traced(workload, env, tally);
        let spans = Value::Arr(recorders.iter().map(spans::Recorder::to_json).collect());
        let path = env
            .out
            .join(format!("spans-{workload}-seed{}.json", env.seed));
        if let Err(e) = std::fs::write(&path, spans.render()) {
            tally.fail(format!("write {}: {e}", path.display()));
        }
        check_metrics(&metrics, &layers::metric_names(), tally);
        let workers_used = metrics
            .iter()
            .find(|m| m.0 == "executor.workers_used")
            .map_or(1, |m| m.1 as usize);
        Measured {
            metrics,
            spread: Value::Null,
            workers_used,
            repeat_share: None,
        }
    } else {
        let measured = if workload == "serve" {
            e2e::run_serve_workload(env, tally)
        } else {
            e2e::run_cli_workload(workload, env, tally)
        };
        let expected: Vec<String> = E2E_METRICS.iter().map(|s| (*s).to_owned()).collect();
        check_metrics(&measured.metrics, &expected, tally);
        measured
    }
}

/// Host and build provenance, sample spreads and the failure summary, for
/// one result.
fn provenance(
    args: &Args,
    workload: &str,
    trace: bool,
    tally: &Tally,
    measured: &Measured,
) -> Value {
    let get = |name: &str| measured.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
    // A threaded-over-serial ratio only means something when the threaded
    // side really ran on more than one worker.
    let workers_used = measured.workers_used;
    let ratio = match (get("serial_wall_s"), get("wall_s")) {
        (Some(serial), Some(wall)) if !trace && workers_used > 1 => Value::from_f64(serial / wall),
        _ => Value::Null,
    };
    Value::obj(vec![
        ("workload", workload.to_json()),
        ("seed", args.env.seed.to_json()),
        ("seconds", args.env.seconds.to_json()),
        ("trace", trace.to_json()),
        ("nproc", args.env.nproc.to_json()),
        ("available_parallelism", args.env.nproc.to_json()),
        ("cpu_model", cpu_model().to_json()),
        (
            "simd_supported",
            sim::SimdEngine::runtime_supported().to_json(),
        ),
        ("commit", args.commit.to_json()),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_json(),
        ),
        ("workers_used", workers_used.to_json()),
        ("threaded_over_serial", ratio),
        ("mix_repeat_share", measured.repeat_share.to_json()),
        ("spread", measured.spread.clone()),
        ("failed_frac", tally.failed_frac().to_json()),
        ("failures", tally.messages().to_vec().to_json()),
    ])
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for (name, value, unit) in metrics {
        println!("{workload:<14} {name:<44} {value:>16.6} {unit}");
    }
}

fn main() {
    let args = parse_args();
    if let Err(e) = std::fs::create_dir_all(args.env.tmp_dir()) {
        die(&format!(
            "cannot create {}: {e}",
            args.env.tmp_dir().display()
        ));
    }
    let runs: Vec<(&str, bool)> = if args.workload == "all" {
        WORKLOADS
            .iter()
            .flat_map(|w| [(*w, false), (*w, true)])
            .collect()
    } else {
        vec![(args.workload.as_str(), args.trace)]
    };

    let mut all_metrics = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (workload, trace) in &runs {
        let mut tally = Tally::default();
        let measured = run_workload(workload, *trace, &args.env, &mut tally);
        print_metrics(workload, &measured.metrics);
        let prov = provenance(&args, workload, *trace, &tally, &measured);
        let metrics = measured.metrics;
        println!(
            "{}",
            Value::obj(vec![("provenance", prov.clone())]).render()
        );
        for msg in tally.messages() {
            eprintln!("perfbench: {workload}: FAILED: {msg}");
        }
        let result = result_value(
            tally.failed() == 0,
            tally.attempted(),
            tally.failed(),
            &metrics,
        );
        let path = args.env.out.join(format!(
            "result-{workload}-seed{}-trace{}.json",
            args.env.seed,
            u8::from(*trace)
        ));
        let record = Value::obj(vec![("provenance", prov), ("result", result)]);
        if let Err(e) = std::fs::write(&path, record.render() + "\n") {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        attempted += tally.attempted();
        failed += tally.failed();
        if runs.len() == 1 {
            all_metrics = metrics;
        } else {
            all_metrics.extend(
                metrics
                    .into_iter()
                    .map(|(name, v, unit)| (format!("{workload}/{name}"), v, unit)),
            );
        }
    }
    let correct = failed == 0;
    println!(
        "{}",
        result_value(correct, attempted, failed, &all_metrics).render()
    );
    if !correct {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    fn sample() -> Vec<Metric> {
        vec![
            ("latency_ms".to_owned(), 1.2034, "ms"),
            ("setup_s".to_owned(), 0.000_812_7, "s"),
        ]
    }

    #[test]
    fn result_has_exactly_the_contract_keys() {
        let v = result_value(true, 1000, 0, &sample());
        let Value::Obj(fields) = &v else {
            panic!("result must be an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").expect("metrics");
        let latency = m.get("latency_ms").expect("latency");
        assert_eq!(latency.read::<f64>("value").expect("value"), 1.2034);
        assert_eq!(latency.read::<String>("unit").expect("unit"), "ms");
    }

    #[test]
    fn result_round_trips_through_the_json_layer() {
        let v = result_value(false, 7, 2, &sample());
        let text = v.render();
        assert!(!text.contains('\n'), "the result must be one line");
        let back = serde::parse(&text).expect("result parses");
        assert_eq!(back, v);
        assert!(!bool::from_json(back.get("correct").expect("correct")).expect("bool"));
        assert_eq!(back.read::<u64>("attempted").expect("attempted"), 7);
        assert_eq!(back.read::<u64>("failed").expect("failed"), 2);
        // Every digit survives: values are not rounded on the way out.
        let setup = back
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup");
        assert_eq!(setup.read::<f64>("value").expect("value"), 0.000_812_7);
    }

    #[test]
    fn missing_or_nonfinite_metrics_count_as_failures() {
        let mut tally = Tally::default();
        let metrics = vec![("a".to_owned(), 1.0, "s"), ("b".to_owned(), f64::NAN, "s")];
        let expected = ["a", "b", "c"].map(str::to_owned);
        check_metrics(&metrics, &expected, &mut tally);
        assert_eq!((tally.attempted(), tally.failed()), (3, 2));
    }
}
