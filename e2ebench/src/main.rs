//! One repetition of one end-to-end benchmark workload: XML text in,
//! delivered matches out.
//!
//! ```text
//! e2ebench rep    --workload <name> --seed <n> [--scale full|smoke] [--setups <k>] [--trace-out <file>]
//! e2ebench verify --workload <name> --seed <n> [--scale full|smoke]
//! ```
//!
//! `rep` generates the workload from the seed, sets the engine up `k` times,
//! runs the closed loop once and prints one JSON object of raw measurements:
//! every set-up time, and the time of every batch and subscription in
//! script order. With `--trace-out` it also records
//! spans, writes them to the file as JSON lines and adds the per-layer
//! breakdown. `verify` runs each of the workload's reference engines on the
//! same input and prints the digests the measured runs must reproduce. `run.py`
//! drives both and aggregates the repetitions.

mod closed_loop;
mod inputs;

use closed_loop::{set_up, Engine, Outcome, Span, Tracer};
use inputs::{Scale, Step, Workload};
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    command: String,
    workload: String,
    seed: u64,
    scale: Scale,
    setups: usize,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command: rep or verify")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 0,
        scale: Scale::Full,
        setups: 1,
        trace_out: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--setups" => args.setups = value.parse().map_err(|_| "bad --setups")?,
            "--trace-out" => args.trace_out = Some(value),
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(format!("unknown scale {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = inputs::build(&args.workload, args.seed, args.scale) else {
        eprintln!(
            "e2ebench: unknown workload {:?}; expected one of {:?}",
            args.workload,
            inputs::WORKLOADS
        );
        return ExitCode::from(2);
    };
    let fields = match args.command.as_str() {
        "rep" => rep(workload, &args),
        "verify" => verify(workload, &args),
        other => {
            eprintln!("e2ebench: unknown command {other}");
            return ExitCode::from(2);
        }
    };
    println!("{}", to_json(&fields));
    ExitCode::SUCCESS
}

enum Value {
    Num(f64),
    Str(String),
    List(Vec<f64>),
}

type Fields = Vec<(String, Value)>;

fn num(fields: &mut Fields, name: &str, v: f64) {
    fields.push((name.to_owned(), Value::Num(v)));
}

fn text(fields: &mut Fields, name: &str, v: String) {
    fields.push((name.to_owned(), Value::Str(v)));
}

fn list(fields: &mut Fields, name: &str, v: Vec<f64>) {
    fields.push((name.to_owned(), Value::List(v)));
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        x.to_string()
    } else {
        "null".to_owned()
    }
}

fn to_json(fields: &Fields) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| match v {
            Value::Num(x) => format!("\"{k}\": {}", json_num(*x)),
            Value::Str(s) => format!("\"{k}\": \"{s}\""),
            Value::List(v) => {
                let items: Vec<String> = v.iter().map(|x| json_num(*x)).collect();
                format!("\"{k}\": [{}]", items.join(", "))
            }
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Run each reference engine on its checked prefix of the input. Prints
/// the references' digests and prefix lengths, in order, and the failed
/// operations of all of them.
fn verify(first: Workload, args: &Args) -> Fields {
    let (mut digests, mut prefixes, mut failed) = (Vec::new(), Vec::new(), 0);
    let references = first.references.clone();
    let mut unused = Some(first);
    for (config, prefix_docs) in references {
        // Each reference run consumes its own copy of the inputs.
        let mut w = unused.take().unwrap_or_else(|| {
            inputs::build(&args.workload, args.seed, args.scale).expect("a known workload")
        });
        w.config = config;
        let mut docs = 0;
        let mut keep = 0;
        for step in &w.steps {
            keep += 1;
            if let Step::Batch(batch) = step {
                docs += batch.len();
                if docs >= prefix_docs {
                    break;
                }
            }
        }
        w.steps.truncate(keep);
        let (mut engine, ids, setup_failed) = set_up(&w, w.initial.clone());
        let out = closed_loop::run(w, &mut engine, ids, None);
        digests.push(out.digest.hex());
        prefixes.push(out.docs as f64);
        failed += setup_failed + out.failed + out.ts_lost;
    }
    let mut f = Fields::new();
    text(&mut f, "digests", digests.join(" "));
    list(&mut f, "docs", prefixes);
    num(&mut f, "failed", failed as f64);
    f
}

fn rep(w: Workload, args: &Args) -> Fields {
    let rss_before = proc_status_kb("VmRSS");
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..args.setups.max(1) {
        // Drop the previous engine first, so that set-ups do not overlap.
        drop(built.take());
        let queries = w.initial.clone();
        let t0 = Instant::now();
        let engine = set_up(&w, queries);
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some(engine);
    }
    let Some((mut engine, ids, setup_failed)) = built else {
        unreachable!("at least one set-up ran")
    };
    let initial = w.initial.len() as u64;
    let mut tracer = args.trace_out.as_ref().map(|_| Tracer::new(Instant::now()));
    let out = closed_loop::run(w, &mut engine, ids, tracer.as_mut());
    let peak_mb = (proc_status_kb("VmHWM") - rss_before) / 1024.0;

    let mut f = Fields::new();
    num(&mut f, "docs", out.docs as f64);
    num(&mut f, "loop_ms", out.loop_time.as_secs_f64() * 1e3);
    num(
        &mut f,
        "docs_per_s",
        out.docs as f64 / out.loop_time.as_secs_f64(),
    );
    list(&mut f, "batch_ms", out.batch_ms.clone());
    list(
        &mut f,
        "batch_docs",
        out.batch_docs.iter().map(|&n| n as f64).collect(),
    );
    list(&mut f, "subscribe_ms", out.subscribe_ms.clone());
    list(&mut f, "setup_s", setup_s);
    num(&mut f, "peak_rss_mb", peak_mb);
    num(&mut f, "attempted", (out.attempted + initial) as f64);
    num(&mut f, "failed", (out.failed + setup_failed) as f64);
    num(&mut f, "ts_lost", out.ts_lost as f64);
    text(&mut f, "digest", out.digest.hex());
    let checkpoints: Vec<String> = out
        .checkpoints
        .iter()
        .map(|d| d.map_or_else(|| "none".to_owned(), |d| d.hex()))
        .collect();
    text(&mut f, "checkpoint_digests", checkpoints.join(" "));
    num(&mut f, "matches", out.digest.count() as f64);
    if let (Some(tracer), Some(path)) = (tracer, &args.trace_out) {
        f.extend(layers(
            &tracer.spans,
            &out,
            matches!(engine, Engine::Sharded(_)),
        ));
        if let Err(e) = write_spans(path, &tracer.spans) {
            eprintln!("e2ebench: cannot write spans to {path}: {e}");
        }
    }
    f
}

/// A field of `/proc/self/status`, in KiB.
fn proc_status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// Per-layer self times and counts, from the spans of one traced run.
///
/// A `process` span's children are the engine's own phases, read from the
/// `stats()` deltas taken at its boundary. For one engine its self time is
/// the call time no phase accounts for; for the sharded engine it is the
/// call time beyond the busiest shard's phases (dispatch, queue wait, merge
/// and sort), since the shards' phases run in parallel.
fn layers(spans: &[Span], out: &Outcome, sharded: bool) -> Fields {
    const PHASES: [&str; 10] = [
        "xpath_ms",
        "ingest_ms",
        "rvj_ms",
        "rl_ms",
        "rr_ms",
        "conjunctive_ms",
        "materialize_ms",
        "output_ms",
        "maintenance_ms",
        "recovery_ms",
    ];
    let sum = |name: &str| -> f64 { spans.iter().filter(|s| s.name == name).map(Span::ms).sum() };
    let calls: Vec<&Span> = spans.iter().filter(|s| s.name == "process").collect();
    let phase = |p: &str| -> f64 { calls.iter().map(|s| s.count(p)).sum() };
    let count = |c: &str| -> f64 { calls.iter().map(|s| s.count(c)).sum() };

    let call_ms = sum("process");
    let (mut busy_max, mut coordination, mut stage1_total) = (0.0, 0.0, 0.0);
    let mut shard_busy: Vec<f64> = Vec::new();
    let mut unaccounted = 0.0;
    for s in &calls {
        let phases: f64 = PHASES.iter().map(|p| s.count(p)).sum();
        if sharded {
            let max = s.shards.iter().map(|&(b, _)| b).fold(0.0, f64::max);
            busy_max += max;
            coordination += s.ms() - max;
            stage1_total += s.shards.iter().map(|&(_, st)| st).sum::<f64>();
            shard_busy.resize(shard_busy.len().max(s.shards.len()), 0.0);
            for (acc, &(b, _)) in shard_busy.iter_mut().zip(&s.shards) {
                *acc += b;
            }
        } else {
            unaccounted += s.ms() - phases;
        }
    }
    if sharded {
        unaccounted = coordination;
    }
    let skew = if shard_busy.is_empty() {
        0.0
    } else {
        let mean = shard_busy.iter().sum::<f64>() / shard_busy.len() as f64;
        shard_busy.iter().fold(0.0, |a: f64, &b| a.max(b)) / mean.max(f64::MIN_POSITIVE)
    };
    let parse_ms = sum("parse");
    let bytes: f64 = spans
        .iter()
        .filter(|s| s.name == "parse")
        .map(|s| s.count("bytes"))
        .sum();
    let (hits, misses) = (count("view_cache_hits"), count("view_cache_misses"));
    let end = out.end_stats.as_ref().map(|s| s.total).unwrap_or_default();
    let wall_ms = out.loop_time.as_secs_f64() * 1e3;
    let accounted = parse_ms
        + call_ms
        + sum("consume")
        + sum("drop")
        + sum("register")
        + sum("unregister")
        + sum("stats");

    let mut f = Fields::new();
    let mut put = |name: &str, v: f64| num(&mut f, name, v);
    put("xml.parse_ms", parse_ms);
    put(
        "xml.mb_per_s",
        bytes / 1e6 / (parse_ms / 1e3).max(f64::MIN_POSITIVE),
    );
    put("xpath.stage1_ms", phase("xpath_ms"));
    put("xpath.patterns", end.distinct_patterns as f64);
    put("ingest.ms", phase("ingest_ms"));
    put("stage2.rvj_ms", phase("rvj_ms"));
    put("stage2.rl_ms", phase("rl_ms"));
    put("stage2.rr_ms", phase("rr_ms"));
    put("stage2.conjunctive_ms", phase("conjunctive_ms"));
    put("stage2.materialize_ms", phase("materialize_ms"));
    put("stage2.rows_materialized", count("rows_materialized"));
    put(
        "view_cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    put("view_cache.invalidated", count("view_slices_invalidated"));
    put("output.build_ms", phase("output_ms"));
    put(
        "output.matches",
        spans.iter().map(|s| s.count("matches")).sum(),
    );
    put("deliver.consume_ms", sum("consume"));
    put("deliver.drop_ms", sum("drop"));
    put("state.maintenance_ms", phase("maintenance_ms"));
    put(
        "state.rows_resident",
        (end.rbin_tuples + end.rdoc_tuples) as f64,
    );
    put("state.rows_evicted", count("state_rows_evicted"));
    put("state.docs_retained", end.docs_retained as f64);
    put("registry.register_ms", sum("register"));
    put("registry.unregister_ms", sum("unregister"));
    put("registry.templates", end.templates as f64);
    put("engine.call_ms", call_ms);
    put("engine.unaccounted_ms", unaccounted);
    put("shard.busy_max_ms", busy_max);
    put("shard.skew", skew);
    put("shard.coordination_ms", coordination);
    put("shard.stage1_total_ms", stage1_total);
    put("trace.stats_ms", sum("stats"));
    put("loop.wall_ms", wall_ms);
    put("closure.residual_frac", (wall_ms - accounted) / wall_ms);
    f
}

/// Write the spans as JSON lines: name, start and end (ns from the start of
/// the run), parent span index, batch group and the attached counts.
fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let mut f = Fields::new();
        num(&mut f, "id", i as f64);
        text(&mut f, "name", s.name.to_owned());
        num(&mut f, "start_ns", s.start_ns as f64);
        num(&mut f, "end_ns", s.end_ns as f64);
        num(&mut f, "parent", s.parent.map_or(-1.0, |p| p as f64));
        num(&mut f, "group", s.group as f64);
        for &(name, v) in &s.counts {
            num(&mut f, name, v);
        }
        for (shard, &(busy, stage1)) in s.shards.iter().enumerate() {
            num(&mut f, &format!("shard{shard}_busy_ms"), busy);
            num(&mut f, &format!("shard{shard}_stage1_ms"), stage1);
        }
        writeln!(w, "{}", to_json(&f))?;
    }
    w.flush()
}
