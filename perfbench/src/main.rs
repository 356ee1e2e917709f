//! `ascetic-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a human summary to stderr and, as the last line of stdout, one
//! JSON object: `correct`, `attempted`, `failed` and the `metrics` of the
//! chosen mode (end-to-end with `--trace 0`, per-layer with `--trace 1`).

use std::process::ExitCode;

use ascetic_perfbench::harness::Params;
use ascetic_perfbench::metrics::{per_layer_defs, result_line, END_TO_END};
use ascetic_perfbench::report::{describe_end_to_end, describe_layers, end_to_end, per_layer};
use ascetic_perfbench::spans::Spans;
use ascetic_perfbench::workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value} (traverse|iterate|churn|serve)"
                ))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    eprintln!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let params = |seconds, traced| Params {
        seed: args.seed,
        seconds,
        traced,
        tiny: false,
    };
    let line = if args.trace {
        // Half the time untraced, half traced: their wall difference is the
        // tracing overhead.
        let half = args.seconds / 2.0;
        let plain = w.run(&params(half, false), &mut Spans::new(false));
        let mut spans = Spans::new(true);
        let traced = w.run(&params(half, true), &mut spans);
        let m = per_layer(&traced, &plain, spans.spans());
        eprint!("{}", describe_layers(w.name(), spans.spans(), &m));
        write_spans(w, args.seed, &spans);
        let defs: Vec<_> = per_layer_defs()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        let failed = plain.failed + traced.failed;
        let attempted = plain.attempted + traced.attempted;
        result_line(failed == 0, attempted, failed, &m, &defs)
    } else {
        let o = w.run(&params(args.seconds, false), &mut Spans::new(false));
        let m = end_to_end(&o);
        eprint!("{}", describe_end_to_end(w.name(), &o, &m));
        let defs: Vec<_> = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), d.unit))
            .collect();
        result_line(o.failed == 0, o.attempted, o.failed, &m, &defs)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// Write the traced run's spans beside the crate, under `out/`.
fn write_spans(w: Workload, seed: u64, spans: &Spans) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{seed}.spans.jsonl", w.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_jsonl())) {
        Ok(()) => eprintln!("spans: {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}
