//! Runs a traced aging workload and exports the combined Chrome-trace /
//! metrics JSON document (loadable in Perfetto via "Open trace file").
//!
//! Usage:
//!
//! ```text
//! trace [--scale full|report|smoke] [--kind fs|db|log]
//!       [--out <file>] [--validate] [--capacity <spans>]
//! ```
//!
//! The run is the latency-anatomy workload
//! ([`lor_bench::traced_anatomy_config`]): three closed-loop clients with
//! think time over an aged store of any of the three substrates, with the
//! placement-aware gap-filling maintenance policy enabled so the server,
//! background-slice, disk and maintenance-scheduler tracks all carry events
//! (the log adds its cleaner track).  `--validate` feeds
//! the exported document back through `lor_obs::validate_chrome_trace`
//! (real JSON syntax pass, per-track monotonicity, span nesting) and fails
//! the process on any violation — this is the CI smoke gate for the
//! export format.  A ring too small for the run (`--capacity`) drops its
//! oldest records: the document counts them (`droppedSpans`,
//! `droppedMetricSamples`) and a `warning:` line on stderr says so.

use std::path::PathBuf;

use lor_bench::{traced_anatomy_config, Scale};
use lor_core::lor_disksim::SimDuration;
use lor_core::lor_obs::{validate_chrome_trace, Obs};
use lor_core::{bulk_load, overwrite_round, StoreKind, StoreServer, WorkloadGenerator};

struct Options {
    scale: Scale,
    scale_name: String,
    kind: StoreKind,
    out: Option<PathBuf>,
    validate: bool,
    capacity: usize,
}

/// The `--kind` name of a substrate.  The match is exhaustive, so a new
/// substrate does not compile until it is named here, and the usage and
/// error texts list whatever [`StoreKind::ALL`] holds.
fn kind_name(kind: StoreKind) -> &'static str {
    match kind {
        StoreKind::Filesystem => "fs",
        StoreKind::Database => "db",
        StoreKind::LogStructured => "log",
    }
}

fn kind_names() -> String {
    StoreKind::ALL.map(kind_name).join("|")
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        scale: Scale::smoke(),
        scale_name: "smoke".to_string(),
        kind: StoreKind::Filesystem,
        out: None,
        validate: false,
        capacity: 1 << 20,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().ok_or("--scale needs a value")?;
                options.scale = Scale::by_name(&value)
                    .ok_or_else(|| format!("unknown scale {value:?} (use full|report|smoke)"))?;
                options.scale_name = value;
            }
            "--kind" => {
                let value = args.next().ok_or("--kind needs a value")?;
                options.kind = StoreKind::ALL
                    .into_iter()
                    .find(|kind| {
                        value == kind_name(*kind) || value.eq_ignore_ascii_case(kind.label())
                    })
                    .ok_or_else(|| format!("unknown kind {value:?} (use {})", kind_names()))?;
            }
            "--out" => {
                options.out = Some(PathBuf::from(args.next().ok_or("--out needs a file")?));
            }
            "--validate" => options.validate = true,
            "--capacity" => {
                options.capacity = args
                    .next()
                    .ok_or("--capacity needs a value")?
                    .parse()
                    .map_err(|e| format!("--capacity: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: trace [--scale full|report|smoke] [--kind {}] \
                     [--out <file>] [--validate] [--capacity <spans>]",
                    kind_names()
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

fn run() -> Result<(), String> {
    let options = parse_args()?;
    let scale = &options.scale;

    let config = traced_anatomy_config(scale);
    config.validate().map_err(|e| e.to_string())?;

    eprintln!(
        "tracing a {} aging run at scale '{}' (volume {} MB, storage age {})",
        options.kind.label(),
        options.scale_name,
        config.volume_bytes >> 20,
        scale.max_age
    );

    let (obs, handle) = Obs::trace(options.capacity);
    let mut store = config
        .build_store(options.kind)
        .map_err(|e| e.to_string())?;
    let mut generator = WorkloadGenerator::new(config.workload());
    let mut server = StoreServer::new(store.as_mut());
    server.set_obs(obs, SimDuration::from_millis(100));
    bulk_load(&mut server, &mut generator, |_| ()).map_err(|e| e.to_string())?;
    for _ in 0..scale.max_age {
        overwrite_round(&mut server, &mut generator, &config, |_| ()).map_err(|e| e.to_string())?;
    }

    let json = handle.to_chrome_json();
    eprintln!(
        "captured {} spans and {} metric samples",
        handle.span_count(),
        handle.metric_count()
    );
    let (dropped_spans, dropped_metrics) = (handle.dropped_spans(), handle.dropped_metrics());
    if dropped_spans > 0 || dropped_metrics > 0 {
        // The document says so too (`droppedSpans`, `droppedMetricSamples`).
        eprintln!(
            "warning: the ring dropped the oldest {dropped_spans} spans and {dropped_metrics} \
             metric samples; the trace is incomplete (--capacity is {})",
            options.capacity
        );
    }

    if options.validate {
        let check = validate_chrome_trace(&json)?;
        eprintln!(
            "validated: {} span events on {} tracks, {} counter events, {} metric series",
            check.span_events, check.tracks, check.counter_events, check.metric_series
        );
        if check.span_events == 0 || check.tracks < 2 {
            return Err(format!(
                "trace is implausibly empty: {} span events on {} tracks",
                check.span_events, check.tracks
            ));
        }
    }

    match &options.out {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| e.to_string())?;
            eprintln!("wrote {}", path.display());
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn main() {
    if let Err(message) = run() {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}
