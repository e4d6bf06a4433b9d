//! # lor-bench — regenerating every table and figure of the paper
//!
//! Every experiment of the evaluation section (Section 5) of *Fragmentation
//! in Large Object Repositories* is one protocol — bulk load, safe-write
//! overwrite rounds, measure at a storage age — swept over one variable, so
//! every figure family here is a declaration over one sweep runner
//! (`aging_sweep`) and is listed once, in [`FAMILIES`].  The families are
//! parameterised by a [`Scale`], and [`render_figures`] renders what the
//! `figures` binary prints at any of them:
//!
//! * `tests/smoke_golden.rs` renders every family at smoke scale in process
//!   and requires the text to equal `golden/figures_smoke.txt` byte for
//!   byte, so `cargo test` pins every simulated result the smoke run
//!   reaches;
//! * CI diffs `figures`' output at report and paper scale against
//!   `golden/`, and `tests/paper_claims.rs` checks the paper's claims, and
//!   every scenario family's down to the log cleaner's, on those two
//!   goldens;
//! * the unit tests below check what no golden carries: the scales'
//!   parameters, the sweep runner's order and errors, and the latency
//!   anatomy's attribution on the raw reports.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use lor_core::lor_disksim::SimDuration;
use lor_core::lor_logstore::CleanerSelector;
use lor_core::{
    age_store, bulk_load, calibrate_mixed_load, measure_mixed_load_calibrated, overwrite_round,
    run_aging_experiment, AgePoint, AgingResult, AllocationPolicy, AnatomyReport, Arrivals,
    Completion, ExperimentConfig, Figure, FleetParallelism, LatencySummary, LogObjectStore,
    LogStoreConfig, MaintenanceConfig, MixedLoadPoint, MixedOpenLoop, ObjectKey, OpenLoop,
    PlacementPolicy, Series, SizeDistribution, StoreError, StoreKind, StoreServer, Table,
    TestbedConfig, WorkloadGenerator, WorkloadOp,
};
use lor_shard::{fanout_p99_ms, RouterPolicy, ShardedStore};

/// Scale factor applied to the paper's volume sizes.
///
/// `1.0` reproduces the paper's 40 GB (and, for Figure 6, 400 GB) volumes;
/// smaller values shrink the volume while keeping occupancy, object sizes and
/// write-request sizes unchanged, which the paper's own Section 5.4 argues
/// preserves behaviour as long as the pool of free objects stays large.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Multiplier applied to volume capacities.
    pub volume_factor: f64,
    /// Multiplier applied to object sizes (1.0 in the paper; smaller only at
    /// smoke scale).
    pub object_factor: f64,
    /// Maximum storage age to simulate for the long-aging figures.
    pub max_age: u32,
    /// How many objects to read when measuring read throughput.
    pub read_sample: Option<usize>,
    /// Largest fleet the shard sweep grows to (the sweep doubles from 2 up
    /// to this size).  Report and full scale reach the 64-shard fleets the
    /// scaling story is about; smoke scale stops much earlier.
    pub max_fleet: u32,
}

impl Scale {
    /// Full paper scale (40 GB working volume, storage age up to 10).
    pub fn full() -> Self {
        Scale {
            volume_factor: 1.0,
            object_factor: 1.0,
            max_age: 10,
            read_sample: Some(400),
            max_fleet: 64,
        }
    }

    /// Report scale used by default in the `figures` binary: one tenth of the
    /// paper's volumes, same object sizes, same ages.
    pub fn report() -> Self {
        Scale {
            volume_factor: 0.1,
            object_factor: 1.0,
            max_age: 10,
            read_sample: Some(200),
            max_fleet: 64,
        }
    }

    /// Smoke scale for CI: the smallest runs that still exercise every
    /// scenario code path, so `figures --scale smoke` keeps the binaries from
    /// silently rotting without slowing the pipeline down.
    pub fn smoke() -> Self {
        Scale {
            volume_factor: 0.002,
            object_factor: 0.25,
            max_age: 2,
            read_sample: Some(8),
            max_fleet: 4,
        }
    }

    /// The scale the binaries' `--scale` option names
    /// (`full|report|smoke`).
    pub fn by_name(name: &str) -> Option<Scale> {
        match name {
            "full" => Some(Scale::full()),
            "report" => Some(Scale::report()),
            "smoke" => Some(Scale::smoke()),
            _ => None,
        }
    }

    /// Fleet sizes the shard sweep visits: doubling from 2 up to
    /// [`Scale::max_fleet`] (report scale: 2, 4, 8, 16, 32, 64).
    pub fn fleet_sizes(&self) -> Vec<u32> {
        let mut sizes = Vec::new();
        let mut size = 2u32;
        while size <= self.max_fleet.max(2) {
            sizes.push(size);
            size *= 2;
        }
        sizes
    }

    fn volume(&self, paper_bytes: u64) -> u64 {
        ((paper_bytes as f64) * self.volume_factor).max(16.0 * 1024.0 * 1024.0) as u64
    }

    fn object(&self, paper_bytes: u64) -> u64 {
        ((paper_bytes as f64) * self.object_factor).max(64.0 * 1024.0) as u64
    }

    /// Ages at which the long-aging figures sample (0, 1, …, `max_age`).
    pub fn age_points(&self) -> Vec<u32> {
        (0..=self.max_age).collect()
    }
}

const PAPER_VOLUME: u64 = 40_000_000_000;
const PAPER_LARGE_VOLUME: u64 = 400_000_000_000;

/// The paper's two systems, in the order its figures list them.
const PAPER_KINDS: [StoreKind; 2] = [StoreKind::Database, StoreKind::Filesystem];

/// The paper's two systems plus the log-structured substrate.
const ALL_KINDS: [StoreKind; 3] = [
    StoreKind::Database,
    StoreKind::Filesystem,
    StoreKind::LogStructured,
];

/// The paper's base experiment at `scale`: constant-size objects of
/// `paper_object_bytes` on the 40 GB volume at 50% occupancy (both scaled).
pub fn paper_config(scale: &Scale, paper_object_bytes: u64) -> ExperimentConfig {
    let object = SizeDistribution::Constant(scale.object(paper_object_bytes));
    let mut config = ExperimentConfig::paper_default(object);
    config.volume_bytes = scale.volume(PAPER_VOLUME);
    config.read_sample = scale.read_sample;
    config
}

/// The think-time workload the gap-filling maintenance scenarios share: 2 MB
/// objects, three closed-loop clients, 400 ms per-client think time —
/// utilisation well under 1, so the spindle sees genuine idle gaps.
fn think_time_config(scale: &Scale) -> ExperimentConfig {
    let mut config = paper_config(scale, 2 << 20);
    config.concurrency = 3;
    config.think_time_ms = 400.0;
    config
}

/// Every `(a, b)` pair, `a`-major.
fn cross<A: Clone, B: Clone>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    a.iter()
        .flat_map(|a| b.iter().map(move |b| (a.clone(), b.clone())))
        .collect()
}

/// Runs one closure per item on its own scoped thread, preserving result
/// order; the first error in item order fails the whole map.
///
/// Every figure is a sweep of independent experiments over configurations,
/// so the sweeps parallelise embarrassingly; this is what makes
/// `figures --scale full` tolerable on a laptop.  `std::thread::scope` keeps
/// it dependency-free.
fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Result<Vec<R>, StoreError>
where
    T: Send,
    R: Send,
    F: Fn(T) -> Result<R, StoreError> + Sync,
{
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("figure worker panicked"))
            .collect()
    })
}

/// One aging run of a sweep: the substrate, the variant and its result.
type AgingRun<V> = (StoreKind, V, AgingResult);

/// The one sweep runner behind every aging figure: one aging experiment per
/// `(substrate, variant)`, each on its own thread, returned substrate-major
/// with the variants in the order given.
fn aging_sweep<V: Clone + Send>(
    kinds: &[StoreKind],
    variants: &[V],
    config: impl Fn(&V) -> ExperimentConfig + Sync,
    ages: &[u32],
    measure_reads: bool,
) -> Result<Vec<AgingRun<V>>, StoreError> {
    parallel_map(cross(kinds, variants), |(kind, variant)| {
        let result = run_aging_experiment(kind, &config(&variant), ages, measure_reads)?;
        Ok((kind, variant, result))
    })
}

/// The runs of a substrate-major sweep over `kinds`, one slice per substrate.
fn by_kind<'a, T>(
    kinds: &'a [StoreKind],
    runs: &'a [T],
) -> impl Iterator<Item = (StoreKind, &'a [T])> {
    let per_kind = (runs.len() / kinds.len()).max(1);
    kinds.iter().copied().zip(runs.chunks(per_kind))
}

/// One series per substrate of a sweep, one point per variant.
fn kind_series<'a, V>(
    kinds: &'a [StoreKind],
    runs: &'a [AgingRun<V>],
    point: impl Fn(&V, &AgingResult) -> (f64, f64) + 'a,
) -> impl Iterator<Item = Series> + 'a {
    by_kind(kinds, runs).map(move |(kind, runs)| {
        let points = runs.iter().map(|(_, v, result)| point(v, result)).collect();
        Series::new(kind.label(), points)
    })
}

/// The last (most aged) checkpoint of a run.
fn aged(result: &AgingResult) -> &AgePoint {
    result.points.last().expect("a sweep measures an age")
}

/// The fragments-per-object series of an aging run, labelled by substrate.
fn fragments_vs_age(result: &AgingResult) -> Series {
    Series::vs_age(result, "", |point| Some(point.fragments_per_object))
}

/// `series` under the legend label the family plots it with (the `Series`
/// constructors label by substrate).
fn labelled(mut series: Series, label: impl Into<String>) -> Series {
    series.label = label.into();
    series
}

/// A figure holding `series`.
fn figure(
    id: impl Into<String>,
    title: impl Into<String>,
    x_label: &str,
    y_label: &str,
    series: impl IntoIterator<Item = Series>,
) -> Figure {
    let mut figure = Figure::new(id, title, x_label, y_label);
    figure.series.extend(series);
    figure
}

/// One fragments-vs-age figure per substrate of a sweep, one series per
/// variant; `id` and `title` name a substrate's figure from its position and
/// kind, `label` a variant's series.
fn fragmentation_panels<V>(
    kinds: &[StoreKind],
    runs: &[AgingRun<V>],
    id: impl Fn(usize, StoreKind) -> String,
    title: impl Fn(StoreKind) -> String,
    label: impl Fn(&V) -> String,
) -> Vec<Figure> {
    by_kind(kinds, runs)
        .enumerate()
        .map(|(panel, (kind, runs))| {
            figure(
                id(panel, kind),
                title(kind),
                "Storage Age",
                "Fragments/object",
                runs.iter()
                    .map(|(_, v, result)| labelled(fragments_vs_age(result), label(v))),
            )
        })
        .collect()
}

/// Table 1: the configuration of the (simulated) test system.
pub fn table1() -> Table {
    Table::new(
        "Table 1",
        "Configuration of the simulated test system (substitution for the paper's hardware)",
        TestbedConfig::simulated().rows,
    )
}

/// Figure 1: read throughput after bulk load and after two and four
/// overwrites, for 256 KB, 512 KB and 1 MB objects.
///
/// Returns one figure per storage age (the paper's three panels).
fn figure1(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let sizes = [256u64 << 10, 512 << 10, 1 << 20];
    let ages = [0u32, 2, 4];
    let runs = aging_sweep(
        &PAPER_KINDS,
        &sizes,
        |&size| paper_config(scale, size),
        &ages,
        true,
    )?;
    let panel_titles = [
        "Read Throughput After Bulk Load",
        "Read Throughput After Two Overwrites",
        "Read Throughput After Four Overwrites",
    ];
    Ok(ages
        .iter()
        .zip(panel_titles)
        .enumerate()
        .map(|(panel, (&age, title))| {
            figure(
                format!("Figure 1.{}", panel + 1),
                title,
                "Object Size (KB)",
                "MB/sec",
                kind_series(&PAPER_KINDS, &runs, |&size, result| {
                    let read = result
                        .at_age(age as f64)
                        .and_then(|point| point.read_throughput_mb_s);
                    (size as f64 / 1024.0, read.unwrap_or(0.0)) // KB, a readable x axis
                }),
            )
        })
        .collect())
}

/// Figure 2: fragments/object vs storage age for 10 MB objects.
fn figure2(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    fragmentation_figure(
        scale,
        "Figure 2",
        "Long Term Fragmentation With 10 MB Objects",
        10 << 20,
    )
}

/// Figure 3: fragments/object vs storage age for 256 KB objects.
fn figure3(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    fragmentation_figure(
        scale,
        "Figure 3",
        "Long Term Fragmentation With 256 KB Objects",
        256 << 10,
    )
}

/// The log-structured substrate rides along as a third series: without a
/// cleaner its fragmentation comes only from emergency vacates, the baseline
/// the cleaner scenarios are judged against.
fn fragmentation_figure(
    scale: &Scale,
    id: &str,
    title: &str,
    paper_object_bytes: u64,
) -> Result<Vec<Figure>, StoreError> {
    let runs = aging_sweep(
        &ALL_KINDS,
        &[()],
        |_| paper_config(scale, paper_object_bytes),
        &scale.age_points(),
        false,
    )?;
    let series = runs.iter().map(|(_, _, result)| fragments_vs_age(result));
    Ok(vec![figure(
        id,
        title,
        "Storage Age",
        "Fragments/object",
        series,
    )])
}

/// Figure 4: 512 KB write throughput during bulk load and between storage
/// ages 0–2 and 2–4.
fn figure4(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let runs = aging_sweep(
        &PAPER_KINDS,
        &[()],
        |_| paper_config(scale, 512 << 10),
        &[0, 2, 4],
        false,
    )?;
    let series = runs
        .iter()
        .map(|(_, _, result)| Series::vs_age(result, "", |p| Some(p.write_throughput_mb_s)));
    Ok(vec![figure(
        "Figure 4",
        "512 KB Write Throughput Over Time",
        "Storage Age",
        "MB/sec",
        series,
    )])
}

/// Figure 5: constant vs uniform object-size distributions (10 MB mean), one
/// figure per system.
fn figure5(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let base = paper_config(scale, 10 << 20);
    let distributions = [
        base.object_size,
        SizeDistribution::uniform_around(base.object_size.mean()),
    ];
    let runs = aging_sweep(
        &PAPER_KINDS,
        &distributions,
        |&object_size| ExperimentConfig {
            object_size,
            ..base.clone()
        },
        &scale.age_points(),
        false,
    )?;
    Ok(fragmentation_panels(
        &PAPER_KINDS,
        &runs,
        |panel, _| format!("Figure 5.{}", panel + 1),
        |kind| format!("{} Fragmentation: Blob Distributions", kind.label()),
        |distribution| distribution.label().to_string(),
    ))
}

/// Figure 6: the effect of volume size and occupancy (10 MB objects).
///
/// Returns three figures matching the paper's three panels: database at 50%
/// occupancy (two volume sizes), filesystem at 50% occupancy, and filesystem
/// at 90% / 97.5% occupancy.  Each series names the volume it simulated
/// (`volume_label`): the paper's 40G and 400G at full scale, 4G and 40G at
/// report scale.
fn figure6(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let base = paper_config(scale, 10 << 20);
    let volumes = [PAPER_VOLUME, PAPER_LARGE_VOLUME].map(|paper_bytes| {
        let bytes = scale.volume(paper_bytes);
        (bytes, volume_label(bytes))
    });
    let half_ages: Vec<u32> = (0..=scale.max_age / 2).collect();

    let runs = aging_sweep(
        &PAPER_KINDS,
        &volumes,
        |&(volume_bytes, _)| ExperimentConfig {
            volume_bytes,
            ..base.clone()
        },
        &half_ages,
        false,
    )?;
    let mut figures = fragmentation_panels(
        &PAPER_KINDS,
        &runs,
        |panel, _| format!("Figure 6.{}", panel + 1),
        |kind| format!("{} Fragmentation: Different Volumes", kind.label()),
        |(_, volume)| format!("50% full - {volume}"),
    );

    let crowded = aging_sweep(
        &[StoreKind::Filesystem],
        &cross(&[0.9f64, 0.975], &volumes),
        |&(occupancy, (volume_bytes, _))| {
            // A safe write needs a free object's worth of space per
            // in-flight copy.  At the paper's scales the 2.5% free pool
            // holds hundreds of objects and this cap never binds; at the
            // miniature smoke scale it lowers the occupancy just enough
            // that the experiment still fits.
            let objects = (volume_bytes as f64 * 0.95) / base.object_size.mean() as f64;
            let ceiling = 1.0 - (base.concurrency as f64 + 1.0) / objects.max(1.0);
            ExperimentConfig {
                volume_bytes,
                occupancy: occupancy.min(ceiling.max(0.5)),
                ..base.clone()
            }
        },
        &half_ages,
        false,
    )?;
    figures.push(figure(
        "Figure 6.3",
        "Filesystem Fragmentation: Different Volumes (high occupancy)",
        "Storage Age",
        "Fragments/object",
        crowded.iter().map(|(_, (occupancy, (_, volume)), result)| {
            labelled(
                fragments_vs_age(result),
                format!("{:.1}% full - {volume}", occupancy * 100.0),
            )
        }),
    ));
    Ok(figures)
}

/// The legend name of a simulated volume, in decimal units as the paper
/// names its drives: 40 GB is "40G", a tenth of it "4G", 80 MB "80M".
fn volume_label(bytes: u64) -> String {
    let bytes = bytes as f64;
    if bytes >= 1e9 {
        format!("{}G", bytes / 1e9)
    } else {
        format!("{}M", bytes / 1e6)
    }
}

/// Section 5.4's write-request-size observation, swept explicitly: long-term
/// fragments/object for 256 KB objects as a function of the write-request
/// size used to append them.
fn write_request_size_sweep(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let base = paper_config(scale, 256 << 10);
    let runs = aging_sweep(
        &PAPER_KINDS,
        &[16u64, 32, 64, 128, 256],
        |&request_kb| ExperimentConfig {
            write_request_size: request_kb * 1024,
            ..base.clone()
        },
        &[scale.max_age.min(4)],
        false,
    )?;
    Ok(vec![figure(
        "Write-request sweep",
        "Long-term fragments/object vs write-request size (256 KB objects, storage age 4)",
        "Write request (KB)",
        "Fragments/object",
        kind_series(&PAPER_KINDS, &runs, |&request_kb, result| {
            (request_kb as f64, aged(result).fragments_per_object)
        }),
    )])
}

/// Ablation: one full pass of each system's own maintenance
/// (`ObjectStore::maintenance` — the volume's defragmenter, the database's
/// table rebuild) on a store of 2 MB objects aged to storage age 4 (2 at
/// smoke scale): fragments/object before and after the pass.
fn maintenance_ablation(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let config = paper_config(scale, 2 << 20);
    let series = parallel_map(PAPER_KINDS.to_vec(), |kind| {
        let (mut store, _) = age_store(kind, &config, scale.max_age.min(4))?;
        let before = store.fragmentation().fragments_per_object;
        store.maintenance()?;
        let after = store.fragmentation().fragments_per_object;
        Ok(Series::new(kind.label(), vec![(0.0, before), (1.0, after)]))
    })?;
    Ok(vec![figure(
        "Maintenance ablation",
        "Fragments/object before and after maintenance (aged store)",
        "0 = before, 1 = after maintenance",
        "Fragments/object",
        series,
    )])
}

/// Policy ablation: fragments/object vs storage age for every
/// [`AllocationPolicy`] variant, one figure per system (series recorded in
/// EXPERIMENTS.md).
///
/// 256 KB objects on the Figure 3 workload, so the sweep isolates the effect
/// of the placement policy on the paper's most fragmentation-prone setup.
fn policy_ablation_figures(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let base = paper_config(scale, 256 << 10);
    let runs = aging_sweep(
        &PAPER_KINDS,
        &AllocationPolicy::ALL,
        |&policy| base.clone().with_allocation_policy(policy),
        &scale.age_points(),
        false,
    )?;
    Ok(fragmentation_panels(
        &PAPER_KINDS,
        &runs,
        |_, kind| format!("Policy ablation ({})", kind.label().to_lowercase()),
        |kind| {
            format!(
                "{} fragmentation under each allocation policy (256 KB objects)",
                kind.label()
            )
        },
        |policy| policy.name().to_string(),
    ))
}

/// The maintenance-policy configurations the scenario figures compare.
fn maintenance_policies() -> Vec<MaintenanceConfig> {
    vec![
        MaintenanceConfig::idle(),
        MaintenanceConfig::fixed_budget(512),
        MaintenanceConfig::threshold(1.5),
    ]
}

/// Maintenance scenario: fragments/object vs storage age under each
/// `lor-maint` policy, one figure per system.
///
/// With [`lor_core::MaintenancePolicy::Idle`] fragmentation grows unchecked
/// with age; the fixed-budget and threshold policies hold it to a lower
/// steady state at the cost of the foreground latency plotted by
/// [`maintenance_latency_figures`].
fn maintenance_policy_figures(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let base = paper_config(scale, 2 << 20);
    let runs = aging_sweep(
        &PAPER_KINDS,
        &maintenance_policies(),
        |&maintenance| base.clone().with_maintenance(maintenance),
        &scale.age_points(),
        false,
    )?;
    Ok(fragmentation_panels(
        &PAPER_KINDS,
        &runs,
        |_, kind| format!("Maintenance policies ({})", kind.label().to_lowercase()),
        |kind| {
            format!(
                "{} fragmentation vs age under each maintenance policy (2 MB objects)",
                kind.label()
            )
        },
        |maintenance| maintenance.policy.label(),
    ))
}

/// Maintenance scenario: the latency-vs-throughput trade-off made explicit.
///
/// Sweeps the fixed background budget (`io_per_tick`, 64 KB units; 0 is the
/// idle baseline) and returns two figures over the same x axis: mean
/// foreground safe-write latency at the end of the aging run, and the
/// steady-state fragments/object the budget bought.  Together they are the
/// "foreground latency vs background budget" figure family.
fn maintenance_latency_figures(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let base = paper_config(scale, 2 << 20);
    let final_age = scale.max_age.clamp(1, 4);
    let runs = aging_sweep(
        &PAPER_KINDS,
        &[0u64, 64, 256, 1024],
        |&budget| {
            base.clone()
                .with_maintenance(MaintenanceConfig::fixed_budget(budget))
        },
        &[final_age],
        false,
    )?;
    let panel = |id: &str, title: String, y_label: &str, pick: fn(&AgePoint) -> f64| {
        figure(
            id,
            title,
            "Background budget (64 KB I/Os per tick)",
            y_label,
            kind_series(&PAPER_KINDS, &runs, move |&budget, result| {
                (budget as f64, pick(aged(result)))
            }),
        )
    };
    Ok(vec![
        panel(
            "Maintenance latency",
            format!("Foreground safe-write latency vs background budget (storage age {final_age})"),
            "Latency (ms)",
            |point| point.foreground_latency_ms,
        ),
        panel(
            "Maintenance steady state",
            format!("Fragments/object vs background budget (storage age {final_age})"),
            "Fragments/object",
            |point| point.fragments_per_object,
        ),
    ])
}

/// Latency-percentile scenario: the Figure 2 workload driven by eight
/// closed-loop clients instead of the serial harness, reporting the
/// client-observed p50/p95/p99 latency of the aging safe writes at every
/// storage age (one figure per system) — the paper's degradation story in
/// the metric applications experience, claimed by `paper_claims`'
/// `database_client_latency_grows_with_age_and_filesystem_latency_holds`.
/// (The saturated loop pins the mean queue depth at 7.98: no figure.)
///
/// The age-0 checkpoint measures the *bulk load* (one client, puts), a
/// different workload from the captioned 8-client safe writes, so these
/// series start at age 1 instead of plotting a misleading cliff.
fn latency_percentile_figures(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let mut base = paper_config(scale, 1 << 20);
    base.concurrency = 8;
    let ages: Vec<u32> = (1..=scale.max_age).collect();
    let runs = aging_sweep(&PAPER_KINDS, &[()], |_| base.clone(), &ages, false)?;

    Ok(runs
        .iter()
        .map(|(kind, _, result)| {
            figure(
                format!("Latency percentiles ({})", kind.label().to_lowercase()),
                format!(
                    "{} client-observed safe-write latency vs storage age (8 closed-loop clients)",
                    kind.label()
                ),
                "Storage Age",
                "Latency (ms)",
                [
                    Series::vs_age(result, " p50", |p| Some(p.latency_p50_ms)),
                    Series::vs_age(result, " p95", |p| Some(p.latency_p95_ms)),
                    Series::vs_age(result, " p99", |p| Some(p.latency_p99_ms)),
                ],
            )
        })
        .collect())
}

/// The offered-load fractions (of the measured serial capacity) the load
/// sweep visits.
const LOAD_SWEEP_UTILISATIONS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 0.95];

/// Load-sweep scenario: open-loop Poisson reads against an aged store at a
/// rising fraction of its measured capacity, reporting p50/p99 latency and
/// mean queue depth per offered load (the classical open-loop latency
/// curve, hockey stick included).
///
/// Each store's capacity is calibrated from a serial read pass over the same
/// sample, so the x axis is utilisation (offered ops/s over capacity ops/s)
/// and the two systems are comparable even though their absolute service
/// times differ.
fn load_sweep_figures(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let base = paper_config(scale, 1 << 20);
    let age_rounds = scale.max_age.clamp(1, 2);

    // One aged store per kind; the sweep itself issues only side-effect-free
    // reads, so the rates share the store instead of re-running the
    // expensive bulk-load + aging once per utilisation point.
    let sweeps = parallel_map(ALL_KINDS.to_vec(), |kind| {
        let (mut store, mut generator) = age_store(kind, &base, age_rounds)?;
        let limit = base.read_sample.unwrap_or(usize::MAX).max(1);
        let reads: Vec<WorkloadOp> = generator.read_all().into_iter().take(limit).collect();
        let mut server = StoreServer::new(store.as_mut());
        // Calibrate capacity with a serial pass (reads are side-effect free).
        let serial = server.run_closed_loop(reads.clone(), 1, SimDuration::ZERO)?;
        let mean_ms = LatencySummary::of(&serial).mean_ms.max(1e-6);
        let capacity_ops_per_sec = 1e3 / mean_ms;
        let mut points = Vec::with_capacity(LOAD_SWEEP_UTILISATIONS.len());
        for utilisation in LOAD_SWEEP_UTILISATIONS {
            server.reset_queue_stats();
            let load = OpenLoop {
                ops_per_sec: utilisation * capacity_ops_per_sec,
                seed: base.seed,
            };
            let schedule = load.schedule(server.now(), reads.clone())?;
            let mut completions = Vec::with_capacity(schedule.len());
            server.run(Arrivals::Open(schedule), |c| completions.push(c))?;
            let summary = LatencySummary::of(&completions);
            points.push((utilisation, summary, server.queue_stats().mean_depth()));
        }
        Ok((kind, points))
    })?;

    type LoadPoint = (f64, LatencySummary, f64);
    let series = |suffix: &'static str, pick: fn(&LoadPoint) -> f64| {
        sweeps.iter().map(move |(kind, points)| {
            Series::new(
                format!("{}{suffix}", kind.label()),
                points.iter().map(|point| (point.0, pick(point))).collect(),
            )
        })
    };
    Ok(vec![
        figure(
            "Load sweep (latency)",
            format!("Open-loop read latency vs offered load (storage age {age_rounds})"),
            "Offered load (fraction of capacity)",
            "Latency (ms)",
            series(" p50", |point| point.1.p50_ms).chain(series(" p99", |point| point.1.p99_ms)),
        ),
        figure(
            "Load sweep (queue depth)",
            format!("Mean queue depth vs offered load (storage age {age_rounds})"),
            "Offered load (fraction of capacity)",
            "Waiting requests",
            series("", |point| point.2),
        ),
    ])
}

/// The write fractions the mixed load sweep visits (0 reproduces the pure
/// read sweep as a degenerate case).
const MIXED_SWEEP_WRITE_FRACTIONS: [f64; 3] = [0.0, 0.25, 0.5];

/// Mixed-load-sweep scenario: open-loop **read + safe-write** arrivals
/// against an aged store at a rising fraction of its calibrated capacity,
/// one set of curves per write fraction — the paper's degradation story
/// happening *during* the measurement.
///
/// Capacity is calibrated per mix (a serial pass over the identical
/// operation mix on a twin store), so a given utilisation offers the same
/// queueing intensity *if the store did not degrade*.  It does: the write
/// class fragments the layout while the sweep runs, service times outgrow
/// the calibration, and the hockey stick arrives at a lower nominal
/// utilisation the more write-heavy the mix is — the shift `paper_claims`
/// asserts on the report golden.  Returns, per system, a p99-latency figure
/// and a fragmentation-growth figure over the same x axis.
fn mixed_load_sweep_figures(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let base = paper_config(scale, 1 << 20);
    let age_rounds = scale.max_age.clamp(1, 2);
    let ops = base.read_sample.unwrap_or(200).max(16);

    // Phase 1: one capacity calibration per (kind, write fraction) — the
    // capacity does not depend on the offered load, so calibrating per
    // utilisation point would repeat the expensive twin-store aging for
    // nothing.
    let mixes = cross(&PAPER_KINDS, &MIXED_SWEEP_WRITE_FRACTIONS);
    let calibrations = parallel_map(mixes, |(kind, write_fraction)| {
        let calibration = calibrate_mixed_load(kind, &base, age_rounds, write_fraction, ops)?;
        Ok((kind, calibration))
    })?;
    // Phase 2: every utilisation point of every mix, fanned out in full.
    let points = parallel_map(
        cross(&calibrations, &LOAD_SWEEP_UTILISATIONS),
        |((kind, calibration), utilisation)| {
            measure_mixed_load_calibrated(kind, &base, age_rounds, &calibration, utilisation)
        },
    )?;

    // `points` is substrate-major, one run of utilisation points per mix.
    Ok(by_kind(&PAPER_KINDS, &points)
        .flat_map(|(kind, points)| {
            let panel = |id: &str, title: &str, y_label: &str, pick: fn(&MixedLoadPoint) -> f64| {
                figure(
                    format!("Mixed load sweep {id} ({})", kind.label().to_lowercase()),
                    format!(
                        "{} {title} per write fraction (storage age {age_rounds})",
                        kind.label()
                    ),
                    "Offered load (fraction of mix capacity)",
                    y_label,
                    points.chunks(LOAD_SWEEP_UTILISATIONS.len()).map(|mix| {
                        Series::new(
                            format!("{:.0}% writes", mix[0].write_fraction * 100.0),
                            mix.iter().map(|p| (p.utilisation, pick(p))).collect(),
                        )
                    }),
                )
            };
            [
                panel(
                    "p99",
                    "open-loop p99 latency vs offered load",
                    "p99 latency (ms)",
                    |point| point.all.p99_ms,
                ),
                panel(
                    "frag growth",
                    "fragments/object grown during the sweep",
                    "Fragments/object grown",
                    |point| point.fragments_after - point.fragments_before,
                ),
            ]
        })
        .collect())
}

/// The background cleaning budgets (64 KB I/Os per tick) the cleaner
/// frontier sweeps.  Budget 0 is the idle log: it runs no cleaner and is
/// bit-identical to a log with no maintenance at all.
const CLEANER_BUDGETS: [u64; 4] = [0, 16, 64, 256];

/// The skewed-rewrite rounds every cleaner-frontier log ages through.
const CLEANER_ROUNDS: usize = 16;

/// One cleaner-frontier log, aged: bulk load by one client, then
/// [`CLEANER_ROUNDS`] rounds of Zipf(1.0) safe writes to half the
/// population each, on two closed-loop clients with no think time.  Returns
/// fragments/object after the bulk load and after every round, and the p99
/// latency of the last round.
fn cleaner_run(
    config: &ExperimentConfig,
    selector: CleanerSelector,
    budget: u64,
) -> Result<(Vec<f64>, f64), StoreError> {
    let LogStoreConfig { mut log, disk } = LogStoreConfig::new(config.volume_bytes);
    log.selector = selector;
    let maintenance = Some(MaintenanceConfig::fixed_budget(budget));
    let mut store = LogObjectStore::build(log, disk, config.write_request_size, maintenance)?;
    let mut generator = WorkloadGenerator::new(config.workload());
    let mut server = StoreServer::new(&mut store);
    bulk_load(&mut server, &mut generator)?;
    let rewrites = generator.live_keys().len() / 2;
    let fragments = |server: &StoreServer<'_>| server.store().fragmentation().fragments_per_object;
    let mut aging = vec![fragments(&server)];
    let mut p99_ms = 0.0;
    for _ in 0..CLEANER_ROUNDS {
        let round = generator.zipf_safe_write_sample(rewrites, 1.0);
        let completions = server.run_closed_loop(round, 2, SimDuration::ZERO)?;
        p99_ms = LatencySummary::of(&completions).p99_ms;
        aging.push(fragments(&server));
    }
    Ok((aging, p99_ms))
}

/// Cleaner-frontier scenario: the log's two victim selectors
/// ([`CleanerSelector::ALL`]) under each background budget of
/// [`CLEANER_BUDGETS`], on uniform 1 MB objects at the paper's volume and
/// 50 % occupancy.  Three figures, one series per selector: fragments/object
/// vs round with no cleaning, and the final fragments/object and last-round
/// p99 vs budget.
///
/// `paper_claims` asserts on the report golden that an uncleaned log
/// fragments further with every round once its free half is used up, that
/// every budget ends below the idle log while budget 256 costs the tail,
/// and that greedy ends less fragmented than the default cost-benefit
/// selector at every budget (EXPERIMENTS.md, "Cleaner frontier
/// (`cleaner-frontier`)").
fn cleaner_frontier_figures(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let config = ExperimentConfig {
        object_size: SizeDistribution::uniform_around(scale.object(1 << 20)),
        ..paper_config(scale, 1 << 20)
    };
    let runs = parallel_map(
        cross(&CleanerSelector::ALL, &CLEANER_BUDGETS),
        |(selector, budget)| cleaner_run(&config, selector, budget),
    )?;
    // Selector-major: one run of budgets per selector.
    let per_selector = || {
        CleanerSelector::ALL
            .iter()
            .zip(runs.chunks(CLEANER_BUDGETS.len()))
    };
    let vs_budget = |pick: fn(&(Vec<f64>, f64)) -> f64| {
        per_selector().map(move |(selector, runs)| {
            let points = CLEANER_BUDGETS.iter().zip(runs);
            Series::new(
                selector.name(),
                points
                    .map(|(&budget, run)| (budget as f64, pick(run)))
                    .collect(),
            )
        })
    };
    let budget_axis = "Background budget (64 KB I/Os per tick)";
    let workload = format!(
        "uniform 1 MB objects, {CLEANER_ROUNDS} rounds of Zipf(1.0) safe writes \
         to half the population"
    );
    Ok(vec![
        figure(
            "Cleaner aging (log)",
            format!("Log fragments/object vs round with no background cleaning ({workload})"),
            "Round",
            "Fragments/object",
            per_selector().map(|(selector, runs)| {
                let idle = &runs[0].0;
                let points = idle.iter().enumerate().map(|(round, &f)| (round as f64, f));
                Series::new(selector.name(), points.collect())
            }),
        ),
        figure(
            "Cleaner frontier (log)",
            format!("Log fragments/object after the last round vs cleaning budget ({workload})"),
            budget_axis,
            "Fragments/object",
            vs_budget(|(aging, _)| *aging.last().expect("the bulk load is measured")),
        ),
        figure(
            "Cleaner p99 (log)",
            format!("Log safe-write p99 in the last round vs cleaning budget ({workload})"),
            budget_axis,
            "p99 latency (ms)",
            vs_budget(|&(_, p99_ms)| p99_ms),
        ),
    ])
}

/// The ghost-release deferral (simulated milliseconds) the substrate-aware
/// scenarios hold the DB backlog for.  With 3 clients at 400 ms think time a
/// client cycle is ~0.5 s, so a 2 s hold batches several clients' worth of
/// ghosts into one bulk drop — and being expressed in simulated time, the
/// same setting means the same span at every request rate (the old
/// tick-counted knob did not).  At report scale, on unrestricted placement,
/// this hold leaves `substrate-aware` bit-identical to `idle-detect`; only
/// combined with a placement band does it win the frontier.  A longer hold
/// differs (the root crate's `substrate_aware_pins_the_db_eager_cleanup_pathology`
/// pins an 8 s hold at a 128 MB fixture, which no figure carries).  The
/// policy stays because the benchmark's `serve_db` workload runs this hold
/// and can tell it from `idle-detect`: swapping in `idle_detect(5.0)` moves
/// its after-run fragments/object 1.080 → 1.133 and its p99 1656.8 →
/// 1388.3 ms.
const SUBSTRATE_AWARE_DEFER_MS: f64 = 2000.0;

/// The maintenance policies the idle-detect scenario compares, all under the
/// queueing-aware (server-driven) interference model.
fn idle_detect_policies() -> Vec<MaintenanceConfig> {
    vec![
        MaintenanceConfig::idle().with_server_drive(),
        MaintenanceConfig::fixed_budget(64).with_server_drive(),
        MaintenanceConfig::threshold(1.5).with_server_drive(),
        MaintenanceConfig::idle_detect(5.0),
        MaintenanceConfig::substrate_aware(5.0, SUBSTRATE_AWARE_DEFER_MS),
    ]
}

/// Idle-detect scenario: the latency/fragmentation frontier of the
/// maintenance policies under a workload with think-time slack
/// ([`think_time_config`]), one fragments-vs-age and one p99-latency-vs-age
/// figure per system.
///
/// Under the queueing-aware interference model, `idle-detect` schedules its
/// maintenance into the observed think-time gaps, so it buys roughly the
/// fixed-budget policy's steady-state fragmentation while foreground
/// requests only rarely land on top of background I/O — a lower p99 at equal
/// layout quality.  That holds on the filesystem; on the database the eager
/// ghost cleanup ends more fragmented than no maintenance at all (both
/// asserted by `paper_claims` on the report golden).
fn idle_detect_figures(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let base = think_time_config(scale);
    let runs = aging_sweep(
        &PAPER_KINDS,
        &idle_detect_policies(),
        |&maintenance| base.clone().with_maintenance(maintenance),
        &scale.age_points(),
        false,
    )?;
    Ok(by_kind(&PAPER_KINDS, &runs)
        .flat_map(|(kind, runs)| {
            let panel = |id: &str, title: &str, y_label: &str, pick: fn(&AgePoint) -> f64| {
                figure(
                    format!("Idle-detect {id} ({})", kind.label().to_lowercase()),
                    format!(
                        "{} {title} vs age per policy (3 clients, 400 ms think time)",
                        kind.label()
                    ),
                    "Storage Age",
                    y_label,
                    runs.iter().map(|(_, maintenance, result)| {
                        labelled(
                            Series::vs_age(result, "", |p| Some(pick(p))),
                            maintenance.policy.label(),
                        )
                    }),
                )
            };
            [
                panel(
                    "fragmentation",
                    "fragments/object",
                    "Fragments/object",
                    |point| point.fragments_per_object,
                ),
                panel(
                    "p99 latency",
                    "p99 safe-write latency",
                    "p99 latency (ms)",
                    |point| point.latency_p99_ms,
                ),
            ]
        })
        .collect())
}

/// The placement policies the placement-frontier scenario sweeps: the
/// unrestricted baseline, the banded variant across three boundaries, and
/// the watermark reserve.
fn placement_variants() -> Vec<PlacementPolicy> {
    vec![
        PlacementPolicy::Unrestricted,
        PlacementPolicy::banded(0.6),
        PlacementPolicy::banded(0.75),
        PlacementPolicy::banded(0.9),
        PlacementPolicy::Reserve,
    ]
}

/// The gap-filling maintenance policies the placement sweep drives (the
/// pairing the ROADMAP's DB-frontier item is about).
fn placement_frontier_policies() -> Vec<MaintenanceConfig> {
    vec![
        MaintenanceConfig::idle_detect(5.0),
        MaintenanceConfig::substrate_aware(5.0, SUBSTRATE_AWARE_DEFER_MS),
    ]
}

/// Placement-frontier scenario: band boundary × gap-filling maintenance
/// policy on the paper's two systems, under the idle-detect workload
/// ([`think_time_config`]); the log, at 1.000 fragments/object throughout,
/// is left out.
///
/// PR 4 isolated the residual DB pathology of the gap-filling policies: the
/// compactor competed with foreground writes for the same large contiguous
/// runs, so no amount of ghost deferral could win the DB frontier.  The
/// placement sweep shows what separating the two consumers buys: for each
/// placement variant the aged (fragments/object, p99 latency) operating
/// point of both policies, one frontier figure per substrate, plus a
/// fragments-vs-age figure for the substrate-aware policy per placement.
/// The claim, asserted by `paper_claims` on the report golden, is that
/// `substrate-aware` on `banded(0.90)` lands strictly inside the DB
/// gap-filling frontier: below 0.85× the fragments of unrestricted
/// `idle-detect` at no more than 1.05× its p99, while the filesystem stays
/// at or below 1.1 fragments/object under every placement.
fn placement_frontier_figures(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let base = think_time_config(scale);
    let placements = placement_variants();
    let runs = aging_sweep(
        &PAPER_KINDS,
        &cross(&placement_frontier_policies(), &placements),
        |&(maintenance, placement)| {
            base.clone()
                .with_placement(placement)
                .with_maintenance(maintenance)
        },
        &scale.age_points(),
        false,
    )?;

    Ok(by_kind(&PAPER_KINDS, &runs)
        .flat_map(|(kind, runs)| {
            // Policy-major variants: one run of placements per policy.
            let frontier = runs.chunks(placements.len()).map(|runs| {
                let mut points: Vec<(f64, f64)> = runs
                    .iter()
                    .map(|(_, _, result)| {
                        let point = aged(result);
                        (point.fragments_per_object, point.latency_p99_ms)
                    })
                    .collect();
                points.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
                Series::new(runs[0].1 .0.policy.name(), points)
            });
            let fragmentation = runs
                .iter()
                .filter(|(_, (maintenance, _), _)| maintenance.policy.name() == "substrate-aware")
                .map(|(_, (_, placement), result)| {
                    labelled(fragments_vs_age(result), placement.label())
                });
            [
                figure(
                    format!("Placement frontier ({})", kind.label().to_lowercase()),
                    format!(
                        "{} aged p99 latency vs fragments/object per placement \
                         (gap-filling policies, 3 clients, 400 ms think time)",
                        kind.label()
                    ),
                    "Fragments/object",
                    "p99 latency (ms)",
                    frontier,
                ),
                figure(
                    format!("Placement fragmentation ({})", kind.label().to_lowercase()),
                    format!(
                        "{} fragments/object vs age under substrate-aware per placement",
                        kind.label()
                    ),
                    "Storage Age",
                    "Fragments/object",
                    fragmentation,
                ),
            ]
        })
        .collect())
}

/// The latency-tail percentile the anatomy scenario dissects.
const ANATOMY_QUANTILE: f64 = 0.99;

/// Ages the p99 workload round by round, dissecting each requested age's
/// overwrite round into an [`AnatomyReport`] over its latency tail.
///
/// Age 0 is skipped (the bulk load is a different, serial workload), matching
/// the latency-percentiles family.  Returns `(storage_age, report)` pairs.
/// (It needs each round's completions, which [`age_store`] does not keep, so
/// it drives the rounds itself.)
pub fn anatomy_vs_age(
    kind: StoreKind,
    config: &ExperimentConfig,
    ages: &[u32],
) -> Result<Vec<(f64, AnatomyReport)>, StoreError> {
    let mut store = config.build_store(kind)?;
    let mut generator = WorkloadGenerator::new(config.workload());
    let mut server = StoreServer::new(store.as_mut());
    bulk_load(&mut server, &mut generator)?;
    let max_age = ages.iter().copied().max().unwrap_or(0);
    let mut out = Vec::new();
    for age in 1..=max_age {
        let completions = overwrite_round(&mut server, &mut generator, config)?;
        if ages.contains(&age) {
            let report = AnatomyReport::over_tail(&completions, ANATOMY_QUANTILE)
                .expect("an overwrite round always completes requests");
            out.push((age as f64, report));
        }
    }
    Ok(out)
}

/// The (label, placement, maintenance) variants the anatomy scenario
/// compares: no maintenance at all vs the placement-aware gap-filling
/// policy the placement-frontier scenario recommends.
fn anatomy_variants() -> [(&'static str, PlacementPolicy, MaintenanceConfig); 2] {
    [
        (
            "idle",
            PlacementPolicy::Unrestricted,
            MaintenanceConfig::idle().with_server_drive(),
        ),
        (
            "substrate-aware + banded",
            // The 0.90 boundary is the chosen default for gap-filling DB
            // workloads (see the placement-frontier scenario).
            PlacementPolicy::banded(0.9),
            MaintenanceConfig::substrate_aware(5.0, SUBSTRATE_AWARE_DEFER_MS),
        ),
    ]
}

/// The run the `trace` binary records: the latency-anatomy workload under
/// its "substrate-aware + banded" variant, so all four tracks carry events.
pub fn traced_anatomy_config(scale: &Scale) -> ExperimentConfig {
    let [_, (_, placement, maintenance)] = anatomy_variants();
    think_time_config(scale)
        .with_placement(placement)
        .with_maintenance(maintenance)
}

/// Latency-anatomy scenario: the **anatomy of a p99** — where the time of
/// the slowest percentile of safe writes actually goes, vs storage age and
/// maintenance policy (one figure per system × policy).
///
/// Each figure stacks the mean per-component decomposition of the p99 tail:
/// maintenance interference (waiting for an overlapping background slice),
/// queueing behind other clients, fragmentation-induced extra positioning
/// (`(f-1)/f` of seek + rotation), the remaining disk time, and host time —
/// alongside the tail's total.  The decomposition is exact by construction
/// (every figure's components sum to its total series), which is the
/// scenario's acceptance claim: ≥ 95% of every tail completion's latency is
/// attributed to a named component.
///
/// Under `idle` the maintenance component is zero at every age.  Under
/// `substrate-aware + banded` the filesystem's tail pays maintenance
/// directly (more than 5 % of it at every age), while the database's pays
/// under 1 % directly and far more indirectly, as queueing above `idle`'s —
/// the trade the maintenance policy makes, itemised, and asserted on the
/// report golden by `paper_claims`'
/// `maintenance_reaches_the_filesystem_tail_directly_and_the_database_tail_as_queueing`.
fn latency_anatomy_figures(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let base = think_time_config(scale);
    let ages: Vec<u32> = (1..=scale.max_age).collect();
    let jobs = cross(&PAPER_KINDS, &anatomy_variants());
    parallel_map(jobs, |(kind, (label, placement, maintenance))| {
        let config = base
            .clone()
            .with_placement(placement)
            .with_maintenance(maintenance);
        let points = anatomy_vs_age(kind, &config, &ages)?;
        let column = |name: &str, pick: fn(&AnatomyReport) -> f64| {
            Series::new(
                name,
                points.iter().map(|(age, r)| (*age, pick(r))).collect(),
            )
        };
        Ok(figure(
            format!("Latency anatomy ({}, {label})", kind.label().to_lowercase()),
            format!(
                "{} anatomy of the p99 safe-write tail under {label} \
                 (3 clients, 400 ms think time)",
                kind.label()
            ),
            "Storage Age",
            "Mean tail latency component (ms)",
            [
                column("total", |r| r.mean.total_ms),
                column("maintenance", |r| r.mean.maintenance_ms),
                column("queueing", |r| r.mean.queue_ms),
                column("frag-seeks", |r| r.mean.frag_seek_ms),
                column("disk", |r| r.mean.disk_ms),
                column("host", |r| r.mean.host_ms),
            ],
        ))
    })
}

/// Fan-out widths the tail-amplification panel sweeps.
const SHARD_SWEEP_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Zipf exponent for the skewed-popularity churn (θ > 1 concentrates the
/// rewrites on a handful of hot ranks).
const SHARD_SWEEP_THETA: f64 = 1.1;

/// Worker threads each sweep fleet drains with.  A small fixed pool (rather
/// than one thread per shard) keeps the thread count bounded when
/// [`parallel_map`] already runs one fleet per configuration — parallel
/// execution is bit-identical to serial, so this is purely a wall-clock
/// knob.
const SHARD_SWEEP_WORKERS: u32 = 4;

/// A bulk-loaded fleet of `shards` shards at the aggregate rate, with its
/// workload generator.
///
/// The volume is floored so every shard still gets a workable slice of the
/// paper volume at the CI scales.
fn loaded_fleet(
    scale: &Scale,
    kind: StoreKind,
    shards: u32,
    object_bytes: u64,
    placement: PlacementPolicy,
) -> Result<(ShardedStore, WorkloadGenerator), StoreError> {
    let mut config = paper_config(scale, object_bytes)
        .with_placement(placement)
        .with_fleet_parallelism(FleetParallelism::Threads(SHARD_SWEEP_WORKERS));
    config.volume_bytes = config.volume_bytes.max(u64::from(shards) * (24 << 20));
    let router = RouterPolicy::ConsistentHash { vnodes: 16 };
    let mut fleet = ShardedStore::new(kind, &config, shards, router)?;
    let mut generator = WorkloadGenerator::new(config.workload());
    fleet.load(generator.bulk_load())?;
    Ok((fleet, generator))
}

/// One round of Zipfian-popularity churn driven through the fleet at the
/// aggregate offered rate.
///
/// The safe-write sample is deduplicated (first hit wins) because two safe
/// writes to one key cannot share a dispatch batch; the popularity skew —
/// hot ranks rewritten every round, cold ones rarely — is what the scenario
/// needs, not the duplicates.
fn zipf_churn_round(
    fleet: &mut ShardedStore,
    generator: &mut WorkloadGenerator,
    seed: u64,
    rebalance: Option<(u64, u32)>,
) -> Result<Vec<Completion>, StoreError> {
    let population = generator.live_keys().len();
    let reads = generator.zipf_read_sample(population / 4, SHARD_SWEEP_THETA);
    let mut seen = std::collections::HashSet::new();
    let writes: Vec<WorkloadOp> = generator
        .zipf_safe_write_sample(population, SHARD_SWEEP_THETA)
        .into_iter()
        .filter(|op| match op {
            WorkloadOp::SafeWrite { key, .. } => seen.insert(*key),
            _ => true,
        })
        .collect();
    let load = MixedOpenLoop {
        read_ops_per_sec: 20.0,
        write_ops_per_sec: 80.0,
        seed,
    };
    let schedule = load.schedule(SimDuration::ZERO, reads, writes)?;
    match rebalance {
        // Load-concurrent rebalancing: budgeted slices interleave with the
        // foreground drainage inside the round itself.
        Some((budget_bytes, slices)) => fleet.run_with_rebalance(schedule, budget_bytes, slices),
        None => fleet.run(schedule),
    }
}

/// Worst single shard, by fragments per object.
fn worst_shard_fpo(fleet: &ShardedStore) -> f64 {
    fleet
        .per_shard_fragmentation()
        .iter()
        .map(|summary| summary.fragments_per_object)
        .fold(0.0f64, f64::max)
}

/// Which rebalancing drive a frontier job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RebalanceMode {
    /// No rebalancing at all.
    Off,
    /// Phased: churn first, then drain budgeted rebalance slices while the
    /// foreground is idle.
    Phased,
    /// Load-concurrent: rebalance slices interleave with the foreground
    /// drainage inside every churn round.
    Concurrent,
}

impl RebalanceMode {
    fn label(self) -> &'static str {
        match self {
            RebalanceMode::Off => "rebalance off",
            RebalanceMode::Phased => "rebalance phased",
            RebalanceMode::Concurrent => "rebalance concurrent",
        }
    }
}

/// Shard-sweep scenario: what sharding adds to (and subtracts from) the
/// single-spindle story.  Three figures, each asserted by a `paper_claims`
/// claim on the report golden:
///
/// 1. **Fan-out tail amplification** — p99 latency of multi-object reads vs
///    fan-out width, per substrate × fleet size.  The offered *group* rate is
///    fixed, so widening the fan-out multiplies the per-shard read rate and
///    the read completes at the *slowest* shard: the p99 climbs with width,
///    and a larger fleet spreads the wide reads' load
///    (`fan_out_tail_grows_with_width_and_shrinks_with_fleet_size`).
/// 2. **Rebalance frontier** (one figure per substrate) — the worst
///    shard's fragments/object vs fleet size ([`Scale::fleet_sizes`], up to
///    64 shards at report scale), with the rebalancing drive off, phased
///    (after the churn), and interleaved with the live load.  Rebalancing
///    migrates fragmented objects off the worst shard through destination
///    *maintenance* bands (never foreground), pulling the worst shard back
///    towards the fleet mean (`rebalancing_never_leaves_the_worst_shard_worse`).
///
/// The fragmentation skew a Zipfian churn leaves across shards shows only at
/// smoke-sized fleets (`lor-shard`'s `e2e` tests check it there), and the
/// phased drive's final-round p99 is the `off` drive's by construction, so
/// neither has a figure.
fn shard_sweep_figures(scale: &Scale) -> Result<Vec<Figure>, StoreError> {
    let churn_rounds = scale.max_age.clamp(2, 4);
    let fleet_sizes = scale.fleet_sizes();

    // Panel 1: fan-out tail amplification, one fleet per substrate × size.
    let fanout = parallel_map(cross(&PAPER_KINDS, &fleet_sizes), |(kind, shards)| {
        let (mut fleet, generator) = loaded_fleet(
            scale,
            kind,
            shards,
            512 << 10,
            PlacementPolicy::Unrestricted,
        )?;
        let keys: Vec<ObjectKey> = generator.live_keys().to_vec();
        let mut points = Vec::new();
        for width in SHARD_SWEEP_WIDTHS {
            let groups: Vec<Vec<ObjectKey>> = (0..160)
                .map(|group: usize| {
                    (0..width)
                        .map(|part| keys[(group * 7 + part * 13) % keys.len()])
                        .collect()
                })
                .collect();
            let completions = fleet.run_fanout_reads(
                groups,
                OpenLoop {
                    ops_per_sec: 30.0,
                    seed: 11,
                },
            )?;
            points.push((width as f64, fanout_p99_ms(&completions)));
        }
        Ok(Series::new(
            format!("{} ({shards} shards)", kind.label().to_lowercase()),
            points,
        ))
    })?;

    // Panels 2-3: the rebalance frontier, per substrate.  The modes are
    // listed in label order, the order the recorded series appear in.
    let modes = [
        RebalanceMode::Concurrent,
        RebalanceMode::Off,
        RebalanceMode::Phased,
    ];
    let frontier_jobs = cross(&PAPER_KINDS, &cross(&modes, &fleet_sizes));
    let frontier = parallel_map(frontier_jobs, |(kind, (mode, shards))| {
        // Banded placement so destination writes are confined to the
        // maintenance band — migration may be refused, never spilled.
        let (mut fleet, mut generator) =
            loaded_fleet(scale, kind, shards, 1 << 20, PlacementPolicy::banded(0.7))?;
        let concurrent = (mode == RebalanceMode::Concurrent).then_some((16u64 << 20, 4u32));
        for round in 1..=churn_rounds {
            zipf_churn_round(&mut fleet, &mut generator, u64::from(round), concurrent)?;
        }
        if mode == RebalanceMode::Phased {
            for _ in 0..32 {
                let io = fleet.run_rebalance_slice(16 << 20);
                if io.is_none() {
                    break;
                }
            }
        }
        Ok((mode, f64::from(shards), worst_shard_fpo(&fleet)))
    })?;

    let mut figures = vec![figure(
        "Shard fan-out tail",
        "p99 latency of multi-object reads vs fan-out width at a fixed \
         aggregate group rate (reads complete at the slowest shard)",
        "Fan-out width (objects per read)",
        "p99 latency (ms)",
        fanout,
    )];
    for (kind, runs) in by_kind(&PAPER_KINDS, &frontier) {
        // Mode-major jobs: one run of fleet sizes per mode.
        figures.push(figure(
            format!("Rebalance frontier ({})", kind.label().to_lowercase()),
            format!(
                "{} worst-shard fragments/object vs fleet size after \
                 Zipfian churn: rebalancing drive off, phased after the \
                 churn, or interleaved with the live load",
                kind.label()
            ),
            "Shards",
            "Worst-shard fragments/object",
            runs.chunks(fleet_sizes.len()).map(|runs| {
                let points = runs.iter().map(|&(_, shards, worst)| (shards, worst));
                Series::new(runs[0].0.label(), points.collect())
            }),
        ));
    }
    Ok(figures)
}

/// One figure family: its name, which `figures --only` takes and
/// `figures --json` writes `<name>.json` under, and the function
/// regenerating it at a scale.
pub struct Family {
    /// The family's name.
    pub name: &'static str,
    /// Regenerates the family's figures.
    pub run: FamilyFn,
}

/// `scale -> figures`.
type FamilyFn = fn(&Scale) -> Result<Vec<Figure>, StoreError>;

impl Family {
    const fn new(name: &'static str, run: FamilyFn) -> Self {
        Family { name, run }
    }
}

/// Every figure family, in the order `figures` prints them — the one list
/// behind its run order, `--only` validation and `--help`.
pub const FAMILIES: &[Family] = &[
    Family::new("fig1", figure1),
    Family::new("fig2", figure2),
    Family::new("fig3", figure3),
    Family::new("fig4", figure4),
    Family::new("fig5", figure5),
    Family::new("fig6", figure6),
    Family::new("write-size", write_request_size_sweep),
    Family::new("maintenance", maintenance_ablation),
    Family::new("policy-ablation", policy_ablation_figures),
    Family::new("maintenance-policies", maintenance_policy_figures),
    Family::new("maintenance-latency", maintenance_latency_figures),
    Family::new("latency-percentiles", latency_percentile_figures),
    Family::new("load-sweep", load_sweep_figures),
    Family::new("idle-detect", idle_detect_figures),
    Family::new("mixed-load-sweep", mixed_load_sweep_figures),
    Family::new("cleaner-frontier", cleaner_frontier_figures),
    Family::new("placement-frontier", placement_frontier_figures),
    Family::new("latency-anatomy", latency_anatomy_figures),
    Family::new("shard-sweep", shard_sweep_figures),
];

/// Exactly what `figures` prints at `scale`: Table 1 if `wants("table1")`,
/// then `to_text()` of each figure of every family `wants` names, each
/// followed by a newline.  `each` is handed every family's figures as they
/// are made (`figures --json` writes them out).
pub fn render_figures(
    scale: &Scale,
    wants: impl Fn(&str) -> bool,
    mut each: impl FnMut(&Family, &[Figure]),
) -> Result<String, StoreError> {
    let mut out = String::new();
    if wants("table1") {
        out.push_str(&table1().to_text());
        out.push('\n');
    }
    for family in FAMILIES.iter().filter(|family| wants(family.name)) {
        let figures = (family.run)(scale)?;
        for figure in &figures {
            out.push_str(&figure.to_text());
            out.push('\n');
        }
        each(family, &figures);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_expose_the_paper_parameters() {
        let full = Scale::full();
        assert_eq!(full.volume(PAPER_VOLUME), PAPER_VOLUME);
        assert_eq!(full.object(10 << 20), 10 << 20);
        assert_eq!(full.age_points().len(), 11);
        let report = Scale::report();
        assert_eq!(report.volume(PAPER_VOLUME), 4_000_000_000);
        assert!(Scale::smoke().volume(PAPER_VOLUME) < report.volume(PAPER_VOLUME));
        assert!(Scale::smoke().object(256 << 10) >= 64 << 10);
        // The scaling story needs the big fleets at report scale, while the
        // smoke scale stays small.
        assert_eq!(report.fleet_sizes(), vec![2, 4, 8, 16, 32, 64]);
        assert_eq!(Scale::full().fleet_sizes(), vec![2, 4, 8, 16, 32, 64]);
        assert_eq!(Scale::smoke().fleet_sizes(), vec![2, 4]);
        assert_eq!(Scale::by_name("report"), Some(report));
        assert_eq!(Scale::by_name("smoke"), Some(Scale::smoke()));
        assert_eq!(Scale::by_name("bogus"), None);
    }

    #[test]
    fn aging_sweep_is_substrate_major_and_fails_whole_on_a_bad_variant() {
        let scale = Scale::smoke();
        let with_occupancy = |&occupancy: &f64| ExperimentConfig {
            occupancy,
            ..paper_config(&scale, 1 << 20)
        };
        let runs = aging_sweep(&ALL_KINDS, &[0.3, 0.5, 0.4], with_occupancy, &[1], false).unwrap();
        let order: Vec<(StoreKind, f64)> = runs.iter().map(|(kind, v, _)| (*kind, *v)).collect();
        assert_eq!(order, cross(&ALL_KINDS, &[0.3, 0.5, 0.4]));
        for (kind, occupancy, result) in &runs {
            assert_eq!((result.kind, result.config.occupancy), (*kind, *occupancy));
        }
        let per_kind: Vec<_> = by_kind(&ALL_KINDS, &runs).collect();
        assert_eq!(per_kind.len(), 3);
        for ((kind, runs), expected) in per_kind.iter().zip(ALL_KINDS) {
            assert_eq!(*kind, expected);
            assert!(runs.len() == 3 && runs.iter().all(|run| run.0 == expected));
        }

        // One variant that fails `validate()` fails the sweep with its typed
        // error: no panic, no partial results.
        let error = aging_sweep(&PAPER_KINDS, &[0.5, 1.5], with_occupancy, &[1], false);
        assert!(matches!(error, Err(StoreError::BadConfig(_))), "{error:?}");
    }

    #[test]
    fn latency_anatomy_attributes_the_tail_to_named_components() {
        let scale = Scale::smoke();

        // Checked on the raw reports, which no golden carries: every tail
        // completion is ≥ 95% explained by named components (the exact
        // integer timeline makes it ~100% in practice).
        for kind in [StoreKind::Database, StoreKind::Filesystem] {
            for (label, placement, maintenance) in anatomy_variants() {
                let config = think_time_config(&scale)
                    .with_placement(placement)
                    .with_maintenance(maintenance);
                let ages: Vec<u32> = scale.age_points().into_iter().filter(|&a| a > 0).collect();
                let points = anatomy_vs_age(kind, &config, &ages).unwrap();
                assert_eq!(points.len(), ages.len());
                for (age, report) in &points {
                    assert!(
                        report.min_attributed_fraction >= 0.95,
                        "{} {label} age {age}: only {:.3} of the tail attributed",
                        kind.label(),
                        report.min_attributed_fraction
                    );
                    assert!(report.count > 0 && report.mean.total_ms > 0.0);
                }
            }
        }

        // A saturated foreground with an aggressive server-driven budget
        // *must* show maintenance interference in the tail: with zero think
        // time every background slice lands in front of a queued request.
        // (The gap-filling variants dodge the tail by design, which is the
        // point of the latency-anatomy figures.)
        let mut config = paper_config(&scale, 2 << 20);
        config.concurrency = 3;
        let config =
            config.with_maintenance(MaintenanceConfig::fixed_budget(512).with_server_drive());
        let points = anatomy_vs_age(StoreKind::Filesystem, &config, &[scale.max_age]).unwrap();
        assert!(
            points.iter().any(|(_, r)| r.mean.maintenance_ms > 0.0),
            "server-driven maintenance never delayed a tail completion"
        );
    }
}
