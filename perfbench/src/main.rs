//! `jetty-perfbench`: the layer half of the reproduction benchmark.
//!
//! `perfbench/run.py` times the `jetty-repro` binary end to end. This
//! program supplies what a process boundary cannot show: it calls each
//! layer's public functions itself and times them from the outside, so no
//! timer lives inside the crates.
//!
//! * `setup` times the construction of a workload's simulation state:
//!   `Engine::new`, then `TraceGen::new` and `System::new` for every
//!   (suite, app) job, `--reps` times after one untimed warm-up.
//! * `trace` drives every job of a workload through the layers one at a
//!   time on one thread, keeps spans (name, job, start, end, parent) in
//!   memory, writes them to `--out` at the end and prints the per-layer
//!   metrics and soundness checks as one JSON object.
//!
//! ```text
//! jetty-perfbench setup --workload W --scale S --threads N --reps K
//! jetty-perfbench trace --workload W --scale S --threads N --seed X --out DIR
//! ```
//!
//! Filter replay has no public entry of its own, so it is measured by
//! difference: the same kept chunks run through a system with an empty
//! bank (the substrate alone), a `[FilterSpec::Null]` bank (plus event
//! logging), the whole bank, and each filter family's subset of it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jetty_core::FilterSpec;
use jetty_energy::{AccessMode, SmpEnergyModel};
use jetty_experiments::figures::{self, Fig6Panel};
use jetty_experiments::results::render::Format;
use jetty_experiments::store::diff::{diff_runs, DiffOptions};
use jetty_experiments::store::{unix_time_now, RunInfo, RunStore};
use jetty_experiments::sweep::{self, SweepGrid};
use jetty_experiments::{ablation, tables};
use jetty_experiments::{AppRun, Engine, JettyError, ResultSet, RunOptions};
use jetty_sim::{FilterReport, MemRef, RunGate, System, SystemConfig};
use jetty_workloads::{apps, AppProfile, TraceGen};

/// The benchmark's workloads, each the exact suite list and exhibit order
/// of one `jetty-repro` invocation (see `run.py` for the command lines).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// `jetty-repro all --store FILE`.
    PaperAll,
    /// `jetty-repro sweep`.
    SweepGrid,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "paper-all" => Some(Self::PaperAll),
            "sweep-grid" => Some(Self::SweepGrid),
            _ => None,
        }
    }

    /// The subcommands `jetty-repro` records in a run store.
    fn command(self) -> &'static str {
        match self {
            Self::PaperAll => "all",
            Self::SweepGrid => "sweep",
        }
    }

    /// The suites the CLI prefetches for this workload, in its order.
    fn suites(self, scale: f64) -> Vec<RunOptions> {
        let suite = |cpus: usize, non_subblocked: bool| {
            RunOptions::paper()
                .with_scale(scale)
                .with_cpus(cpus)
                .with_non_subblocked(non_subblocked)
        };
        match self {
            Self::PaperAll => vec![
                suite(4, false),
                suite(8, false),
                suite(4, true),
                ablation::ij_skip_options(scale, false),
                ablation::hj_policy_options(scale, false),
            ],
            Self::SweepGrid => SweepGrid::default_grid(scale).suites(false),
        }
    }

    /// Builds the exhibits in the order the CLI renders them, drawing
    /// every suite from `engine` (so each request counts as the CLI's
    /// would in the engine's cache statistics).
    fn exhibits(self, engine: &Engine, scale: f64) -> Result<ResultSet, JettyError> {
        let mut set = ResultSet::new();
        if self == Self::SweepGrid {
            let grid = SweepGrid::default_grid(scale);
            for table in sweep::sweep_results(engine, &grid, false)?.tables {
                set.push(table);
            }
            return Ok(set);
        }
        let suites = self.suites(scale);
        let base = engine.run_suite(&suites[0])?;
        set.push(tables::table1());
        set.push(figures::fig2(32, 10));
        set.push(figures::fig2(64, 10));
        set.push(tables::table2(&base));
        set.push(tables::table3(&base));
        set.push(figures::fig4a(&base));
        set.push(figures::fig4b(&base));
        set.push(figures::fig5a(&base));
        set.push(figures::fig5b(&base));
        set.push(tables::table4());
        for panel in [
            Fig6Panel::SnoopSerial,
            Fig6Panel::AllSerial,
            Fig6Panel::SnoopParallel,
            Fig6Panel::AllParallel,
        ] {
            set.push(figures::fig6(&base, panel));
        }
        set.push(tables::calibration(&base));
        set.push(figures::smp8_summary(&engine.run_suite(&suites[1])?));
        set.push(figures::nsb_summary(&engine.run_suite(&suites[2])?));
        set.push(ablation::ij_skip_ablation(engine, scale, false)?);
        set.push(ablation::hj_policy_ablation(engine, scale, false)?);
        Ok(set)
    }
}

/// The system a suite's jobs simulate: the same derivation the runner
/// applies to [`RunOptions`] (the traced-run soundness check compares the
/// rendered results with the CLI's, so a drift here cannot pass).
fn system_config(options: &RunOptions) -> SystemConfig {
    let mut config = if options.non_subblocked {
        SystemConfig::paper_4way_nsb()
    } else {
        SystemConfig::paper_4way()
    };
    config.cpus = options.cpus;
    config.protocol = options.protocol;
    if !options.check {
        config = config.without_checks();
    }
    config
}

/// The ten application profiles, with `seed` XORed into each built-in
/// seed (0 keeps the paper profiles exactly).
fn profiles(seed: u64) -> Vec<AppProfile> {
    apps::all()
        .into_iter()
        .map(|mut profile| {
            profile.seed ^= seed;
            profile
        })
        .collect()
}

/// The filter family a spec belongs to, as named in the metrics.
fn family(spec: &FilterSpec) -> Option<&'static str> {
    match spec {
        FilterSpec::Null => None,
        FilterSpec::Exclude(_) => Some("ej"),
        FilterSpec::VectorExclude(_) => Some("vej"),
        FilterSpec::Include(_) => Some("ij"),
        FilterSpec::Hybrid(_) => Some("hj"),
    }
}

/// Each family with the span its bank-subset pass is recorded under.
const FAMILIES: [(&str, &str); 4] = [
    ("ej", "replay.ej_pass"),
    ("vej", "replay.vej_pass"),
    ("ij", "replay.ij_pass"),
    ("hj", "replay.hj_pass"),
];

/// One recorded interval. Spans of one job share its index.
struct Span {
    name: &'static str,
    job: Option<usize>,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// In-memory span recorder: spans nest strictly on one thread.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn enter(&mut self, name: &'static str, job: Option<usize>) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.epoch.elapsed();
        self.spans.push(Span { name, job, start, end: start, parent });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.epoch.elapsed();
    }

    fn time<T>(&mut self, name: &'static str, job: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, job);
        let out = f();
        self.exit(id);
        out
    }

    fn seconds(&self, id: usize) -> f64 {
        (self.spans[id].end - self.spans[id].start).as_secs_f64()
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover (children run sequentially inside their parent).
    fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = (0..self.spans.len()).map(|i| self.seconds(i)).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                own[parent] -= self.seconds(i);
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            *by_name.entry(span.name).or_insert(0.0) += own;
        }
        by_name
    }

    fn to_json(&self) -> String {
        let opt = |v: Option<usize>| v.map_or("null".to_owned(), |v| v.to_string());
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{},\
                     \"parent\":{}}}",
                    s.name,
                    opt(s.job),
                    s.start.as_nanos(),
                    s.end.as_nanos(),
                    opt(s.parent)
                )
            })
            .collect();
        format!("[\n{}\n]\n", spans.join(",\n"))
    }
}

/// Runs the kept chunks through a fresh system carrying `bank`, building
/// it inside a `setup` span and simulating inside a `name` span. Returns
/// the system and the simulation seconds.
fn pass(
    tr: &mut Tracer,
    (setup, name): (&'static str, &'static str),
    job: usize,
    config: SystemConfig,
    bank: &[FilterSpec],
    chunks: &[Vec<MemRef>],
) -> (System, f64) {
    let mut system = tr.time(setup, Some(job), || System::new(config, bank));
    let gate = RunGate::unbounded();
    let id = tr.enter(name, Some(job));
    for chunk in chunks {
        if let Err(stop) = system.run_chunk_gated(chunk, &gate) {
            unreachable!("an unbounded gate never stops a run: {stop:?}");
        }
    }
    tr.exit(id);
    (system, tr.seconds(id))
}

/// Per-filter outcome used to compare a family pass with the full bank.
fn outcome(reports: &[FilterReport]) -> Vec<(String, u64, u64, u64)> {
    reports.iter().map(|r| (r.label.clone(), r.probes, r.filtered, r.would_miss)).collect()
}

#[derive(Default)]
struct Counts {
    refs: u64,
    bus_txns: u64,
    snoops: u64,
    would_miss_snoops: u64,
    probes: u64,
}

fn trace(args: &Args) -> Result<String, String> {
    let workload = args.workload;
    let suites = workload.suites(args.scale);
    let apps = profiles(args.seed);
    let mut tr = Tracer::new();
    let mut problems: Vec<String> = Vec::new();
    let mut counts = Counts::default();
    let (mut log_s, mut replay_s, mut full_s) = (0.0, 0.0, 0.0);
    let mut family_s: BTreeMap<&str, f64> = FAMILIES.iter().map(|(f, _)| (*f, 0.0)).collect();
    // Pooled (filtered, would-miss) per hybrid label, for the best-hybrid coverage.
    let mut hybrids: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut traced: Vec<Vec<AppRun>> = Vec::with_capacity(suites.len());

    let mut job = 0;
    for options in &suites {
        let config = system_config(options);
        let mut runs = Vec::with_capacity(apps.len());
        for profile in &apps {
            job += 1;
            let job_span = tr.enter("job", Some(job));
            let mut generator = tr.time("workloads.setup", Some(job), || {
                TraceGen::new(profile, options.cpus, options.scale)
            });
            let (footprint, refs) = (generator.footprint(), generator.len());
            let gen_id = tr.enter("workloads.gen", Some(job));
            let mut chunks = Vec::new();
            loop {
                let mut buf = Vec::with_capacity(System::CHUNK_LEN);
                if !generator.fill_chunk(&mut buf, System::CHUNK_LEN) {
                    break;
                }
                chunks.push(buf);
            }
            tr.exit(gen_id);
            let generated: u64 = chunks.iter().map(|c| c.len() as u64).sum();
            if generated != refs {
                problems.push(format!("job {job}: generated {generated} refs, len() says {refs}"));
            }

            let (empty, empty_s) =
                pass(&mut tr, ("pass.setup", "substrate.pass"), job, config, &[], &chunks);
            let (null, null_s) = pass(
                &mut tr,
                ("pass.setup", "replay.null_pass"),
                job,
                config,
                &[FilterSpec::Null],
                &chunks,
            );
            let (full, bank_s) = pass(
                &mut tr,
                ("substrate.setup", "replay.bank_pass"),
                job,
                config,
                &options.specs,
                &chunks,
            );
            log_s += null_s - empty_s;
            replay_s += bank_s - null_s;
            full_s += bank_s;

            let stats = full.run_stats();
            let reports = full.filter_reports();
            if empty.run_stats() != stats || null.run_stats() != stats {
                problems.push(format!("job {job}: filters changed the substrate's counts"));
            }
            let would_miss = stats.nodes.snoop_would_miss;
            if reports.iter().any(|r| r.would_miss != would_miss) {
                problems.push(format!("job {job}: would_miss differs across the bank"));
            }
            for (fam, name) in FAMILIES {
                let subset: Vec<FilterSpec> =
                    options.specs.iter().copied().filter(|s| family(s) == Some(fam)).collect();
                if subset.is_empty() {
                    continue;
                }
                let (system, fam_s) =
                    pass(&mut tr, ("pass.setup", name), job, config, &subset, &chunks);
                *family_s.get_mut(fam).expect("every family is pre-seeded") += fam_s - null_s;
                let expected: Vec<_> = outcome(&reports)
                    .into_iter()
                    .zip(&options.specs)
                    .filter(|(_, s)| family(s) == Some(fam))
                    .map(|(o, _)| o)
                    .collect();
                if outcome(&system.filter_reports()) != expected || system.run_stats() != stats {
                    problems.push(format!("job {job}: the {fam} subset disagrees with the bank"));
                }
            }
            for (report, spec) in reports.iter().zip(&options.specs) {
                if family(spec) == Some("hj") {
                    let pooled = hybrids.entry(report.label.clone()).or_default();
                    pooled.0 += report.filtered;
                    pooled.1 += report.would_miss;
                }
            }

            counts.refs += refs;
            counts.bus_txns += stats.system.transactions();
            counts.snoops += stats.nodes.snoops_seen;
            counts.would_miss_snoops += would_miss;
            counts.probes += reports.iter().map(|r| r.probes).sum::<u64>();
            runs.push(AppRun { profile: profile.clone(), footprint, refs, run: stats, reports });
            drop(chunks);
            tr.exit(job_span);
        }
        traced.push(runs);
    }

    // Energy: the model calls the exhibits make, over every report.
    let energy = tr.time("energy", None, || {
        let model = SmpEnergyModel::paper_node();
        let mut sum = 0.0;
        for run in traced.iter().flatten() {
            for report in &run.reports {
                sum += model.filter_energy(report);
                for mode in [AccessMode::Serial, AccessMode::Parallel] {
                    sum += model.breakdown(&run.run, Some(report), mode).total();
                    sum += model.snoop_energy_reduction(&run.run, report, mode);
                }
            }
        }
        black_box(sum)
    });
    if !energy.is_finite() {
        problems.push("energy model produced a non-finite total".to_owned());
    }

    // Exhibits from the traced runs: every suite is served from the cache.
    let cached = Engine::new(1);
    for (options, runs) in suites.iter().zip(traced) {
        cached.cache().insert(options.clone(), Arc::new(runs));
    }
    let set = tr
        .time("exhibits", None, || workload.exhibits(&cached, args.scale))
        .map_err(|e| format!("exhibits from the traced runs failed: {e}"))?;
    let text = tr.time("render.text", None, || Format::Text.renderer().render_set(&set));
    let json = tr.time("render.json", None, || Format::Json.renderer().render_set(&set));
    let csv = tr.time("render.csv", None, || Format::Csv.renderer().render_set(&set));

    // Store: append to a fresh file, scan it back, diff the record with itself.
    let store_path = args.out.join("store");
    let _ = std::fs::remove_file(&store_path);
    let store = RunStore::open(&store_path);
    let info = RunInfo {
        unix_time: unix_time_now(),
        git_rev: "perfbench".to_owned(),
        command: workload.command().to_owned(),
        options: suites[0].id(),
        timing_ms: 0,
    };
    tr.time("store.append", None, || store.append(&info, &set))
        .map_err(|e| format!("store append failed: {e}"))?;
    let scan = tr.time("store.scan", None, || store.scan()).map_err(|e| e.to_string())?;
    let record = scan.records.first().ok_or("the store scan found no record")?;
    if record.results != set {
        problems.push("the store did not round-trip the result set".to_owned());
    }
    let diff = tr.time("store.diff", None, || diff_runs(record, record, DiffOptions::default()));
    if !diff.is_clean() {
        problems.push("a record diffed against itself is not clean".to_owned());
    }
    let store_bytes = std::fs::metadata(&store_path).map_err(|e| e.to_string())?.len();

    // Engine: the workload's suites on the worker pool, as the CLI runs them.
    let engine = Engine::new(args.threads).with_shards(Engine::default_shards());
    let engine_id = tr.enter("engine", None);
    let outcomes = engine.run_suites(&suites);
    tr.exit(engine_id);
    let engine_s = tr.seconds(engine_id);
    if let Some(Err(e)) = outcomes.iter().find(|o| o.is_err()) {
        return Err(format!("engine suite failed: {e}"));
    }
    let engine_set =
        workload.exhibits(&engine, args.scale).map_err(|e| format!("engine exhibits: {e}"))?;
    let engine_text = Format::Text.renderer().render_set(&engine_set);
    let stats = engine.stats();
    let job_work: f64 = engine.take_timings().iter().map(|t| t.elapsed.as_secs_f64()).sum();

    std::fs::write(args.out.join("traced.txt"), &text).map_err(|e| e.to_string())?;
    std::fs::write(args.out.join("engine.txt"), &engine_text).map_err(|e| e.to_string())?;
    std::fs::write(args.out.join("spans.json"), tr.to_json()).map_err(|e| e.to_string())?;

    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let selfs = tr.self_times();
    let own = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_owned(), value);
    };
    let gen_s = own("workloads.gen");
    let substrate_s = own("substrate.pass");
    put("workloads.gen_s", gen_s);
    put("workloads.setup_s", own("workloads.setup"));
    put("workloads.refs", counts.refs as f64);
    put("workloads.ns_per_ref", per(gen_s * 1e9, counts.refs));
    put("substrate.busy_s", substrate_s);
    put("substrate.ns_per_ref", per(substrate_s * 1e9, counts.refs));
    put("substrate.setup_s", own("substrate.setup"));
    put("substrate.bus_txns", counts.bus_txns as f64);
    put("substrate.snoops", counts.snoops as f64);
    put("substrate.snoop_miss_frac", per(counts.would_miss_snoops as f64, counts.snoops));
    put("replay.log_s", log_s);
    put("replay.busy_s", replay_s);
    let mut family_sum = 0.0;
    for (fam, s) in &family_s {
        put(&format!("replay.{fam}.busy_s"), *s);
        family_sum += s;
    }
    put("replay.family_sum_s", family_sum);
    put("replay.family_sum_ratio", if replay_s == 0.0 { 0.0 } else { family_sum / replay_s });
    put("replay.probes", counts.probes as f64);
    put("replay.ns_per_probe", per(replay_s * 1e9, counts.probes));
    let best = hybrids.values().map(|&(f, w)| per(f as f64, w)).fold(0.0, f64::max);
    put("replay.hj_coverage", best);
    put("energy.busy_s", own("energy"));
    put("engine.busy_s", engine_s);
    put("engine.idle_frac", 1.0 - job_work / (args.threads as f64 * engine_s));
    put("engine.cache_hit_frac", stats.hit_rate());
    put("engine.jobs", stats.jobs_executed as f64);
    put("exhibits.busy_s", own("exhibits"));
    put("render.text_s", own("render.text"));
    put("render.json_s", own("render.json"));
    put("render.csv_s", own("render.csv"));
    put("render.bytes", (text.len() + json.len() + csv.len()) as f64);
    put("store.append_s", own("store.append"));
    put("store.scan_s", own("store.scan"));
    put("store.diff_s", own("store.diff"));
    put("store.bytes", store_bytes as f64);
    put("trace.gen_sim_s", gen_s + full_s);
    put("trace.unattributed_s", own("job"));
    put("trace.spans", tr.spans.len() as f64);

    let mut out = String::from("{\"metrics\": {");
    for (i, (name, value)) in m.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\": {}", if i > 0 { ", " } else { "" }, json_num(*value));
    }
    out.push_str("}, \"counts\": {");
    let _ = write!(
        out,
        "\"workloads.refs\": {}, \"substrate.bus_txns\": {}, \"substrate.snoops\": {}, \
         \"replay.probes\": {}",
        counts.refs, counts.bus_txns, counts.snoops, counts.probes
    );
    out.push_str("}, \"problems\": [");
    for (i, p) in problems.iter().enumerate() {
        let _ = write!(out, "{}\"{}\"", if i > 0 { ", " } else { "" }, p.replace('"', "'"));
    }
    out.push_str("]}");
    Ok(out)
}

fn setup(args: &Args) -> String {
    let suites = args.workload.suites(args.scale);
    let apps = profiles(args.seed);
    // One untimed warm-up first: the process's first construction pays
    // one-off heap growth that later constructions do not.
    let mut samples = Vec::with_capacity(args.reps + 1);
    let mut refs = 0u64;
    while samples.len() <= args.reps {
        let mut elapsed = Duration::ZERO;
        let start = Instant::now();
        let engine = black_box(Engine::new(args.threads).with_shards(Engine::default_shards()));
        elapsed += start.elapsed();
        refs = 0;
        for options in &suites {
            let config = system_config(options);
            for profile in &apps {
                let start = Instant::now();
                let generator = black_box(TraceGen::new(profile, options.cpus, options.scale));
                let system = black_box(System::new(config, &options.specs));
                elapsed += start.elapsed();
                refs += generator.len();
                drop((generator, system));
            }
        }
        drop(engine);
        samples.push(elapsed.as_secs_f64());
    }
    samples.remove(0);
    let jobs = suites.len() * apps.len();
    let paper_miss_pct =
        100.0 * apps.iter().map(|p| p.paper.snoop_miss_of_snoops).sum::<f64>() / apps.len() as f64;
    let samples: Vec<String> = samples.iter().map(|s| json_num(*s)).collect();
    format!(
        "{{\"setup_s\": [{}], \"jobs\": {jobs}, \"refs\": {refs}, \"paper_miss_pct\": {}}}",
        samples.join(", "),
        json_num(paper_miss_pct)
    )
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

struct Args {
    mode: String,
    workload: Workload,
    scale: f64,
    threads: usize,
    seed: u64,
    reps: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let mode = raw.next().ok_or("usage: jetty-perfbench setup|trace --workload W ...")?;
    if mode != "setup" && mode != "trace" {
        return Err(format!("unknown mode {mode:?} (modes: setup trace)"));
    }
    let mut args = Args {
        mode,
        workload: Workload::PaperAll,
        scale: 0.0,
        threads: 1,
        seed: 0,
        reps: 1,
        out: PathBuf::from("."),
    };
    let mut workload = None;
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad("workload"))?),
            "--scale" => args.scale = value.parse().map_err(|_| bad("scale"))?,
            "--threads" => args.threads = value.parse().map_err(|_| bad("thread count"))?,
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--reps" => args.reps = value.parse().map_err(|_| bad("rep count"))?,
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !(args.scale.is_finite() && args.scale > 0.0 && args.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".to_owned());
    }
    if args.threads == 0 || args.reps == 0 {
        return Err("--threads and --reps must be at least 1".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.mode == "setup" { Ok(setup(&args)) } else { trace(&args) };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
