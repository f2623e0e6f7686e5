//! Wall-clock benchmark of the three-service atomio deployment.
//!
//! One run boots the provider, meta and version servers in process on
//! localhost, drives one workload from [`CLIENTS`] client threads in a
//! closed loop for a given time, checks every output, and reports
//! end-to-end metrics (untraced) or per-layer metrics (traced: the five
//! public seams wrapped in timing decorators, see [`seams`]).
//!
//! How ranks run: the ranks of a data workload are actors on one shared
//! `SimClock` driven through `run_actors_on`, as every repository suite
//! drives concurrent ranks. The clock's sequencer runs one rank's client
//! code at a time between waits; the benchmark measures the program as it
//! runs. Ranks on separate clocks do not work yet: `VersionHistory::absorb`
//! checks the history length and appends in two separate steps, so a
//! concurrent append can land between them (panic "history rows must be
//! appended densely"), and the surviving rank then spins forever in
//! `wait_published` behind the dead rank's granted ticket.

pub mod analysis;
pub mod deploy;
pub mod seams;
pub mod stats;
pub mod workloads;

use analysis::{analyze, LayerReport};
use seams::{Layer, Span, Tracer, Watch};
use stats::{median, percentile, tail_percentile};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{measure_setup, run_trial, Ctx, RpcCounters, Trial};
pub use workloads::{Sizes, Workload, CLIENTS};

/// Longest any single op may run before the run is failed as wedged.
pub const OP_DEADLINE: Duration = Duration::from_secs(20);

/// Boots per run that `setup_s` is the median of. A boot that reaches a
/// server's accept loop while it sleeps waits out the loop's 5 ms poll,
/// and disk-backed boots sync their superblocks, so single boots are
/// bimodal; the median reports the common mode.
const SETUP_BOOTS: usize = 31;

/// CPUs available to this process (after [`pin_to_one_cpu`], one).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `cpu_set_t`: a 1024-bit CPU mask.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread — and every thread it spawns afterwards
/// — to the lowest-numbered CPU it may run on, returning that CPU.
///
/// On a virtual machine, a vCPU that idles between the hops of an RPC
/// halts, and waking it waits on the hypervisor's scheduler. Unpinned on
/// a 2-vCPU VM, those wake-ups made up about 80% of a tile-atomic write
/// (25–40 ms against 6–8 ms pinned) and swung 2.5× from trial to trial.
/// On one CPU every hop is a context switch on a busy CPU, so the
/// numbers measure the program rather than the hypervisor.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed, and pid
    // 0 names the calling thread.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0).then_some(cpu)
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the same seed generates the same inputs.
    pub seed: u64,
    /// How long to keep starting trials.
    pub seconds: f64,
    /// Report per-layer metrics from traced trials instead of
    /// end-to-end metrics.
    pub trace: bool,
    /// CPUs the host offers (before pinning).
    pub host_cpus: usize,
    /// The CPU the run is pinned to, if any.
    pub pinned_cpu: Option<usize>,
}

/// A metric as reported: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What one run produced.
#[derive(Debug)]
pub struct RunReport {
    /// All outputs verified, no op failed, and (traced) spans reconcile.
    pub correct: bool,
    /// Ops attempted, every trial.
    pub attempted: u64,
    /// Ops failed, every trial.
    pub failed: u64,
    /// The contract metrics: end-to-end (untraced) or per-layer (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable report: provenance, every metric, reconciliation.
    pub text: String,
    /// Why the run is not correct.
    pub problems: Vec<String>,
}

impl RunReport {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Why each workload exists.
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::TileAtomic => {
            "region-bound: 128 overlapping 2 KiB extents per write_list, so per-region and \
             per-version fixed costs dominate (rpc calls, tree nodes, ticket extents, deep history)"
        }
        Workload::CheckpointDisk => {
            "byte-bound: one 4 MiB extent per dump on the disk backend with deferred fsync, few \
             meta/version calls; the no-change control for meta, version and codec changes"
        }
        Workload::NamespaceGrants => {
            "data-free: ticket+publish rounds over a 4-shard slot-routed version fleet; only \
             atomio-version and atomio-rpc work, the control for provider and meta changes"
        }
    }
}

/// Runs `args` at `sizes` and reports.
pub fn run(args: &Args, sizes: Sizes) -> RunReport {
    let watch = Arc::new(Watch::default());
    let tracer = args.trace.then(|| Arc::new(Tracer::default()));
    let done = AtomicBool::new(false);
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    let min_trials = sizes.min_trials.max(if args.trace { 2 } else { 1 });

    let (setups, untraced, traced) = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if let Some(wedge) = watch.overdue(OP_DEADLINE) {
                    eprintln!("perfbench: wedged op: {wedge}");
                    std::process::exit(3);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let start = Instant::now();
        let probe = Ctx {
            tracer: None,
            watch: &watch,
            seed: args.seed,
            trial: 0,
            sizes,
        };
        let setups = measure_setup(args.workload, &probe, SETUP_BOOTS);
        let mut untraced: Vec<Trial> = Vec::new();
        let mut traced: Vec<Trial> = Vec::new();
        for i in 0.. {
            if i >= min_trials && start.elapsed() >= budget {
                break;
            }
            // Traced runs alternate traced and untraced trials, so the
            // tracing overhead is measured under the same conditions.
            let trace_this = args.trace && i % 2 == 1;
            let ctx = Ctx {
                tracer: if trace_this { tracer.clone() } else { None },
                watch: &watch,
                seed: args.seed,
                trial: i as u64,
                sizes,
            };
            reset_peak_rss();
            let mut trial = run_trial(args.workload, &ctx);
            trial.peak_rss_mib = peak_rss_mib();
            eprintln!(
                "trial {i}{}: setup {:.1} ms, write p50 {:.3} ms, read p50 {:.3} ms",
                if trace_this { " (traced)" } else { "" },
                trial.setup.as_secs_f64() * 1e3,
                median(&trial.writes) * 1e3,
                median(&trial.reads) * 1e3
            );
            let stop = trial.violation.is_some() || trial.failed > 0;
            if trace_this {
                traced.push(trial);
            } else {
                untraced.push(trial);
            }
            if stop {
                break;
            }
        }
        done.store(true, Ordering::SeqCst);
        (setups, untraced, traced)
    });

    report(args, sizes, &setups, &untraced, &traced)
}

/// End-to-end numbers of a set of trials.
#[derive(Debug)]
struct EndToEnd {
    write_ops_s: f64,
    write_mib_s: f64,
    write_p50_ms: f64,
    write_tail_ms: f64,
    read_mib_s: f64,
    read_p50_ms: f64,
    read_tail_ms: f64,
    write_tail_pct: f64,
    read_tail_pct: f64,
    write_samples: usize,
    read_samples: usize,
}

const MIB: f64 = 1024.0 * 1024.0;

fn end_to_end(w: Workload, sizes: Sizes, trials: &[&Trial]) -> EndToEnd {
    let writes: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.writes.iter().copied())
        .collect();
    let reads: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.reads.iter().copied())
        .collect();
    let write_wall: f64 = trials.iter().map(|t| t.write_wall.as_secs_f64()).sum();
    let read_wall: f64 = trials.iter().map(|t| t.read_wall.as_secs_f64()).sum();
    let write_bytes: u64 = trials.iter().map(|t| t.write_bytes).sum();
    let read_bytes: u64 = trials.iter().map(|t| t.read_bytes).sum();
    // Tails are sized by the samples a run is guaranteed to take.
    let write_tail_pct = tail_percentile(sizes.min_trials * sizes.writes_per_trial(w));
    let read_tail_pct = tail_percentile(sizes.min_trials * sizes.reads_per_trial(w));
    let per_s = |n: f64, wall: f64| if wall > 0.0 { n / wall } else { 0.0 };
    EndToEnd {
        write_ops_s: per_s(writes.len() as f64, write_wall),
        write_mib_s: per_s(write_bytes as f64 / MIB, write_wall),
        write_p50_ms: median(&writes) * 1e3,
        write_tail_ms: percentile(&writes, write_tail_pct) * 1e3,
        read_mib_s: per_s(read_bytes as f64 / MIB, read_wall),
        read_p50_ms: median(&reads) * 1e3,
        read_tail_ms: percentile(&reads, read_tail_pct) * 1e3,
        write_tail_pct,
        read_tail_pct,
        write_samples: writes.len(),
        read_samples: reads.len(),
    }
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// size. Where the kernel refuses, the peak stays cumulative.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Filesystem type of the mount holding the working directory.
fn working_dir_filesystem() -> String {
    let Ok(cwd) = std::env::current_dir().and_then(|d| d.canonicalize()) else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            cwd.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |k| k.trim().to_string())
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

fn report(
    args: &Args,
    sizes: Sizes,
    setups: &[f64],
    untraced: &[Trial],
    traced: &[Trial],
) -> RunReport {
    let w = args.workload;
    let all: Vec<&Trial> = untraced.iter().chain(traced).collect();
    let attempted: u64 = all.iter().map(|t| t.attempted).sum();
    let failed: u64 = all.iter().map(|t| t.failed).sum();
    let mut problems: Vec<String> = all
        .iter()
        .filter_map(|t| t.violation.clone())
        .chain(
            all.iter()
                .filter_map(|t| t.first_error.clone().map(|e| format!("op failed: {e}"))),
        )
        .collect();
    let e2e = end_to_end(w, sizes, &untraced.iter().collect::<Vec<_>>());
    let setup_s = median(setups);
    // Each trial's own peak, so a run's figure does not depend on how
    // many trials it made.
    let rss = median(&untraced.iter().map(|t| t.peak_rss_mib).collect::<Vec<_>>());
    let written: u64 = all.iter().map(|t| t.write_bytes).sum();
    let stored: u64 = all.iter().map(|t| t.stored_bytes).sum();
    let stored_per_user = if written == 0 {
        0.0
    } else {
        stored as f64 / written as f64
    };
    let error_rate = if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    };

    let mut text = String::new();
    let _ = writeln!(
        text,
        "perfbench {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (fsync, fs) = match w {
        Workload::CheckpointDisk => ("deferred", working_dir_filesystem()),
        _ => ("n/a (memory backend)", "n/a (memory backend)".to_string()),
    };
    let _ = writeln!(
        text,
        "provenance: seed={} git={} nproc={} pinned_cpu={} kernel={} backend={} fsync={} \
         backend_fs={}",
        args.seed,
        git_revision(),
        args.host_cpus,
        args.pinned_cpu
            .map_or_else(|| "none".to_string(), |c| c.to_string()),
        kernel(),
        w.backend_label(),
        fsync,
        fs
    );
    let _ = writeln!(text, "why: {}", why(w));
    let _ = writeln!(
        text,
        "deployment: {} providers, 1 meta server x {} shards, {} version server(s), mux \
         transport (1 conn/server), {} dispatch workers/server, zero cost model; {} client \
         threads, closed loop{}",
        deploy::PROVIDERS,
        deploy::META_SHARDS,
        if w == Workload::NamespaceGrants { 4 } else { 1 },
        nproc(),
        CLIENTS,
        if w == Workload::NamespaceGrants {
            ""
        } else {
            "; ranks share one SimClock, so one rank's client code runs at a time"
        }
    );
    let _ = writeln!(
        text,
        "trials: {} untraced + {} traced; per trial {} writes, {} reads; tails: write p{} of >= {} \
         samples (got {}), read p{} of >= {} samples (got {})",
        untraced.len(),
        traced.len(),
        sizes.writes_per_trial(w),
        sizes.reads_per_trial(w),
        e2e.write_tail_pct,
        sizes.min_trials * sizes.writes_per_trial(w),
        e2e.write_samples,
        e2e.read_tail_pct,
        sizes.min_trials * sizes.reads_per_trial(w),
        e2e.read_samples,
    );

    // The workload-specific metrics, by name and unit.
    let _ = writeln!(text, "end-to-end (untraced trials):");
    let mut table: Vec<Metric> = Vec::new();
    if w == Workload::NamespaceGrants {
        table.push(metric("grant_rounds_s", e2e.write_ops_s, "1/s"));
        table.push(metric("grant_p50_us", e2e.write_p50_ms * 1e3, "us"));
        table.push(metric("grant_tail_us", e2e.write_tail_ms * 1e3, "us"));
        table.push(metric("latest_p50_us", e2e.read_p50_ms * 1e3, "us"));
    } else {
        table.push(metric("write_mib_s", e2e.write_mib_s, "MiB/s"));
        table.push(metric("write_p50_ms", e2e.write_p50_ms, "ms"));
        table.push(metric("write_tail_ms", e2e.write_tail_ms, "ms"));
        table.push(metric("read_mib_s", e2e.read_mib_s, "MiB/s"));
        table.push(metric("read_p50_ms", e2e.read_p50_ms, "ms"));
        table.push(metric("read_tail_ms", e2e.read_tail_ms, "ms"));
        table.push(metric("stored_bytes_per_user_byte", stored_per_user, "B/B"));
    }
    table.push(metric("op_error_rate", error_rate, "share"));
    table.push(metric("setup_s", setup_s, "s"));
    table.push(metric("peak_rss_mib", rss, "MiB"));
    for (name, value, unit) in &table {
        let _ = writeln!(text, "  {name:<28} {value:>14.4} {unit}");
    }

    let metrics = if args.trace {
        let spans: Vec<Span> = traced
            .iter()
            .flat_map(|t| t.spans.iter().cloned())
            .collect();
        let layers = analyze(&spans);
        problems.extend(layers.double_counted.iter().take(5).cloned());
        let traced_e2e = end_to_end(w, sizes, &traced.iter().collect::<Vec<_>>());
        let overhead = if e2e.write_p50_ms > 0.0 {
            traced_e2e.write_p50_ms / e2e.write_p50_ms - 1.0
        } else {
            0.0
        };
        if let Some(last) = traced.last() {
            dump_spans(w, &last.spans);
        }
        let metrics = layer_metrics(&layers, &all, overhead, stored_per_user);
        describe_layers(&mut text, &layers, &metrics, overhead);
        metrics
    } else {
        vec![
            metric("write_ops_s", e2e.write_ops_s, "1/s"),
            metric("write_p50_ms", e2e.write_p50_ms, "ms"),
            metric("write_tail_ms", e2e.write_tail_ms, "ms"),
            metric("read_p50_ms", e2e.read_p50_ms, "ms"),
            metric("read_tail_ms", e2e.read_tail_ms, "ms"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mib", rss, "MiB"),
        ]
    };
    for p in &problems {
        let _ = writeln!(text, "FAILED: {p}");
    }
    RunReport {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        text,
        problems,
    }
}

fn layer_metrics(
    layers: &LayerReport,
    all: &[&Trial],
    overhead: f64,
    stored_per_user: f64,
) -> Vec<Metric> {
    let mut rpc = RpcCounters::default();
    for t in all {
        rpc.absorb(t.rpc);
    }
    let payload: u64 = all.iter().map(|t| t.write_bytes + t.read_bytes).sum();
    let ops: u64 = all.iter().map(|t| t.attempted).sum();
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let mut metrics: Vec<Metric> = layers.metrics.clone();
    metrics.extend([
        metric(
            "rpc.wire_bytes_per_payload_byte",
            ratio(rpc.wire_bytes as f64, payload as f64),
            "B/B",
        ),
        metric(
            "rpc.wire_bytes_per_op",
            ratio(rpc.wire_bytes as f64, ops as f64),
            "B",
        ),
        metric("rpc.inflight_peak", rpc.inflight_peak as f64, "count"),
        metric(
            "rpc.mux_queue_time_us",
            ratio(rpc.mux_queue_ns as f64 / 1e3, rpc.messages as f64),
            "us",
        ),
        metric("rpc.retries", rpc.retries as f64, "count"),
        metric("storage.bytes_per_user_byte", stored_per_user, "B/B"),
        metric("trace.overhead_share", overhead, "share"),
    ]);
    metrics
}

fn describe_layers(text: &mut String, layers: &LayerReport, metrics: &[Metric], overhead: f64) {
    let _ = writeln!(text, "per-layer (traced trials):");
    for (name, value, unit) in metrics {
        let _ = writeln!(text, "  {name:<36} {value:>14.4} {unit}");
    }
    let _ = writeln!(
        text,
        "rpc overhead by request kind (mean client - mean handler):"
    );
    for (kind, us, calls) in &layers.overhead_by_kind {
        let _ = writeln!(text, "  {kind:<20} {us:>10.2} us over {calls} calls");
    }
    let _ = writeln!(
        text,
        "reconciliation (mean per op, us): op = core self + chunk + node + oracle + transport \
         self + unattributed"
    );
    for (label, rec) in [("write", &layers.writes), ("read", &layers.reads)] {
        if rec.ops == 0 {
            continue;
        }
        let per = |ns: u64| ns as f64 / rec.ops as f64 / 1e3;
        let layer = |l: Layer| per(rec.layer_self_ns.get(&l).copied().unwrap_or(0));
        let _ = writeln!(
            text,
            "  {label:<5} {:>10.1} = {:.1} + {:.1} + {:.1} + {:.1} + {:.1} + {:.1}  ({} ops)",
            per(rec.op_ns),
            per(rec.core_self_ns),
            layer(Layer::Chunk),
            layer(Layer::Node),
            layer(Layer::Oracle),
            layer(Layer::Transport),
            per(rec.unattributed_ns),
            rec.ops
        );
    }
    let _ = writeln!(
        text,
        "tracing overhead: traced write p50 is {:+.1}% of untraced",
        overhead * 100.0
    );
}

/// Writes the last traced trial's spans to `.perfbench_out/`.
fn dump_spans(w: Workload, spans: &[Span]) {
    let dir = std::path::Path::new(".perfbench_out");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut out = String::from("id,parent,op,layer,role,name,start_ns,end_ns,bytes,items,ok\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{},{},{},{:?},{},{},{},{},{},{},{}",
            s.id,
            s.parent,
            s.op,
            s.layer,
            s.role.map_or("", |r| r.name()),
            s.name,
            s.start_ns,
            s.end_ns,
            s.bytes,
            s.items,
            s.ok
        );
    }
    let _ = std::fs::write(dir.join(format!("{}.spans.csv", w.name())), out);
}
