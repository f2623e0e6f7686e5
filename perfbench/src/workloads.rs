//! The three workloads. Each trial boots a fresh deployment, runs a fixed
//! number of ops (so history depth and per-op layer counts do not depend
//! on speed), then verifies the outputs outside the timed region.

use crate::deploy::{boot, Deployment, ScratchDir, Spec};
use crate::seams::{Layer, OpKind, Span, TracedOracle, Tracer, Watch};
use atomio_core::{Blob, ReadVersion};
use atomio_meta::NodeKey;
use atomio_rpc::{transport::counters, RemoteVersionManager};
use atomio_simgrid::clock::run_actors_on;
use atomio_simgrid::{Metrics, SimClock};
use atomio_types::stamp::{mix64, WriteStamp};
use atomio_types::{
    BackendConfig, BlobId, ByteRange, ClientId, ExtentList, FsyncPolicy, Result, VersionId,
};
use atomio_version::VersionOracle;
use atomio_workloads::{check_serializable_from, CheckpointWorkload, TileWorkload, WriteRecord};
use bytes::Bytes;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads (ranks or tenants) every workload runs.
pub const CLIENTS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// mpi-tile-io: 128 overlapping 2 KiB rows per `write_list`.
    TileAtomic,
    /// Halo-slab checkpoint dumps of 4 MiB on the disk backend.
    CheckpointDisk,
    /// E12's data-free ticket+publish mix over a 4-shard version fleet.
    NamespaceGrants,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::TileAtomic,
        Workload::CheckpointDisk,
        Workload::NamespaceGrants,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TileAtomic => "tile-atomic",
            Workload::CheckpointDisk => "checkpoint-disk",
            Workload::NamespaceGrants => "namespace-grants",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops per trial and the least number of trials a run makes.
    pub fn sizes(self) -> Sizes {
        match self {
            Workload::TileAtomic => Sizes {
                rounds: 40,
                reads_per_client: 16,
                blobs_per_tenant: 0,
                min_trials: 10,
            },
            Workload::CheckpointDisk => Sizes {
                rounds: 16,
                reads_per_client: 8,
                blobs_per_tenant: 0,
                min_trials: 10,
            },
            Workload::NamespaceGrants => Sizes {
                rounds: GRANT_ROUNDS,
                reads_per_client: 0,
                blobs_per_tenant: 1024,
                min_trials: 2,
            },
        }
    }

    /// Storage backend label, for provenance.
    pub fn backend_label(self) -> &'static str {
        match self {
            Workload::CheckpointDisk => "disk",
            _ => "memory",
        }
    }
}

/// How much work one trial does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Write rounds per trial (every client writes once per round); on
    /// namespace-grants, ticket+publish rounds per blob.
    pub rounds: usize,
    /// Reads per client per trial (data workloads).
    pub reads_per_client: usize,
    /// Blobs per tenant per trial (namespace-grants).
    pub blobs_per_tenant: u64,
    /// Trials a run makes even when its time is up.
    pub min_trials: usize,
}

impl Sizes {
    /// Write ops one trial performs.
    pub fn writes_per_trial(&self, w: Workload) -> usize {
        match w {
            Workload::NamespaceGrants => CLIENTS * self.blobs_per_tenant as usize * self.rounds,
            _ => CLIENTS * self.rounds,
        }
    }

    /// Read ops one trial performs.
    pub fn reads_per_trial(&self, w: Workload) -> usize {
        match w {
            Workload::NamespaceGrants => {
                CLIENTS * self.blobs_per_tenant.div_ceil(LATEST_EVERY) as usize
            }
            _ => CLIENTS * self.reads_per_client,
        }
    }
}

/// RPC counters a trial's client transports published during its timed
/// phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct RpcCounters {
    /// Round trips.
    pub messages: u64,
    /// Wire bytes sent plus received, payloads included.
    pub wire_bytes: u64,
    /// Connect retries.
    pub retries: u64,
    /// Nanoseconds callers queued behind a mux writer.
    pub mux_queue_ns: u64,
    /// Highest in-flight call count on one transport.
    pub inflight_peak: u64,
}

impl RpcCounters {
    fn read(m: &Metrics) -> Self {
        RpcCounters {
            messages: m.counter(counters::MESSAGES).get(),
            wire_bytes: m.counter(counters::BYTES_TX).get() + m.counter(counters::BYTES_RX).get(),
            retries: m.counter(counters::RETRIES).get(),
            mux_queue_ns: m.counter(counters::MUX_QUEUE_TIME).get(),
            inflight_peak: m.counter(counters::INFLIGHT_PEAK).get(),
        }
    }

    fn since(self, before: RpcCounters) -> Self {
        RpcCounters {
            messages: self.messages - before.messages,
            wire_bytes: self.wire_bytes - before.wire_bytes,
            retries: self.retries - before.retries,
            mux_queue_ns: self.mux_queue_ns - before.mux_queue_ns,
            inflight_peak: self.inflight_peak,
        }
    }

    /// Adds `other`'s counts (peaks take the maximum).
    pub fn absorb(&mut self, other: RpcCounters) {
        self.messages += other.messages;
        self.wire_bytes += other.wire_bytes;
        self.retries += other.retries;
        self.mux_queue_ns += other.mux_queue_ns;
        self.inflight_peak = self.inflight_peak.max(other.inflight_peak);
    }
}

/// What one trial measured.
#[derive(Debug, Default)]
pub struct Trial {
    /// Booting the servers, dialing, and creating blobs.
    pub setup: Duration,
    /// Latency of every write op, seconds.
    pub writes: Vec<f64>,
    /// Wall time of the write phase.
    pub write_wall: Duration,
    /// Payload bytes written.
    pub write_bytes: u64,
    /// Latency of every read op, seconds.
    pub reads: Vec<f64>,
    /// Wall time of the read phase (data workloads).
    pub read_wall: Duration,
    /// Payload bytes read.
    pub read_bytes: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// First failed op's error.
    pub first_error: Option<String>,
    /// Verification failure, if any.
    pub violation: Option<String>,
    /// Bytes the backend held after the writes (see `storage_note`).
    pub stored_bytes: u64,
    /// RPC counters of the timed phases.
    pub rpc: RpcCounters,
    /// Spans recorded (traced trials only).
    pub spans: Vec<Span>,
    /// Peak resident set size during the trial, MiB.
    pub peak_rss_mib: f64,
}

impl Trial {
    fn record<T>(&mut self, kind: OpKind, outcome: (Result<T>, f64)) -> Option<T> {
        let (result, secs) = outcome;
        self.attempted += 1;
        match kind {
            OpKind::Write => self.writes.push(secs),
            OpKind::Read => self.reads.push(secs),
        }
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert_with(|| e.to_string());
                None
            }
        }
    }

    fn fail(&mut self, why: String) {
        self.violation.get_or_insert(why);
    }
}

/// Per-run context shared by every trial.
pub struct Ctx<'a> {
    /// Set on traced trials.
    pub tracer: Option<Arc<Tracer>>,
    /// In-flight ops, for the watchdog.
    pub watch: &'a Arc<Watch>,
    /// The run's seed.
    pub seed: u64,
    /// Trial index within the run (varies the generated inputs).
    pub trial: u64,
    /// Work per trial.
    pub sizes: Sizes,
}

impl Ctx<'_> {
    /// Runs one op: registers it with the watch, times it, and (when
    /// tracing) wraps it in an op span.
    fn op<T>(
        &self,
        kind: OpKind,
        what: &'static str,
        rank: usize,
        blob: u64,
        f: impl FnOnce() -> Result<T>,
    ) -> (Result<T>, f64) {
        self.watch.begin(what, rank, blob);
        let open = self
            .tracer
            .as_ref()
            .and_then(|t| t.begin(Layer::Op, None, kind.name()));
        let t0 = Instant::now();
        let result = f();
        let secs = t0.elapsed().as_secs_f64();
        if let (Some(t), Some(open)) = (&self.tracer, open) {
            t.end(open, 0, 0, result.is_ok());
        }
        self.watch.end();
        (result, secs)
    }

    /// The stamp sequence number of `round` in this trial: distinct per
    /// seed, trial and round.
    fn seq(&self, round: usize) -> u64 {
        mix64(self.seed ^ 0x5EED_BE4C).wrapping_add(self.trial << 20) + round as u64
    }

    fn set_recording(&self, on: bool) {
        if let Some(t) = &self.tracer {
            t.set_recording(on);
        }
    }

    fn boot(&self, spec: &Spec) -> Deployment {
        boot(spec, &self.tracer, self.watch)
    }
}

/// Runs one trial of `workload`.
pub fn run_trial(workload: Workload, ctx: &Ctx<'_>) -> Trial {
    match workload {
        Workload::TileAtomic => tile_trial(ctx),
        Workload::CheckpointDisk => checkpoint_trial(ctx),
        Workload::NamespaceGrants => grants_trial(ctx),
    }
}

/// Chunk size of tile-atomic and namespace-grants.
const SMALL_CHUNK: u64 = 64 * 1024;
/// Chunk size of checkpoint-disk.
const CHECKPOINT_CHUNK: u64 = 256 * 1024;
/// Bytes per checkpoint cell.
const CELL: u64 = 16;
/// Cells per checkpoint slab: 4 MiB.
const CHECKPOINT_CELLS: u64 = (4 << 20) / CELL;
/// Ghost cells on each side of a checkpoint slab.
const HALO: u64 = 32;
/// Ticket+publish rounds per blob on namespace-grants.
const GRANT_ROUNDS: usize = 2;
/// Every this many blobs a tenant reads `latest`.
const LATEST_EVERY: u64 = 8;
/// Version-service shards on namespace-grants.
const GRANT_SHARDS: usize = 4;

/// The paper's series-2 tile: 2×1 tiles of 128 rows × 2 KiB (64
/// elements of 32 B), neighbours overlapping by 16 elements.
fn tile_geometry() -> TileWorkload {
    TileWorkload::new(2, 1, 64, 128, 32, 16, 16)
}

/// Two 4 MiB halo slabs.
fn checkpoint_geometry() -> CheckpointWorkload {
    CheckpointWorkload::new(CLIENTS, CHECKPOINT_CELLS, CELL, HALO)
}

/// Writes `rounds` rounds of `extents` (one list per rank) to `blob`
/// and returns each round's write records with their versions. Each
/// round runs its ranks as actors on the trial's one shared clock and
/// joins them before the next round starts — the barrier between dumps.
/// Payloads are generated between rounds, outside the timed phase.
fn write_rounds(
    ctx: &Ctx<'_>,
    t: &mut Trial,
    blob: &Blob,
    extents: &[ExtentList],
) -> Vec<Vec<(WriteRecord, VersionId)>> {
    let clock = SimClock::new();
    let blob_id = blob.id().raw();
    let mut out = Vec::with_capacity(ctx.sizes.rounds);
    for r in 0..ctx.sizes.rounds {
        let records: Vec<WriteRecord> = (0..CLIENTS)
            .map(|rank| {
                let stamp = WriteStamp::new(ClientId::new(rank as u64), ctx.seq(r));
                WriteRecord::new(stamp, extents[rank].clone())
            })
            .collect();
        let payloads: Vec<Bytes> = records
            .iter()
            .map(|w| Bytes::from(w.stamp.payload_for(&w.extents)))
            .collect();
        t.write_bytes += records.iter().map(|w| w.extents.total_len()).sum::<u64>();

        let start = Instant::now();
        let outcomes = run_actors_on(&clock, CLIENTS, |rank, p| {
            ctx.op(OpKind::Write, "write_list", rank, blob_id, || {
                blob.write_list(p, &extents[rank], payloads[rank].clone())
            })
        });
        t.write_wall += start.elapsed();

        let mut round = Vec::with_capacity(CLIENTS);
        for (record, outcome) in records.into_iter().zip(outcomes) {
            if let Some(v) = t.record(OpKind::Write, outcome) {
                round.push((record, v));
            }
        }
        out.push(round);
    }
    out
}

/// Every rank reads `extents[rank]` from the latest snapshot
/// `reads_per_client` times; returns the bytes each read returned.
fn read_phase(
    ctx: &Ctx<'_>,
    t: &mut Trial,
    blob: &Blob,
    extents: &[ExtentList],
) -> Vec<(usize, Vec<u8>)> {
    let clock = SimClock::new();
    let blob_id = blob.id().raw();
    let n = ctx.sizes.reads_per_client;
    let start = Instant::now();
    let per_rank = run_actors_on(&clock, CLIENTS, |rank, p| {
        (0..n)
            .map(|_| {
                ctx.op(OpKind::Read, "read_list", rank, blob_id, || {
                    blob.read_list(p, ReadVersion::Latest, &extents[rank])
                })
            })
            .collect::<Vec<_>>()
    });
    t.read_wall = start.elapsed();
    let mut out = Vec::new();
    for (rank, outcomes) in per_rank.into_iter().enumerate() {
        for outcome in outcomes {
            if let Some(bytes) = t.record(OpKind::Read, outcome) {
                t.read_bytes += bytes.len() as u64;
                out.push((rank, bytes));
            }
        }
    }
    out
}

/// Reads `extents` of `version` (or the latest) outside any op.
fn read_untimed(blob: &Blob, version: ReadVersion, extents: &ExtentList) -> Result<Vec<u8>> {
    run_actors_on(&SimClock::new(), 1, |_, p| {
        blob.read_list(p, version, extents)
    })
    .pop()
    .expect("one reader")
}

/// Packs `state`'s bytes under `extents` in file order.
fn project(state: &[u8], extents: &ExtentList) -> Vec<u8> {
    let mut out = Vec::with_capacity(extents.total_len() as usize);
    for r in extents.ranges() {
        out.extend_from_slice(&state[r.offset as usize..r.end() as usize]);
    }
    out
}

/// Replays `writes` over a zero file of `len` bytes in version order.
fn replay_in_order(len: u64, writes: &[(WriteRecord, VersionId)]) -> Vec<u8> {
    let mut state = vec![0u8; len as usize];
    let mut ordered: Vec<&(WriteRecord, VersionId)> = writes.iter().collect();
    ordered.sort_by_key(|(_, v)| *v);
    for (w, _) in ordered {
        for r in w.extents.ranges() {
            w.stamp
                .fill_range(r.offset, &mut state[r.offset as usize..r.end() as usize]);
        }
    }
    state
}

/// Sums the payload bytes every provider holds (memory backend).
fn provider_bytes(store: &atomio_core::Store) -> u64 {
    store
        .providers()
        .providers()
        .iter()
        .map(|p| p.bytes_stored())
        .sum()
}

/// Stops recording and takes this trial's spans and RPC counters.
fn close_timed(ctx: &Ctx<'_>, t: &mut Trial, d: &Deployment, before: RpcCounters) {
    ctx.set_recording(false);
    t.rpc = RpcCounters::read(&d.rpc_metrics).since(before);
    if let Some(tracer) = &ctx.tracer {
        t.spans = tracer.drain();
    }
}

/// A booted deployment with the workload's blob (data workloads) and
/// its backend directory (disk backend).
struct Booted {
    d: Deployment,
    blob: Option<Blob>,
    dir: Option<ScratchDir>,
}

impl Booted {
    fn blob(&self) -> &Blob {
        self.blob.as_ref().expect("data workloads create a blob")
    }

    fn shutdown(self) {
        self.d.shutdown();
        drop(self.dir);
    }
}

/// Boots `workload`'s deployment and creates its blob, returning it with
/// the time that took: booting the servers, dialing, creating blobs.
fn boot_workload(workload: Workload, ctx: &Ctx<'_>, tag: &str) -> (Booted, Duration) {
    let t0 = Instant::now();
    let (spec, dir) = match workload {
        Workload::TileAtomic => (
            Spec {
                backend: BackendConfig::Memory,
                chunk: SMALL_CHUNK,
                version_shards: 1,
                seed: ctx.seed,
            },
            None,
        ),
        Workload::CheckpointDisk => {
            let dir = ScratchDir::new(&format!("{}-{}-{tag}", workload.name(), std::process::id()));
            let spec = Spec {
                backend: BackendConfig::disk(dir.path()).with_fsync(FsyncPolicy::Deferred),
                chunk: CHECKPOINT_CHUNK,
                version_shards: 1,
                seed: ctx.seed,
            };
            (spec, Some(dir))
        }
        Workload::NamespaceGrants => (
            Spec {
                backend: BackendConfig::Memory,
                chunk: SMALL_CHUNK,
                version_shards: GRANT_SHARDS,
                seed: ctx.seed,
            },
            None,
        ),
    };
    let d = ctx.boot(&spec);
    // Grant blobs come into being on their first ticket.
    let blob = (workload != Workload::NamespaceGrants).then(|| d.store.create_blob());
    (Booted { d, blob, dir }, t0.elapsed())
}

/// Boots and shuts down `workload`'s deployment `n` times; returns each
/// set-up time, seconds.
pub fn measure_setup(workload: Workload, ctx: &Ctx<'_>, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let (booted, setup) = boot_workload(workload, ctx, &format!("setup{i}"));
            booted.shutdown();
            setup.as_secs_f64()
        })
        .collect()
}

fn tile_trial(ctx: &Ctx<'_>) -> Trial {
    let mut t = Trial::default();
    let tile = tile_geometry();
    let extents: Vec<ExtentList> = (0..CLIENTS).map(|r| tile.extents_for(r)).collect();
    let (booted, setup) = boot_workload(Workload::TileAtomic, ctx, &ctx.trial.to_string());
    t.setup = setup;
    let (d, blob) = (&booted.d, booted.blob());

    let before = RpcCounters::read(&d.rpc_metrics);
    ctx.set_recording(true);
    let rounds = write_rounds(ctx, &mut t, blob, &extents);
    let reads = read_phase(ctx, &mut t, blob, &extents);
    close_timed(ctx, &mut t, d, before);
    t.stored_bytes = provider_bytes(&d.store);

    // Every round's snapshot must be a serial outcome of that round's
    // writes over the previous round's state.
    if t.failed == 0 {
        let file = ExtentList::single(ByteRange::new(0, tile.dataset_bytes()));
        let mut base = vec![0u8; tile.dataset_bytes() as usize];
        for (r, round) in rounds.iter().enumerate() {
            let mut versions: Vec<u64> = round.iter().map(|(_, v)| v.raw()).collect();
            versions.sort_unstable();
            let expected: Vec<u64> = (1..=CLIENTS as u64)
                .map(|k| (r * CLIENTS) as u64 + k)
                .collect();
            if versions != expected {
                t.fail(format!(
                    "round {r} got versions {versions:?}, expected {expected:?}"
                ));
                break;
            }
            let at = VersionId::new(*versions.last().expect("a round has writes"));
            let state = match read_untimed(blob, ReadVersion::At(at), &file) {
                Ok(state) => state,
                Err(e) => {
                    t.fail(format!("reading round {r}'s snapshot {at:?}: {e}"));
                    break;
                }
            };
            let writes: Vec<WriteRecord> = round.iter().map(|(w, _)| w.clone()).collect();
            if let Err(v) = check_serializable_from(Some(&base), &state, &writes) {
                t.fail(format!(
                    "round {r} snapshot {at:?} is not serializable: {v:?}"
                ));
                break;
            }
            base = state;
        }
        for (rank, bytes) in &reads {
            if *bytes != project(&base, &extents[*rank]) {
                t.fail(format!(
                    "rank {rank}'s read_list differs from the last snapshot"
                ));
                break;
            }
        }
    }
    booted.shutdown();
    t
}

fn checkpoint_trial(ctx: &Ctx<'_>) -> Trial {
    let mut t = Trial::default();
    let ckpt = checkpoint_geometry();
    let extents: Vec<ExtentList> = (0..CLIENTS).map(|r| ckpt.extents_for(r)).collect();
    let file = ExtentList::single(ByteRange::new(0, ckpt.file_bytes()));
    let whole: Vec<ExtentList> = vec![file.clone(); CLIENTS];

    let (booted, setup) = boot_workload(Workload::CheckpointDisk, ctx, &ctx.trial.to_string());
    t.setup = setup;
    let (d, blob) = (&booted.d, booted.blob());

    let before = RpcCounters::read(&d.rpc_metrics);
    ctx.set_recording(true);
    let rounds = write_rounds(ctx, &mut t, blob, &extents);
    let reads = read_phase(ctx, &mut t, blob, &whole);
    close_timed(ctx, &mut t, d, before);
    t.stored_bytes = booted.dir.as_ref().map_or(0, ScratchDir::bytes_used);

    // The restart read must equal the last round's dumps byte for byte,
    // the later version winning the halo.
    if t.failed == 0 {
        let last = rounds.last().expect("at least one round");
        let expected = replay_in_order(ckpt.file_bytes(), last);
        let latest = (ctx.sizes.rounds * CLIENTS) as u64;
        match run_actors_on(&SimClock::new(), 1, |_, p| blob.latest(p)).pop() {
            Some(Ok(snap)) if snap.version.raw() == latest => {}
            other => t.fail(format!(
                "latest snapshot is {other:?}, expected version {latest}"
            )),
        }
        if let Some((rank, _)) = reads.iter().find(|(_, bytes)| *bytes != expected) {
            t.fail(format!(
                "rank {rank}'s restart read differs from the last round's stamps"
            ));
        }
    }
    booted.shutdown();
    t
}

/// FNV-1a over `(blob, version, size)` triples — E12's chain digest.
fn fold(digest: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn grants_trial(ctx: &Ctx<'_>) -> Trial {
    let mut t = Trial::default();
    let per_tenant = ctx.sizes.blobs_per_tenant;
    let rounds = ctx.sizes.rounds;
    // Dense blob ids from a seeded base, so the seed moves the slot mix.
    let base = (mix64(ctx.seed ^ (ctx.trial << 32)) >> 24) & !0xFFFF;
    let (booted, setup) = boot_workload(Workload::NamespaceGrants, ctx, &ctx.trial.to_string());
    t.setup = setup;
    let d = &booted.d;

    let before = RpcCounters::read(&d.rpc_metrics);
    ctx.set_recording(true);
    let start = Instant::now();
    type Outcome = (OpKind, (Result<u64>, f64));
    let per_tenant_outcomes: Vec<Vec<Outcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|tenant| {
                let version = Arc::clone(&d.version);
                s.spawn(move || {
                    // The remote oracle ignores its participant except to
                    // pace `wait_published`, which this mix never calls.
                    let clock = SimClock::new();
                    let p = clock.register();
                    let mut out = Vec::new();
                    let lo = base + tenant as u64 * per_tenant;
                    for blob in lo..lo + per_tenant {
                        let oracle = TracedOracle::new(
                            Arc::new(RemoteVersionManager::new(blob, Arc::clone(&version))),
                            ctx.tracer.clone(),
                            Arc::clone(ctx.watch),
                        );
                        for _ in 0..rounds {
                            let outcome =
                                ctx.op(OpKind::Write, "ticket+publish", tenant, blob, || {
                                    let (ticket, _) = oracle.ticket_append(&p, SMALL_CHUNK)?;
                                    let root = NodeKey::new(
                                        BlobId::new(blob),
                                        ticket.version,
                                        ByteRange::new(0, ticket.capacity),
                                    );
                                    oracle.publish(&p, ticket, root)?;
                                    Ok(ticket.version.raw())
                                });
                            out.push((OpKind::Write, outcome));
                        }
                        if (blob - lo).is_multiple_of(LATEST_EVERY) {
                            let outcome = ctx.op(OpKind::Read, "latest", tenant, blob, || {
                                oracle.latest(&p).map(|s| s.version.raw())
                            });
                            out.push((OpKind::Read, outcome));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    t.write_wall = start.elapsed();
    close_timed(ctx, &mut t, d, before);

    for outcomes in per_tenant_outcomes {
        for (kind, outcome) in outcomes {
            if let (Some(v), OpKind::Read) = (t.record(kind, outcome), kind) {
                if v != rounds as u64 {
                    t.fail(format!("a latest read saw version {v}, expected {rounds}"));
                }
            }
        }
    }

    // Every blob ends at its expected version and size: compare E12's
    // chain digest against the one the workload implies.
    if t.failed == 0 {
        let (mut got, mut want) = (FNV_OFFSET, FNV_OFFSET);
        for blob in base..base + CLIENTS as u64 * per_tenant {
            let vm = RemoteVersionManager::new(blob, Arc::clone(&d.version));
            match vm.latest() {
                Ok(snap) => {
                    fold(&mut got, blob);
                    fold(&mut got, snap.version.raw());
                    fold(&mut got, snap.size);
                }
                Err(e) => {
                    t.fail(format!("digest read of blob {blob}: {e}"));
                    break;
                }
            }
            fold(&mut want, blob);
            fold(&mut want, rounds as u64);
            fold(&mut want, rounds as u64 * SMALL_CHUNK);
        }
        if got != want {
            t.fail(format!(
                "version-chain digest {got:#018x} differs from the expected {want:#018x}"
            ));
        }
    }
    booted.shutdown();
    t
}
