//! Timing decorators for the five public seams the store is assembled
//! from, and the in-memory span recorder they share.
//!
//! | seam | crate | decorator |
//! |---|---|---|
//! | `Transport` (client side of the RPC) | `atomio-rpc` | [`TracedTransport`] |
//! | `Service` (server side of the RPC) | `atomio-rpc` | [`TracedService`] |
//! | `ChunkStore` | `atomio-provider` | [`TracedChunkStore`] |
//! | `NodeStore` | `atomio-meta` | [`TracedNodeStore`] |
//! | `VersionOracle` | `atomio-version` | [`TracedOracle`] |
//!
//! Each decorator forwards to the wrapped implementation and, while the
//! [`Tracer`] is recording, records one [`Span`] per call. A span's parent
//! is the innermost span open on the calling thread, and its op is the
//! operation span the workload loop opened around the `write_list`, `read_list`
//! or grant round the call belongs to. Server-side spans run on dispatch
//! threads, so they have no parent and no op.
//!
//! [`TracedOracle`] is installed in untraced runs too, without a tracer:
//! it tells the [`Watch`] which version each in-flight op was granted, so
//! a wedged op can be reported by blob and version.

use atomio_meta::{Node, NodeKey, NodeStore, VersionHistory};
use atomio_provider::{ChunkStore, ScrubReport};
use atomio_rpc::{Request, Response, Service, Transport};
use atomio_simgrid::{CostModel, Participant, Resource, SimTime};
use atomio_types::{
    ByteRange, ChunkId, ExtentList, ProviderId, Result, RetentionPolicy, VersionId,
};
use atomio_version::{GcFloor, LeaseGrant, SnapshotRecord, Ticket, VersionOracle};
use bytes::Bytes;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Which seam (or the workload loop's op) recorded a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// One end-to-end operation, opened by the workload loop.
    Op,
    /// `ChunkStore` calls (client side of the provider role).
    Chunk,
    /// `NodeStore` calls (client side of the meta role).
    Node,
    /// `VersionOracle` calls.
    Oracle,
    /// `Transport::call`: one RPC as the client sees it.
    Transport,
    /// `Service::handle`: one RPC as the server's handler sees it.
    Service,
}

/// The service an RPC span talks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Role {
    /// Chunk providers.
    Provider,
    /// The metadata server.
    Meta,
    /// The version service (one server or a sharded fleet).
    Version,
}

impl Role {
    /// Every role, in report order.
    pub const ALL: [Role; 3] = [Role::Provider, Role::Meta, Role::Version];

    /// The role's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Role::Provider => "provider",
            Role::Meta => "meta",
            Role::Version => "version",
        }
    }
}

/// The end-to-end operations the workload loop times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// One `write_list`, or one ticket+publish round on namespace-grants.
    Write,
    /// One `read_list`, or one `latest` call on namespace-grants.
    Read,
}

impl OpKind {
    /// The op's name in span dumps.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Write => "write",
            OpKind::Read => "read",
        }
    }
}

/// One timed call at a seam.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within one tracer.
    pub id: u64,
    /// The span open on the same thread when this one started (0: none).
    pub parent: u64,
    /// The enclosing op span (an op span's own id; 0: outside any op).
    pub op: u64,
    /// Which seam recorded it.
    pub layer: Layer,
    /// The RPC role, for transport and service spans.
    pub role: Option<Role>,
    /// Method name, request kind, or op kind.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Payload bytes the call moved (chunk data, RPC payloads).
    pub bytes: u64,
    /// Items the call carried (nodes in a batch, chunks).
    pub items: u64,
    /// False when the call returned an error or a `Fail` response.
    pub ok: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Spans open on this thread, innermost last: `(span id, op id)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Records spans in memory while recording is on.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    recording: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

/// A span that has started but not ended.
#[derive(Debug)]
pub struct OpenSpan {
    id: u64,
    parent: u64,
    op: u64,
    layer: Layer,
    role: Option<Role>,
    name: &'static str,
    start_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            recording: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Turns recording on or off (set-up and verification run unrecorded).
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span on the calling thread; `None` while not recording.
    pub fn begin(&self, layer: Layer, role: Option<Role>, name: &'static str) -> Option<OpenSpan> {
        if !self.recording.load(Ordering::Relaxed) {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, op) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let (parent, outer_op) = open.last().copied().unwrap_or((0, 0));
            let op = if layer == Layer::Op { id } else { outer_op };
            open.push((id, op));
            (parent, op)
        });
        Some(OpenSpan {
            id,
            parent,
            op,
            layer,
            role,
            name,
            start_ns: self.now_ns(),
        })
    }

    /// Closes `open` (which must be the innermost span on this thread).
    pub fn end(&self, open: OpenSpan, bytes: u64, items: u64, ok: bool) {
        let end_ns = self.now_ns();
        OPEN.with(|stack| {
            let popped = stack.borrow_mut().pop();
            assert_eq!(popped.map(|(id, _)| id), Some(open.id), "spans must nest");
        });
        self.spans.lock().push(Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            layer: open.layer,
            role: open.role,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            bytes,
            items,
            ok,
        });
    }

    /// Times `f` as one span; `measure` reads `(bytes, items, ok)` off
    /// its result.
    pub fn time<T>(
        &self,
        layer: Layer,
        role: Option<Role>,
        name: &'static str,
        f: impl FnOnce() -> T,
        measure: impl FnOnce(&T) -> (u64, u64, bool),
    ) -> T {
        let Some(open) = self.begin(layer, role, name) else {
            return f();
        };
        let out = f();
        let (bytes, items, ok) = measure(&out);
        self.end(open, bytes, items, ok);
        out
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock())
    }
}

fn traced<T>(
    tracer: &Option<Arc<Tracer>>,
    layer: Layer,
    name: &'static str,
    f: impl FnOnce() -> T,
    measure: impl FnOnce(&T) -> (u64, u64, bool),
) -> T {
    match tracer {
        Some(t) => t.time(layer, None, name, f, measure),
        None => f(),
    }
}

fn ok_of<T>(r: &Result<T>) -> (u64, u64, bool) {
    (0, 1, r.is_ok())
}

/// The variant name of a request, for per-kind RPC statistics.
pub fn request_kind(request: &Request) -> &'static str {
    use Request::*;
    match request {
        Ping => "Ping",
        PutChunk { .. } => "PutChunk",
        PutChunkBatch { .. } => "PutChunkBatch",
        GetChunk { .. } => "GetChunk",
        GetChunkRange { .. } => "GetChunkRange",
        GetChunkRangeBatch { .. } => "GetChunkRangeBatch",
        MetaPutBatch { .. } => "MetaPutBatch",
        MetaGetBatch { .. } => "MetaGetBatch",
        VmTicket { .. } => "VmTicket",
        VmTicketAppend { .. } => "VmTicketAppend",
        VmPublish { .. } => "VmPublish",
        VmIsPublished { .. } => "VmIsPublished",
        VmLatest { .. } => "VmLatest",
        VmSnapshot { .. } => "VmSnapshot",
        _ => "Other",
    }
}

fn rpc_outcome(payload_in: usize, r: &Result<(Response, Bytes)>) -> (u64, u64, bool) {
    match r {
        Ok((response, body)) => (
            (payload_in + body.len()) as u64,
            1,
            !matches!(response, Response::Fail { .. }),
        ),
        Err(_) => (payload_in as u64, 1, false),
    }
}

/// `Transport` decorator: one span per client-side RPC.
#[derive(Debug)]
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
    role: Role,
    tracer: Arc<Tracer>,
}

impl TracedTransport {
    /// Wraps `inner`, whose calls go to `role`.
    pub fn new(inner: Arc<dyn Transport>, role: Role, tracer: Arc<Tracer>) -> Self {
        TracedTransport {
            inner,
            role,
            tracer,
        }
    }
}

impl Transport for TracedTransport {
    fn call(&self, request: &Request, payload: &[u8]) -> Result<(Response, Bytes)> {
        self.tracer.time(
            Layer::Transport,
            Some(self.role),
            request_kind(request),
            || self.inner.call(request, payload),
            |r| rpc_outcome(payload.len(), r),
        )
    }
}

/// `Service` decorator: one span per server-side handler call.
#[derive(Debug)]
pub struct TracedService {
    inner: Arc<dyn Service>,
    role: Role,
    tracer: Arc<Tracer>,
}

impl TracedService {
    /// Wraps `inner`, which serves `role`.
    pub fn new(inner: Arc<dyn Service>, role: Role, tracer: Arc<Tracer>) -> Self {
        TracedService {
            inner,
            role,
            tracer,
        }
    }
}

impl Service for TracedService {
    fn handle(&self, request: Request, payload: Bytes) -> (Response, Bytes) {
        let kind = request_kind(&request);
        let payload_in = payload.len();
        self.tracer.time(
            Layer::Service,
            Some(self.role),
            kind,
            || self.inner.handle(request, payload),
            |(response, body)| {
                (
                    (payload_in + body.len()) as u64,
                    1,
                    !matches!(response, Response::Fail { .. }),
                )
            },
        )
    }
}

/// `ChunkStore` decorator: spans on the data-moving calls.
#[derive(Debug)]
pub struct TracedChunkStore {
    inner: Arc<dyn ChunkStore>,
    tracer: Arc<Tracer>,
}

impl TracedChunkStore {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn ChunkStore>, tracer: Arc<Tracer>) -> Self {
        TracedChunkStore { inner, tracer }
    }

    fn time<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> T,
        m: impl FnOnce(&T) -> (u64, u64, bool),
    ) -> T {
        self.tracer.time(Layer::Chunk, None, name, f, m)
    }
}

fn put_outcome<T>(len: usize, r: &Result<T>) -> (u64, u64, bool) {
    (len as u64, 1, r.is_ok())
}

fn get_outcome(r: &Result<Bytes>) -> (u64, u64, bool) {
    match r {
        Ok(data) => (data.len() as u64, 1, true),
        Err(_) => (0, 1, false),
    }
}

impl ChunkStore for TracedChunkStore {
    fn id(&self) -> ProviderId {
        self.inner.id()
    }

    fn put_chunk(&self, p: &Participant, chunk: ChunkId, data: Bytes) -> Result<()> {
        let len = data.len();
        self.time(
            "put",
            || self.inner.put_chunk(p, chunk, data),
            |r| put_outcome(len, r),
        )
    }

    fn put_chunk_at(&self, arrival: SimTime, chunk: ChunkId, data: Bytes) -> Result<SimTime> {
        let len = data.len();
        self.time(
            "put",
            || self.inner.put_chunk_at(arrival, chunk, data),
            |r| put_outcome(len, r),
        )
    }

    fn get_chunk(&self, p: &Participant, chunk: ChunkId) -> Result<Bytes> {
        self.time("get", || self.inner.get_chunk(p, chunk), get_outcome)
    }

    fn get_chunk_range(&self, p: &Participant, chunk: ChunkId, range: ByteRange) -> Result<Bytes> {
        self.time(
            "get",
            || self.inner.get_chunk_range(p, chunk, range),
            get_outcome,
        )
    }

    fn get_chunk_range_at(
        &self,
        arrival: SimTime,
        chunk: ChunkId,
        range: ByteRange,
    ) -> Result<(Bytes, SimTime)> {
        self.time(
            "get",
            || self.inner.get_chunk_range_at(arrival, chunk, range),
            |r| match r {
                Ok((data, _)) => (data.len() as u64, 1, true),
                Err(_) => (0, 1, false),
            },
        )
    }

    fn has_chunk(&self, chunk: ChunkId) -> bool {
        self.inner.has_chunk(chunk)
    }

    fn chunk_count(&self) -> usize {
        self.inner.chunk_count()
    }

    fn bytes_stored(&self) -> u64 {
        self.inner.bytes_stored()
    }

    fn evict_chunk(&self, chunk: ChunkId) -> u64 {
        self.inner.evict_chunk(chunk)
    }

    fn evict_chunk_batch(&self, chunks: &[ChunkId]) -> u64 {
        self.inner.evict_chunk_batch(chunks)
    }

    fn checksum_of(&self, chunk: ChunkId) -> Option<u64> {
        self.inner.checksum_of(chunk)
    }

    fn corrupt_chunk(&self, chunk: ChunkId, byte: usize) {
        self.inner.corrupt_chunk(chunk, byte)
    }

    fn scrub(&self, p: &Participant) -> ScrubReport {
        self.inner.scrub(p)
    }

    fn chunk_len(&self, chunk: ChunkId) -> Option<u64> {
        self.inner.chunk_len(chunk)
    }

    fn max_chunk_id(&self) -> Option<ChunkId> {
        self.inner.max_chunk_id()
    }

    fn disk(&self) -> &Resource {
        self.inner.disk()
    }

    fn nic(&self) -> &Resource {
        self.inner.nic()
    }

    fn cost(&self) -> &CostModel {
        self.inner.cost()
    }
}

/// `NodeStore` decorator: spans on batch puts and gets.
#[derive(Debug)]
pub struct TracedNodeStore {
    inner: Arc<dyn NodeStore>,
    tracer: Arc<Tracer>,
}

impl TracedNodeStore {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn NodeStore>, tracer: Arc<Tracer>) -> Self {
        TracedNodeStore { inner, tracer }
    }
}

fn batch_outcome<T>(rs: &[Result<T>]) -> (u64, u64, bool) {
    (0, rs.len() as u64, rs.iter().all(|r| r.is_ok()))
}

impl NodeStore for TracedNodeStore {
    fn put_batch(&self, p: &Participant, nodes: Vec<Node>) -> Vec<Result<()>> {
        self.tracer.time(
            Layer::Node,
            None,
            "put_batch",
            || self.inner.put_batch(p, nodes),
            |rs| batch_outcome(rs),
        )
    }

    fn get_batch(&self, p: &Participant, keys: &[NodeKey]) -> Vec<Result<Arc<Node>>> {
        self.tracer.time(
            Layer::Node,
            None,
            "get_batch",
            || self.inner.get_batch(p, keys),
            |rs| batch_outcome(rs),
        )
    }

    fn put(&self, p: &Participant, node: Node) -> Result<()> {
        self.tracer.time(
            Layer::Node,
            None,
            "put_batch",
            || self.inner.put(p, node),
            ok_of,
        )
    }

    fn get(&self, p: &Participant, key: NodeKey) -> Result<Arc<Node>> {
        self.tracer.time(
            Layer::Node,
            None,
            "get_batch",
            || self.inner.get(p, key),
            ok_of,
        )
    }

    fn contains(&self, key: NodeKey) -> bool {
        self.inner.contains(key)
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn evict(&self, key: NodeKey) {
        self.inner.evict(key)
    }

    fn evict_batch(&self, keys: &[NodeKey]) -> u64 {
        self.inner.evict_batch(keys)
    }

    fn list_keys(&self) -> Vec<NodeKey> {
        self.inner.list_keys()
    }
}

/// What an in-flight op is doing, for the wedge report.
#[derive(Debug, Clone)]
struct Pending {
    what: &'static str,
    rank: usize,
    blob: u64,
    started: Instant,
    granted: Option<u64>,
}

/// Every op in flight, keyed by the thread running it; a watchdog reads
/// it to fail a run whose op outlives the deadline.
#[derive(Debug, Default)]
pub struct Watch {
    pending: Mutex<HashMap<ThreadId, Pending>>,
}

impl Watch {
    /// Registers the calling thread's op.
    pub fn begin(&self, what: &'static str, rank: usize, blob: u64) {
        let pending = Pending {
            what,
            rank,
            blob,
            started: Instant::now(),
            granted: None,
        };
        self.pending
            .lock()
            .insert(std::thread::current().id(), pending);
    }

    /// Records the version the calling thread's op was granted.
    pub fn granted(&self, version: VersionId) {
        if let Some(p) = self.pending.lock().get_mut(&std::thread::current().id()) {
            p.granted = Some(version.raw());
        }
    }

    /// Retires the calling thread's op.
    pub fn end(&self) {
        self.pending.lock().remove(&std::thread::current().id());
    }

    /// Describes the first op in flight for longer than `deadline`.
    pub fn overdue(&self, deadline: Duration) -> Option<String> {
        let pending = self.pending.lock();
        let p = pending.values().find(|p| p.started.elapsed() > deadline)?;
        let version = match p.granted {
            Some(v) => format!("granted version {v}, still not published"),
            None => "no version granted yet".to_string(),
        };
        Some(format!(
            "rank {} {} on blob {} has run {:.1}s (deadline {:.0}s): {version}",
            p.rank,
            p.what,
            p.blob,
            p.started.elapsed().as_secs_f64(),
            deadline.as_secs_f64()
        ))
    }
}

/// `VersionOracle` decorator: spans on the version calls (when tracing)
/// and the granted version of each op (always, for the watchdog).
#[derive(Debug)]
pub struct TracedOracle {
    inner: Arc<dyn VersionOracle>,
    tracer: Option<Arc<Tracer>>,
    watch: Arc<Watch>,
}

impl TracedOracle {
    /// Wraps `inner`.
    pub fn new(
        inner: Arc<dyn VersionOracle>,
        tracer: Option<Arc<Tracer>>,
        watch: Arc<Watch>,
    ) -> Self {
        TracedOracle {
            inner,
            tracer,
            watch,
        }
    }

    fn time<T>(&self, name: &'static str, f: impl FnOnce() -> Result<T>) -> Result<T> {
        traced(&self.tracer, Layer::Oracle, name, f, ok_of)
    }
}

impl VersionOracle for TracedOracle {
    fn history(&self) -> &Arc<VersionHistory> {
        self.inner.history()
    }

    fn ticket(&self, p: &Participant, extents: &ExtentList) -> Result<Ticket> {
        let ticket = self.time("ticket", || self.inner.ticket(p, extents))?;
        self.watch.granted(ticket.version);
        Ok(ticket)
    }

    fn ticket_append(&self, p: &Participant, len: u64) -> Result<(Ticket, ExtentList)> {
        let (ticket, extents) = self.time("ticket", || self.inner.ticket_append(p, len))?;
        self.watch.granted(ticket.version);
        Ok((ticket, extents))
    }

    fn publish(&self, p: &Participant, ticket: Ticket, root: NodeKey) -> Result<()> {
        self.time("publish", || self.inner.publish(p, ticket, root))
    }

    fn is_published(&self, version: VersionId) -> Result<bool> {
        self.time("is_published", || self.inner.is_published(version))
    }

    fn wait_published(&self, p: &Participant, version: VersionId) -> Result<()> {
        self.time("wait_published", || self.inner.wait_published(p, version))
    }

    fn latest(&self, p: &Participant) -> Result<SnapshotRecord> {
        self.time("latest", || self.inner.latest(p))
    }

    fn snapshot(&self, p: &Participant, version: VersionId) -> Result<SnapshotRecord> {
        self.time("snapshot", || self.inner.snapshot(p, version))
    }

    fn set_retention(&self, p: &Participant, policy: RetentionPolicy) -> Result<()> {
        self.inner.set_retention(p, policy)
    }

    fn lease_acquire(
        &self,
        p: &Participant,
        version: VersionId,
        ttl_ms: u64,
    ) -> Result<LeaseGrant> {
        self.inner.lease_acquire(p, version, ttl_ms)
    }

    fn lease_renew(&self, p: &Participant, lease: u64, ttl_ms: u64) -> Result<LeaseGrant> {
        self.inner.lease_renew(p, lease, ttl_ms)
    }

    fn lease_release(&self, p: &Participant, lease: u64) -> Result<()> {
        self.inner.lease_release(p, lease)
    }

    fn gc_floor(&self, p: &Participant) -> Result<GcFloor> {
        self.inner.gc_floor(p)
    }
}
