//! The three services behind in-process `Loopback` transports, checked
//! at the wire:
//!
//! * the pipelined chunk engine sends one batch frame per provider for a
//!   whole non-contiguous `write_list`/`read_list`, stores the same
//!   bytes as the serial arm, keeps replica placement and failover when a
//!   provider is unreachable, and sends bulk chunks as plain `PutChunk`
//!   frames;
//! * two ranks on separate clocks can write through one remote version
//!   manager, whose history mirror both of them feed.

use atomio::core::{ReadVersion, Store, StoreConfig, TransferMode};
use atomio::provider::{chunk_store_for, ChunkStore, ProviderManager};
use atomio::rpc::{
    Loopback, MetaService, ProviderService, RemoteMetaStore, RemoteProvider, RemoteVersionManager,
    Request, Response, Service, Transport, VersionService,
};
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::{CostModel, FaultInjector, Metrics, SimClock};
use atomio::types::{
    BackendConfig, ByteRange, Error, ExtentList, ProviderId, Result, TransportErrorKind,
};
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;

const CHUNK: u64 = 64 * 1024;
const SEED: u64 = 0xBA7C;

/// 128 strided 2 KiB rows, like one rank's tile in `mpi-tile-io`; no
/// row crosses a chunk boundary, so each row is one chunk piece.
fn tile_rows() -> ExtentList {
    ExtentList::from_pairs((0..128u64).map(|row| (row * 4 * 1024, 2 * 1024)))
}

/// A payload whose every byte says where it belongs and who wrote it.
fn payload(extents: &ExtentList, fill: u8) -> Bytes {
    let mut out = Vec::with_capacity(extents.total_len() as usize);
    for range in extents.ranges() {
        out.extend((range.offset..range.end()).map(|b| (b % 251) as u8 ^ fill));
    }
    Bytes::from(out)
}

/// A provider transport that can be switched off: while down, every
/// call fails with a typed refused-connection error, as a dead server's
/// port does.
#[derive(Debug)]
struct Switched {
    inner: Loopback,
    down: AtomicBool,
}

impl Transport for Switched {
    fn call(&self, request: &Request, payload: &[u8]) -> Result<(Response, Bytes)> {
        if self.down.load(Ordering::SeqCst) {
            return Err(Error::Transport {
                kind: TransportErrorKind::ConnectionRefused,
                detail: "provider switched off".to_string(),
            });
        }
        self.inner.call(request, payload)
    }
}

/// A provider service that logs the kind of every chunk request.
#[derive(Debug)]
struct Logged {
    inner: ProviderService,
    kinds: Mutex<Vec<&'static str>>,
}

impl Service for Logged {
    fn handle(&self, request: Request, payload: Bytes) -> (Response, Bytes) {
        let kind = match &request {
            Request::PutChunk { .. } => "PutChunk",
            Request::PutChunkBatch { .. } => "PutChunkBatch",
            Request::GetChunkRange { .. } => "GetChunkRange",
            Request::GetChunkRangeBatch { .. } => "GetChunkRangeBatch",
            _ => "other",
        };
        self.kinds.lock().push(kind);
        self.inner.handle(request, payload)
    }
}

/// A Loopback deployment: one provider service per data provider, one
/// meta service, one version service. Provider frames are counted in
/// `provider_metrics`; the hosted stores and the switchable transports
/// stay reachable for fault injection and inspection.
struct Deployment {
    store: Store,
    provider_metrics: Metrics,
    hosted: Vec<Arc<dyn ChunkStore>>,
    switches: Vec<Arc<Switched>>,
    logs: Vec<Arc<Logged>>,
}

fn deploy(config: StoreConfig) -> Deployment {
    let provider_metrics = Metrics::new();
    let (mut hosted, mut switches, mut logs) = (Vec::new(), Vec::new(), Vec::new());
    let mut stores: Vec<Arc<dyn ChunkStore>> = Vec::new();
    for i in 0..config.data_providers {
        let id = ProviderId::new(i as u64);
        let store = chunk_store_for(
            &BackendConfig::Memory,
            id,
            CostModel::zero(),
            &Arc::new(FaultInjector::new(0)),
        )
        .expect("open hosted chunk store");
        let log = Arc::new(Logged {
            inner: ProviderService::from_stores(vec![Arc::clone(&store)]),
            kinds: Mutex::new(Vec::new()),
        });
        let switch = Arc::new(Switched {
            inner: Loopback::new(Arc::clone(&log) as Arc<dyn Service>)
                .with_metrics(provider_metrics.clone()),
            down: AtomicBool::new(false),
        });
        stores.push(Arc::new(RemoteProvider::new(
            id,
            Arc::clone(&switch) as Arc<dyn Transport>,
        )));
        hosted.push(store);
        switches.push(switch);
        logs.push(log);
    }
    let meta: Arc<dyn Transport> = Arc::new(Loopback::new(Arc::new(MetaService::new(
        config.meta_shards,
        config.chunk_size,
    ))));
    let version: Arc<dyn Transport> = Arc::new(Loopback::new(Arc::new(VersionService::new(
        config.chunk_size,
    ))));
    let manager = Arc::new(ProviderManager::from_stores(
        stores,
        config.allocation,
        Arc::new(FaultInjector::new(config.seed)),
        config.seed,
    ));
    let store = Store::with_substrates(config, manager, Arc::new(RemoteMetaStore::new(meta)))
        .with_version_oracles(move |blob| {
            Arc::new(RemoteVersionManager::new(blob.raw(), Arc::clone(&version)))
        });
    Deployment {
        store,
        provider_metrics,
        hosted,
        switches,
        logs,
    }
}

fn config(providers: usize, replicas: usize) -> StoreConfig {
    StoreConfig::default()
        .with_zero_cost()
        .with_chunk_size(CHUNK)
        .with_data_providers(providers)
        .with_meta_shards(2)
        .with_replication(replicas, 1)
        .with_seed(SEED)
}

/// Writes the tile rows once and reads them back, returning the bytes
/// read and the provider frames the write and the read each cost.
fn tile_round_trip(d: &Deployment) -> (Vec<u8>, u64, u64) {
    let blob = d.store.create_blob();
    let rows = tile_rows();
    let frames = || d.provider_metrics.counter("rpc.messages").get();
    let (blob, rows) = (&blob, &rows);
    run_actors_on(&SimClock::new(), 1, move |_, p| {
        let before = frames();
        blob.write_list(p, rows, payload(rows, 0x5A)).unwrap();
        let written = frames();
        let back = blob.read_list(p, ReadVersion::Latest, rows).unwrap();
        (back, written - before, frames() - written)
    })
    .pop()
    .unwrap()
}

#[test]
fn a_tile_write_and_read_cost_one_frame_per_provider() {
    const PROVIDERS: usize = 4;
    let batched = deploy(config(PROVIDERS, 1));
    let serial = deploy(config(PROVIDERS, 1).with_transfer_mode(TransferMode::Serial));

    let (bytes, write_frames, read_frames) = tile_round_trip(&batched);
    let (serial_bytes, serial_write_frames, serial_read_frames) = tile_round_trip(&serial);

    let rows = tile_rows();
    assert_eq!(bytes, payload(&rows, 0x5A).to_vec());
    assert_eq!(bytes, serial_bytes, "batching changes no stored byte");
    assert!(
        write_frames <= PROVIDERS as u64,
        "write_list cost {write_frames} provider frames"
    );
    assert!(
        read_frames <= PROVIDERS as u64,
        "read_list cost {read_frames} provider frames"
    );
    // The serial arm still pays one frame per piece.
    assert_eq!(serial_write_frames, rows.range_count() as u64);
    assert_eq!(serial_read_frames, rows.range_count() as u64);
    for i in 0..PROVIDERS {
        assert_eq!(
            batched.hosted[i].chunk_count(),
            serial.hosted[i].chunk_count(),
            "same placement on provider {i}"
        );
    }
}

#[test]
fn an_unreachable_replica_home_costs_placement_nothing_and_reads_fail_over() {
    let d = deploy(config(2, 2));
    let blob = d.store.create_blob();
    let rows = tile_rows();
    let clock = SimClock::new();
    let (blob, rows) = (&blob, &rows);

    // Provider 1 unreachable: every chunk lands on provider 0 alone.
    d.switches[1].down.store(true, Ordering::SeqCst);
    run_actors_on(&clock, 1, move |_, p| {
        blob.write_list(p, rows, payload(rows, 1)).unwrap();
        let back = blob.read_list(p, ReadVersion::Latest, rows).unwrap();
        assert_eq!(back, payload(rows, 1).to_vec());
    });
    assert_eq!(d.hosted[0].chunk_count(), rows.range_count());
    assert_eq!(d.hosted[1].chunk_count(), 0);

    // Both up for the next version (it covers every row, so no read
    // reaches the first version's single copies), then provider 0 goes
    // down: every read fails over to provider 1.
    d.switches[1].down.store(false, Ordering::SeqCst);
    run_actors_on(&clock, 1, move |_, p| {
        blob.write_list(p, rows, payload(rows, 2)).unwrap();
    });
    assert_eq!(d.hosted[1].chunk_count(), rows.range_count());
    d.switches[0].down.store(true, Ordering::SeqCst);
    run_actors_on(&clock, 1, move |_, p| {
        let back = blob.read_list(p, ReadVersion::Latest, rows).unwrap();
        assert_eq!(back, payload(rows, 2).to_vec());
    });
}

#[test]
fn bulk_chunks_travel_as_plain_put_chunk_frames() {
    // 256 KiB chunks: every piece of a 1 MiB write reaches the frame cap
    // on its own, so none is batched.
    const BULK: u64 = 256 * 1024;
    let d = deploy(config(2, 1).with_chunk_size(BULK));
    let blob = d.store.create_blob();
    let whole = ExtentList::single(ByteRange::new(0, 4 * BULK));
    let (blob_ref, whole_ref) = (&blob, &whole);
    run_actors_on(&SimClock::new(), 1, move |_, p| {
        blob_ref
            .write_list(p, whole_ref, payload(whole_ref, 3))
            .unwrap();
        let back = blob_ref
            .read_list(p, ReadVersion::Latest, whole_ref)
            .unwrap();
        assert_eq!(back, payload(whole_ref, 3).to_vec());
    });
    for log in &d.logs {
        let kinds = log.kinds.lock();
        assert_eq!(
            kinds.iter().filter(|&&k| k == "PutChunk").count(),
            2,
            "{kinds:?}"
        );
        assert!(
            !kinds.contains(&"PutChunkBatch") && !kinds.contains(&"GetChunkRangeBatch"),
            "{kinds:?}"
        );
    }
}

#[test]
fn two_ranks_on_separate_clocks_share_one_remote_version_manager() {
    // Each rank runs on its own clock and thread, so the two ranks'
    // ticket grants feed the one shared history mirror concurrently.
    // Many small writes, repeated: a racing mirror update used to kill
    // a rank in about one run in nine. A dead rank leaves the other
    // polling for its never-published version, so the ranks run under a
    // watchdog.
    const REPEATS: usize = 150;
    const ROUNDS: u8 = 100;
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        for _ in 0..REPEATS {
            let d = deploy(config(2, 1));
            let blob = d.store.create_blob();
            let rows = ExtentList::from_pairs([(0, 64), (CHUNK, 64)]);
            std::thread::scope(|s| {
                for rank in 0..2u8 {
                    let (blob, rows) = (&blob, &rows);
                    s.spawn(move || {
                        run_actors_on(&SimClock::new(), 1, move |_, p| {
                            for round in 0..ROUNDS {
                                let fill = 1 + rank * ROUNDS + round;
                                blob.write_list(p, rows, payload(rows, fill)).unwrap();
                            }
                        });
                    });
                }
            });
            run_actors_on(&SimClock::new(), 1, |_, p| {
                assert_eq!(blob.latest(p).unwrap().version.raw(), 2 * ROUNDS as u64);
                let back = blob.read_list(p, ReadVersion::Latest, &rows).unwrap();
                // Every write covers every row, so the last one wins whole.
                let winner = (1..=2 * ROUNDS).find(|&fill| back == payload(&rows, fill).to_vec());
                assert!(winner.is_some(), "the final snapshot mixes writes");
            });
        }
        done.send(()).unwrap();
    });
    match finished.recv_timeout(std::time::Duration::from_secs(120)) {
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        // The stalled rank cannot be joined; it ends with the process.
        Err(RecvTimeoutError::Timeout) => panic!("the ranks stalled: one of them died mid-write"),
    }
}
