//! Boots the three-service localhost deployment in process: provider
//! servers, one meta server and the version service (one server or a
//! slot-routed shard fleet), each on an ephemeral port behind the default
//! server front-end, reached over mux transports — with the seam
//! decorators spliced in when tracing.

use crate::seams::{
    Role, TracedChunkStore, TracedNodeStore, TracedOracle, TracedService, TracedTransport, Tracer,
    Watch,
};
use atomio_core::{Store, StoreConfig, TransportMode};
use atomio_meta::NodeStore;
use atomio_provider::{chunk_store_for, ChunkStore, ProviderManager};
use atomio_rpc::{
    MetaService, MuxTransport, ProviderService, RemoteMetaStore, RemoteProvider,
    RemoteVersionManager, Request, Response, RpcConfig, RpcServer, Service, SlotRoutedTransport,
    Transport, VersionService,
};
use atomio_simgrid::{CostModel, FaultInjector, Metrics};
use atomio_types::{BackendConfig, ProviderId};
use std::path::PathBuf;
use std::sync::Arc;

/// Provider servers in every deployment.
pub const PROVIDERS: usize = 4;
/// Metadata shards inside the one meta server.
pub const META_SHARDS: usize = 2;

/// What to boot.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Storage backend of every hosted service.
    pub backend: BackendConfig,
    /// Chunk size (= metadata leaf size).
    pub chunk: u64,
    /// Version servers: 1 for a single service, more for a slot-routed
    /// `--shard i/N` fleet.
    pub version_shards: usize,
    /// Store seed.
    pub seed: u64,
}

/// A running deployment and the store assembled over it.
pub struct Deployment {
    /// The client-side store (remote substrates behind the seams).
    pub store: Store,
    /// The client transport to the version service (slot-routed when
    /// sharded), for callers that drive the oracle without a store.
    pub version: Arc<dyn Transport>,
    /// The registry every client transport publishes its RPC counters to.
    pub rpc_metrics: Metrics,
    servers: Vec<RpcServer>,
}

/// RPC tuning: one mux connection per server per client, and at most
/// `nproc` dispatch workers per server.
fn rpc_config() -> RpcConfig {
    RpcConfig {
        pool_conns: 1,
        server_workers: crate::nproc(),
        ..RpcConfig::default()
    }
}

struct Booter<'a> {
    cfg: RpcConfig,
    tracer: &'a Option<Arc<Tracer>>,
    metrics: Metrics,
    servers: Vec<RpcServer>,
}

impl Booter<'_> {
    /// Starts `service` and dials it, pinging once so the connection is
    /// up before any timed op.
    fn serve(&mut self, service: Arc<dyn Service>, role: Role) -> Arc<dyn Transport> {
        let service = match self.tracer {
            Some(t) => Arc::new(TracedService::new(service, role, Arc::clone(t))),
            None => service,
        };
        let server = RpcServer::start_with_config("127.0.0.1:0", service, self.cfg)
            .expect("bind a localhost server");
        let transport: Arc<dyn Transport> = Arc::new(
            MuxTransport::with_config(server.local_addr(), self.cfg)
                .with_metrics(self.metrics.clone()),
        );
        match transport.call(&Request::Ping, &[]) {
            Ok((Response::Pong, _)) => {}
            other => panic!("{} server did not answer a ping: {other:?}", role.name()),
        }
        self.servers.push(server);
        transport
    }

    fn client_side(&self, transport: Arc<dyn Transport>, role: Role) -> Arc<dyn Transport> {
        match self.tracer {
            Some(t) => Arc::new(TracedTransport::new(transport, role, Arc::clone(t))),
            None => transport,
        }
    }
}

/// Boots `spec`, splicing the seam decorators in when `tracer` is set.
pub fn boot(spec: &Spec, tracer: &Option<Arc<Tracer>>, watch: &Arc<Watch>) -> Deployment {
    let mut b = Booter {
        cfg: rpc_config(),
        tracer,
        metrics: Metrics::new(),
        servers: Vec::new(),
    };
    let faults = Arc::new(FaultInjector::new(0));

    let mut stores: Vec<Arc<dyn ChunkStore>> = Vec::with_capacity(PROVIDERS);
    for i in 0..PROVIDERS {
        let id = ProviderId::new(i as u64);
        let hosted = chunk_store_for(&spec.backend, id, CostModel::zero(), &faults)
            .expect("open a hosted chunk store");
        let transport = b.serve(
            Arc::new(ProviderService::from_stores(vec![hosted])),
            Role::Provider,
        );
        let remote: Arc<dyn ChunkStore> = Arc::new(RemoteProvider::new(
            id,
            b.client_side(transport, Role::Provider),
        ));
        stores.push(match tracer {
            Some(t) => Arc::new(TracedChunkStore::new(remote, Arc::clone(t))),
            None => remote,
        });
    }

    let meta_service = MetaService::with_backend(META_SHARDS, spec.chunk, &spec.backend)
        .expect("open the meta service");
    let meta_transport = b.serve(Arc::new(meta_service), Role::Meta);
    let meta: Arc<dyn NodeStore> = Arc::new(RemoteMetaStore::new(
        b.client_side(meta_transport, Role::Meta),
    ));
    let meta: Arc<dyn NodeStore> = match tracer {
        Some(t) => Arc::new(TracedNodeStore::new(meta, Arc::clone(t))),
        None => meta,
    };

    let n = spec.version_shards;
    let shards: Vec<Arc<dyn Transport>> = (0..n)
        .map(|i| {
            let mut service = VersionService::with_backend(spec.chunk, spec.backend.clone());
            if n > 1 {
                service = service.with_shard(i, n);
            }
            b.serve(Arc::new(service), Role::Version)
        })
        .collect();
    let routed: Arc<dyn Transport> = if n == 1 {
        Arc::clone(&shards[0])
    } else {
        Arc::new(SlotRoutedTransport::new(shards))
    };
    let version = b.client_side(routed, Role::Version);

    let config = StoreConfig::default()
        .with_zero_cost()
        .with_chunk_size(spec.chunk)
        .with_data_providers(PROVIDERS)
        .with_meta_shards(META_SHARDS)
        .with_seed(spec.seed)
        .with_transport_mode(TransportMode::Tcp)
        .with_backend(spec.backend.clone());
    let manager = Arc::new(ProviderManager::from_stores(
        stores,
        config.allocation,
        Arc::clone(&faults),
        config.seed,
    ));
    let oracle_transport = Arc::clone(&version);
    let oracle_tracer = tracer.clone();
    let oracle_watch = Arc::clone(watch);
    let store = Store::with_substrates(config, manager, meta).with_version_oracles(move |blob| {
        Arc::new(TracedOracle::new(
            Arc::new(RemoteVersionManager::new(
                blob.raw(),
                Arc::clone(&oracle_transport),
            )),
            oracle_tracer.clone(),
            Arc::clone(&oracle_watch),
        ))
    });

    Deployment {
        store,
        version,
        rpc_metrics: b.metrics,
        servers: b.servers,
    }
}

impl Deployment {
    /// Closes the client side first, then stops every server and joins
    /// its front-end.
    pub fn shutdown(self) {
        let Deployment {
            store,
            version,
            servers,
            ..
        } = self;
        drop(store);
        drop(version);
        for mut server in servers {
            server.stop();
        }
    }
}

/// A scratch directory inside the working directory, removed on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `.perfbench_data/<name>` under the working directory,
    /// clearing any leftover from an interrupted run.
    pub fn new(name: &str) -> Self {
        let path = std::env::current_dir()
            .expect("read the working directory")
            .join(".perfbench_data")
            .join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the backend directory");
        ScratchDir { path }
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Bytes held by every file below the directory.
    pub fn bytes_used(&self) -> u64 {
        fn walk(dir: &std::path::Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Succeeds only once the last sibling is gone.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
