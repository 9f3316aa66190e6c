//! An in-process cluster: N shard primaries, M followers each, and a
//! coordinator, all inside one process on ephemeral ports.
//!
//! This is the harness behind the differential proptest, the staleness
//! e2e tests, and the CLI's quickstart path — everything a multi-node
//! deployment has (real sockets, real WAL shipping, real scatter-gather)
//! without process management. The multi-process variant lives in
//! `tix-bench --bin cluster`, which spawns real `tix` processes and
//! kills them with SIGKILL.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tix_server::{Server, ServerConfig};

use crate::client;
use crate::coordinator::{Coordinator, CoordinatorConfig};
use crate::topology::{ShardTopology, Topology};

/// One shard's in-process serving group.
pub struct LocalShard {
    /// The shard primary (accepts writes, serves `/wal`).
    pub primary: Server,
    /// Followers replicating from the primary.
    pub replicas: Vec<Server>,
}

/// A whole cluster in one process.
pub struct LocalCluster {
    topology: Topology,
    shards: Vec<LocalShard>,
    coordinator: Coordinator,
}

impl LocalCluster {
    /// Boot `shards` primaries with `replicas_per_shard` followers each
    /// under `dir` (`dir/shard-N/primary`, `dir/shard-N/replica-M`),
    /// persist the topology as `cluster.json`, and start a coordinator.
    pub fn start(
        dir: impl AsRef<Path>,
        shards: usize,
        replicas_per_shard: usize,
    ) -> io::Result<LocalCluster> {
        // Small worker pools, so a 4-shard × 2-replica cluster does not
        // spawn dozens of threads.
        let node_config = ServerConfig {
            workers: 2,
            queue_capacity: 32,
            ..ServerConfig::default()
        };
        let dir = dir.as_ref();
        let shards = shards.max(1);
        let mut groups = Vec::with_capacity(shards);
        let mut map = Vec::with_capacity(shards);
        for s in 0..shards {
            let shard_dir = dir.join(format!("shard-{s}"));
            let primary = Server::start_primary(shard_dir.join("primary"), node_config.clone())?;
            let primary_addr = primary.addr().to_string();
            let mut replicas = Vec::with_capacity(replicas_per_shard);
            for r in 0..replicas_per_shard {
                replicas.push(Server::start_follower(
                    shard_dir.join(format!("replica-{r}")),
                    Some(primary_addr.clone()),
                    node_config.clone(),
                )?);
            }
            map.push(ShardTopology {
                primary: primary_addr,
                replicas: replicas.iter().map(|r| r.addr().to_string()).collect(),
            });
            groups.push(LocalShard { primary, replicas });
        }
        let topology = Topology { shards: map };
        topology.save(dir).map_err(io::Error::other)?;
        let coordinator = Coordinator::start(topology.clone(), CoordinatorConfig::default())?;
        Ok(LocalCluster {
            topology,
            shards: groups,
            coordinator,
        })
    }

    /// The coordinator's bound address.
    pub fn coordinator_addr(&self) -> String {
        self.coordinator.addr().to_string()
    }

    /// The coordinator handle.
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// The cluster map.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The in-process serving groups, shard order.
    pub fn shards(&self) -> &[LocalShard] {
        &self.shards
    }

    /// Issue a request against the coordinator. Status + body text.
    pub fn request(
        &self,
        method: &str,
        path_and_query: &str,
        body: &[u8],
    ) -> io::Result<(u16, String)> {
        let response = client::request(
            &self.coordinator_addr(),
            method,
            path_and_query,
            body,
            Duration::from_secs(30),
        )?;
        Ok((response.status, response.text()))
    }

    /// `GET` against the coordinator.
    pub fn get(&self, path_and_query: &str) -> io::Result<(u16, String)> {
        self.request("GET", path_and_query, &[])
    }

    /// Ingest a document through the coordinator.
    pub fn insert(&self, name: &str, xml: &str) -> io::Result<(u16, String)> {
        let path = format!("/documents?name={}", client::encode_component(name));
        self.request("POST", &path, xml.as_bytes())
    }

    /// Remove a document through the coordinator.
    pub fn remove(&self, name: &str) -> io::Result<(u16, String)> {
        let path = format!("/documents/{}", client::encode_component(name));
        self.request("DELETE", &path, &[])
    }

    /// Block until every follower has applied its primary's last LSN
    /// (or `timeout` elapses). Returns whether the cluster converged.
    /// Replication is pull-based and asynchronous; tests that assert on
    /// replica state call this between the write and the read.
    pub fn wait_replicated(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let caught_up = self.shards.iter().all(|shard| {
                let target = shard.primary.applied_lsn();
                shard.replicas.iter().all(|r| r.applied_lsn() >= target)
            });
            if caught_up {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Shut everything down: coordinator first (no new fan-out), then
    /// followers (stop pulling), then primaries.
    pub fn shutdown(self) {
        let LocalCluster {
            shards,
            coordinator,
            ..
        } = self;
        coordinator.shutdown();
        for shard in shards {
            for replica in shard.replicas {
                replica.shutdown();
            }
            shard.primary.shutdown();
        }
    }
}

/// A fresh scratch directory under the system temp dir, unique per
/// (process, call). Callers own cleanup.
pub fn scratch_dir(label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tix-cluster-{label}-{}-{n}", std::process::id()))
}
