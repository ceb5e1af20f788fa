//! The program under test: 4 loopback `PipeStoreServer`s with placement
//! R=2 and a `Cluster` Tuner holding one connection per peer.

use crate::config::{REPLICAS, SERVER_WORKERS, STORES};
use crate::gen::Inputs;
use ndpipe::rpc::wire::ShardDesc;
use ndpipe::rpc::{Cluster, FailurePolicy, PipeStoreServer, ServerConfig};
use ndpipe::{PipeStore, PlacementMap};
use std::net::SocketAddr;
use tensor::MathPolicy;

/// A booted fleet.
pub struct Fleet {
    servers: Vec<PipeStoreServer>,
    /// The Tuner's handle; strict, so any peer failure fails the call.
    pub cluster: Cluster,
    /// The published placement map.
    pub map: PlacementMap,
}

impl Fleet {
    /// Boots the stores, connects the Tuner, publishes the placement map,
    /// installs the deployed model and pre-ingests the corpus: the span
    /// `setup_s` times.
    pub fn boot(inputs: &Inputs) -> Result<Fleet, String> {
        let nodes: Vec<u64> = (0..STORES as u64).collect();
        let map = PlacementMap::new(&nodes, REPLICAS).map_err(|e| format!("placement: {e:?}"))?;
        let shards = &inputs.drift.shards;
        let cfg = ServerConfig {
            workers: SERVER_WORKERS,
            ..ServerConfig::default()
        };
        let mut servers = Vec::with_capacity(STORES);
        for (i, shard) in shards.iter().enumerate() {
            let mut store = PipeStore::new(i, shard.clone());
            store.set_math_policy(MathPolicy::Deterministic);
            for node in nodes.iter().copied().filter(|&n| n != i as u64) {
                if map.shard_holders(node).contains(&(i as u64)) {
                    store.add_replica_shard(node, shards[node as usize].clone());
                }
            }
            let server = PipeStoreServer::bind(store, "127.0.0.1:0", cfg)
                .map_err(|e| format!("bind store {i}: {e}"))?;
            servers.push(server);
        }
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let cluster = Cluster::builder()
            .policy(FailurePolicy::Strict)
            .connect(&addrs)
            .map_err(|e| format!("connect: {e}"))?;
        let fleet = Fleet {
            servers,
            cluster,
            map,
        };
        let fan = fleet.cluster.publish_placement(&fleet.map);
        if !fan.failures.is_empty() {
            return Err(format!("publish placement: {:?}", fan.failures));
        }
        let fan = fleet.cluster.install_model(&inputs.drift.deployed);
        if !fan.failures.is_empty() {
            return Err(format!("install model: {:?}", fan.failures));
        }
        for rec in &inputs.corpus {
            let fan = fleet.cluster.put_photo(&fleet.map, rec);
            if !fan.failures.is_empty() || fan.ok.len() != REPLICAS {
                return Err(format!("corpus put {}: {:?}", rec.id, fan.failures));
            }
        }
        Ok(fleet)
    }

    /// Address of store `i`.
    pub fn addr(&self, i: usize) -> SocketAddr {
        self.servers[i].local_addr()
    }

    /// Every store's shard description (math policy and kernel).
    pub fn describe(&self) -> Result<Vec<ShardDesc>, String> {
        let fan = self.cluster.describe();
        if !fan.failures.is_empty() {
            return Err(format!("describe: {:?}", fan.failures));
        }
        Ok(fan.into_values())
    }

    /// Closes the Tuner's sessions and drains every store; returns the
    /// photo count each store held.
    pub fn shutdown(self) -> Result<Vec<usize>, String> {
        let fan = self.cluster.shutdown();
        let mut errs: Vec<String> = fan.failures.iter().map(|f| f.to_string()).collect();
        let mut counts = Vec::with_capacity(self.servers.len());
        for s in self.servers {
            match s.shutdown() {
                Ok(store) => counts.push(store.photo_count()),
                Err(e) => errs.push(e.to_string()),
            }
        }
        if errs.is_empty() {
            Ok(counts)
        } else {
            Err(errs.join("; "))
        }
    }
}
