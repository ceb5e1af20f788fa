//! Tuner-side telemetry scraping over real sockets: PipeStore servers on
//! localhost, a client pulling `Metrics` snapshots and merging them into
//! one cluster-wide view.

use dnn::Mlp;
use ndpipe::rpc::{Cluster, PipeStoreServer, RemotePipeStore, ServerConfig};
use ndpipe::PipeStore;
use ndpipe_data::{ClassUniverse, LabeledDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset(rng: &mut StdRng, classes: usize, per_class: usize) -> LabeledDataset {
    let u = ClassUniverse::new(16, 8, classes, 0.3, rng);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for c in 0..classes {
        for _ in 0..per_class {
            rows.push(u.sample(c, rng));
            labels.push(c);
        }
    }
    LabeledDataset::new(rows, labels, classes)
}

/// Spawns `n` PipeStore servers on ephemeral localhost ports and returns
/// connected clients plus the server handles.
fn spawn_fleet(train: &LabeledDataset, n: usize) -> (Vec<RemotePipeStore>, Vec<PipeStoreServer>) {
    let mut clients = Vec::with_capacity(n);
    let mut servers = Vec::with_capacity(n);
    for (i, shard) in train.shards(n).into_iter().enumerate() {
        let server = PipeStoreServer::bind(
            PipeStore::new(i, shard),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("bind server");
        clients.push(RemotePipeStore::connect(server.local_addr().to_string()).expect("connect"));
        servers.push(server);
    }
    (clients, servers)
}

#[test]
fn single_store_scrape_round_trips_server_side_metrics() {
    let mut rng = StdRng::seed_from_u64(301);
    let train = dataset(&mut rng, 4, 8);
    let (mut clients, servers) = spawn_fleet(&train, 1);

    // Generate some server-side activity, then scrape it back.
    clients[0].describe().expect("describe");
    clients[0].describe().expect("describe");
    let snapshot = clients[0].scrape().expect("scrape");

    assert!(!snapshot.is_empty(), "server registry came back empty");
    let describes = snapshot
        .find_with(
            "ndpipe_rpc_server_requests_total",
            &[("op", "describe_node")],
        )
        .expect("describe counter present");
    match describes.value {
        telemetry::SampleValue::Counter(n) => assert_eq!(n, 2),
        ref other => panic!("expected counter, got {}", other.kind()),
    }
    // Latency histograms came across the wire with their observations.
    let lat = snapshot
        .find_with("ndpipe_rpc_server_op_seconds", &[("op", "describe_node")])
        .expect("latency histogram present");
    match lat.value {
        telemetry::SampleValue::Histogram(ref h) => assert_eq!(h.count, 2),
        ref other => panic!("expected histogram, got {}", other.kind()),
    }

    for c in clients {
        c.shutdown().expect("shutdown");
    }
    for s in servers {
        s.shutdown().expect("server drain");
    }
}

#[test]
fn cluster_scrape_merges_metrics_from_two_live_servers() {
    let mut rng = StdRng::seed_from_u64(302);
    let train = dataset(&mut rng, 4, 16);
    let model = Mlp::new(&[16, 24, 4], 1, &mut rng);
    let (mut clients, servers) = spawn_fleet(&train, 2);

    // Drive real work on both stores so their registries diverge from
    // empty: a model install plus one feature-extraction round each.
    for c in &mut clients {
        c.install_model(&model).expect("install model");
        let (features, labels) = c.extract_features(0, 1).expect("extract");
        assert_eq!(features.dims()[0], labels.len());
    }

    let fleet = Cluster::builder().adopt(clients).expect("adopt fleet");
    let cluster = fleet.scrape_metrics().expect("cluster scrape");
    assert_eq!(cluster.per_peer.len(), 2, "expected two scraped peers");
    let addrs: Vec<String> = cluster
        .per_peer
        .iter()
        .map(|(a, s)| {
            assert!(!s.is_empty(), "peer {a} returned an empty registry");
            a.to_string()
        })
        .collect();
    assert_ne!(addrs[0], addrs[1], "peers must be distinct sockets");

    // The blind merge sums the fleet: each server saw one install, one
    // extract, and the metrics request itself.
    let installs = cluster
        .merged
        .counter_value("ndpipe_rpc_server_requests_total")
        .expect("request counter in merged view");
    assert!(installs >= 6, "merged request total too small: {installs}");

    // The labelled merge keeps per-peer resolution: every peer address
    // shows up as a label value on the request counter.
    let labelled = cluster.merged_labelled();
    for addr in &addrs {
        assert!(
            labelled.samples.iter().any(|s| {
                s.name == "ndpipe_rpc_server_requests_total"
                    && s.labels.iter().any(|(k, v)| k == "peer" && v == addr)
            }),
            "peer {addr} missing from labelled merge"
        );
    }

    // And the merged view survives both exporters.
    let json = labelled.to_json();
    telemetry::export::validate_json(&json).expect("merged snapshot JSON");
    assert!(labelled
        .to_prometheus()
        .contains("ndpipe_rpc_server_requests_total"));

    let fan = fleet.shutdown();
    assert!(fan.failures.is_empty());
    for s in servers {
        s.shutdown().expect("server drain");
    }
}
