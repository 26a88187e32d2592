//! Padding efficiency counts the area a bucket batch actually computed.
//!
//! A bucket batch packs only its encodes, each to the encodes' own
//! longest member; generation prompts run unpadded through
//! `BertModel::extend`. So a batch of prompts computes no padded row, and
//! an encode-plus-prompt batch pads only its encodes. The batch's real
//! tokens over that area is what `padding_efficiency` and the per-bucket
//! stats must report.

use std::time::Duration;

use nn_lut::serve::{
    AsyncServerConfig, BatchPolicy, BucketStats, ClosePolicy, ShardConfig, ShardedServer,
};
use nn_lut::transformer::{BertModel, Nonlinearity, TransformerConfig};

/// One replica whose single bucket closes only when `max_batch` requests
/// are queued, so every test batch holds exactly the requests submitted.
fn server(max_batch: usize) -> ShardedServer {
    let replica = AsyncServerConfig {
        threads: 1,
        policy: BatchPolicy {
            max_batch,
            max_padded_tokens: usize::MAX,
            bucket_edges: Vec::new(),
        },
        close: ClosePolicy {
            max_batch_age: Duration::from_secs(30),
            deadline_slack: Duration::from_millis(1),
        },
        ..AsyncServerConfig::default()
    };
    let config = ShardConfig {
        replicas: 1,
        replica,
        stall_timeout: Duration::from_secs(60),
        ..ShardConfig::default()
    };
    let model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 9);
    ShardedServer::with_backend(model, Nonlinearity::exact(), config)
}

fn tokens(len: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 7 + 3) % 128).collect()
}

/// The one bucket's stats after every ticket resolved.
fn bucket(server: &ShardedServer) -> BucketStats {
    let per_bucket = server.metrics().per_bucket();
    assert_eq!(per_bucket.len(), 1, "one bucket");
    per_bucket[0]
}

#[test]
fn a_prefill_only_batch_computes_no_padding() {
    let server = server(2);
    // One new token each: the prefill emits it, so no decode batch runs.
    let tickets: Vec<_> = [3, 7]
        .map(|len| server.submit_generate(tokens(len), 1, None))
        .into_iter()
        .collect();
    for ticket in tickets {
        ticket.wait().expect("no faults, no deadline");
    }
    let want = BucketStats {
        batches: 1,
        sequences: 2,
        tokens: 10,
        padded_tokens: 10,
    };
    assert_eq!(bucket(&server), want, "prompts run unpadded");
    assert_eq!(server.metrics().padding_efficiency(), 1.0);
}

#[test]
fn a_mixed_batch_pads_only_its_encodes() {
    let server = server(3);
    let encodes = [3, 5].map(|len| server.submit(tokens(len)));
    let prompt = server.submit_generate(tokens(7), 1, None);
    for ticket in encodes {
        ticket.wait().expect("no faults, no deadline");
    }
    prompt.wait().expect("no faults, no deadline");
    // The encodes pack to 2 × 5; the 7-token prompt adds its own rows.
    let want = BucketStats {
        batches: 1,
        sequences: 3,
        tokens: 15,
        padded_tokens: 17,
    };
    assert_eq!(bucket(&server), want);
    assert_eq!(server.metrics().padding_efficiency(), 15.0 / 17.0);
}
