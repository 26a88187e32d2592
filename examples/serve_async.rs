//! Asynchronous serving quickstart: stand up the asynchronous front door,
//! a `ShardedServer` here over one replica whose background worker drains
//! a length-bucketed queue, submit mixed-length requests with and without
//! deadlines, and watch tickets, batch-close reasons and deadline misses.
//!
//! Run: `cargo run --release --example serve_async`

use std::time::Duration;

use nn_lut::core::{train::TrainConfig, NnLutKit};
use nn_lut::serve::{
    AsyncServerConfig, BatchPolicy, ClosePolicy, CloseReason, ShardConfig, ShardedServer,
};
use nn_lut::transformer::{BertModel, TransformerConfig};

fn main() {
    // 1. A frozen "pre-trained" body and a trained LUT kit (engines bake
    //    at assembly). The server shares both with its replica's worker.
    let config = TransformerConfig::roberta_tiny();
    let model = BertModel::new_synthetic(config.clone(), 42);
    let kit = NnLutKit::train_with(16, 42, &TrainConfig::fast());

    // 2. The front door: length buckets at ≤8/≤16/≤32/≤64 tokens, up to
    //    8 sequences or 512 padded positions per batch, and under-filled
    //    batches close after 5 ms (or 2 ms before a member's deadline).
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let server = ShardedServer::new(
        model,
        kit,
        ShardConfig {
            replicas: 1,
            replica: AsyncServerConfig {
                threads,
                policy: BatchPolicy {
                    max_batch: 8,
                    max_padded_tokens: 512,
                    bucket_edges: vec![8, 16, 32],
                },
                close: ClosePolicy {
                    max_batch_age: Duration::from_millis(5),
                    deadline_slack: Duration::from_millis(2),
                },
                ..AsyncServerConfig::default()
            },
            ..ShardConfig::default()
        },
    );

    // 3. A traffic sample: 48 mixed-length requests, every third one with
    //    a generous 2 s deadline, plus one poison request whose deadline
    //    has already passed when it is admitted.
    let lengths = [3usize, 7, 12, 20, 33, 48, 64];
    let mut tickets = Vec::new();
    for r in 0..48 {
        let len = lengths[r % lengths.len()];
        let tokens: Vec<usize> = (0..len).map(|i| (i * 13 + r) % config.vocab).collect();
        let deadline = (r % 3 == 0).then(|| Duration::from_secs(2));
        tickets.push(server.submit_with_deadline(tokens, deadline));
    }
    let doomed = server.submit_with_deadline(vec![1, 2, 3], Some(Duration::ZERO));
    println!(
        "queued {} requests on a {threads}-thread worker",
        tickets.len() + 1
    );

    // 4. Tickets resolve as the worker closes batches; wait() blocks only
    //    until the request's own batch is done.
    let mut served = 0usize;
    let mut tokens = 0usize;
    for t in tickets {
        let response = t.wait().expect("2 s deadlines are generous");
        served += 1;
        tokens += response.tokens;
    }
    match doomed.wait() {
        Err(e) => println!("doomed request correctly expired: {e}"),
        Ok(_) => println!("doomed request sneaked in before its deadline check"),
    }
    println!("served {served} requests · {tokens} tokens");

    // 5. The operator's view: close reasons, per-bucket padding, waits.
    let m = server.metrics();
    println!("summary: {}", m.summary());
    let door = server.shard_metrics();
    println!(
        "door: {} deadline misses · {} overload rejections",
        door.deadline_misses, door.overload_rejections
    );
    println!(
        "batch closes: {} full · {} aged · {} deadline-pressure · {} drain",
        m.closes_for(CloseReason::Full),
        m.closes_for(CloseReason::Aged),
        m.closes_for(CloseReason::Deadline),
        m.closes_for(CloseReason::Drain),
    );
    for (i, b) in m.per_bucket().iter().enumerate() {
        if b.batches > 0 {
            println!(
                "bucket {i}: {} batches · {} seqs · padding eff {:.3}",
                b.batches,
                b.sequences,
                b.padding_efficiency()
            );
        }
    }
}
