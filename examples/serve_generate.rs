//! Autoregressive generation quickstart: stream tokens out of the
//! continuous-batching decode plane, prove the stream bit-identical to
//! the serial `BertModel::generate` loop, then kill a replica
//! mid-generation and watch the shard heal it with a KV-cache rebuild —
//! without changing a bit of the continuation.
//!
//! Run: `cargo run --release --example serve_generate`

use std::error::Error;
use std::sync::Arc;
use std::time::Duration;

use nn_lut::core::{train::TrainConfig, NnLutKit};
use nn_lut::serve::{
    AsyncServerConfig, BatchPolicy, ClosePolicy, FaultPlan, ShardConfig, ShardedServer,
    INJECTED_PANIC_PREFIX,
};
use nn_lut::transformer::{BertModel, MatmulMode, Nonlinearity, TransformerConfig};

fn main() -> Result<(), Box<dyn Error>> {
    // Part 3 injects a panic that is supposed to fire; keep its
    // default-hook stderr spew out of the demo output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.contains(INJECTED_PANIC_PREFIX) {
            default_hook(info);
        }
    }));

    let model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 7);
    let kit = NnLutKit::train_with(16, 7, &TrainConfig::fast());
    let prompt: Vec<usize> = vec![11, 42, 7, 3, 99];
    let max_new = 10;

    // 1. The serial reference: prefill a KV cache from the prompt, then
    //    greedy-decode one token at a time. This is the loop every served
    //    stream below must reproduce bit-for-bit.
    let nl = Nonlinearity::all_lut(&kit);
    let serial = model.generate(&prompt, max_new, &nl, MatmulMode::F32);
    println!("serial generate       : {serial:?}");

    // 2. The async front door, over one replica. `submit_generate`
    //    returns a streaming ticket; the scheduler mixes this generation's
    //    decode steps with whatever prefills and encodes are queued
    //    (continuous batching).
    let server = ShardedServer::new(
        model.clone(),
        kit.clone(),
        ShardConfig {
            replicas: 1,
            replica: AsyncServerConfig {
                threads: 2,
                max_in_flight: 2,
                policy: BatchPolicy {
                    max_batch: 4,
                    max_padded_tokens: 128,
                    bucket_edges: vec![8, 16],
                },
                close: ClosePolicy {
                    max_batch_age: Duration::from_millis(1),
                    deadline_slack: Duration::from_millis(1),
                },
                ..AsyncServerConfig::default()
            },
            ..ShardConfig::default()
        },
    );
    // Encode traffic rides along so the decode plane genuinely shares
    // batches with prefill work.
    let encodes: Vec<_> = (0..6)
        .map(|r| server.submit((0..3 + r).map(|i| (i * 5 + r) % 128).collect()))
        .collect();
    let ticket = server.submit_generate(prompt.clone(), max_new, None);
    print!("streamed              : [");
    let mut streamed = Vec::new();
    for token in ticket {
        let token = token?;
        print!("{}{token}", if streamed.is_empty() { "" } else { ", " });
        streamed.push(token);
    }
    println!("]");
    assert_eq!(streamed, serial, "continuous batching must not change bits");
    for t in encodes {
        t.wait()?;
    }
    let m = server.metrics();
    println!(
        "decode plane          : {} steps over {} batches (width {:.2}) · inter-token p50 {:?}",
        m.decode_steps(),
        m.decode_batches(),
        m.decode_batch_width(),
        m.inter_token_percentile(50.0).unwrap_or_default(),
    );

    // 3. The sharded fleet, with a fault plan that kills replica 0 while
    //    this generation is decoding. The supervisor harvests the tokens
    //    streamed so far, re-prefills `prompt ++ harvested` on replica 1
    //    (rebuilding the KV cache), and the continuation — being
    //    deterministic — is bit-identical to the serial loop.
    let shard = ShardedServer::new(
        model,
        kit,
        ShardConfig {
            replicas: 2,
            retry_budget: 3,
            stall_timeout: Duration::from_secs(30),
            fault_plan: Some(Arc::new(FaultPlan::new().panic_at(0, 1).panic_at(0, 2))),
            ..ShardConfig::default()
        },
    );
    let healed = shard
        .submit_generate(prompt, max_new, None)
        .wait_timeout(Duration::from_secs(60))?;
    println!("after cache rebuild   : {:?}", healed.tokens);
    assert_eq!(healed.tokens, serial, "rebuilt continuation must not drift");
    let sm = shard.shard_metrics();
    println!(
        "shard ledger          : {} failover(s), {} cache rebuild(s) — stream unchanged",
        sm.failovers, sm.cache_rebuilds
    );
    Ok(())
}
