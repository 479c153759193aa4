//! The traced replay: the blocks a node committed in the end-to-end
//! phase, replayed in the same partition and order through each layer's
//! public functions on a freshly built identical node, with a span
//! around every call. Spans come from here, outside the program; the
//! program itself is not instrumented.

use crate::e2e::{build_node, server_threads, Capture, Kind, Round, Workload, MEMBERS, NODE_SEED};
use crate::stats::{median, residual, Summary, Trace};
use confide_consensus::{sign_vote, Action, Keyring, Replica, ReplicaConfig, SignedPeerMsg};
use confide_core::{OpCounters, SchedMode, SignedTx, WireTx};
use confide_crypto::ed25519::VerifyingKey;
use confide_crypto::hex;
use confide_net::demo::demo_keys;
use confide_net::Message;
use confide_storage::{Block, BlockWal, StateDb, WalFile};
use std::collections::VecDeque;
use std::path::Path;

/// Block-level results of the replay that spans do not carry.
#[derive(Debug, Default)]
struct Tally {
    txs: usize,
    blocks: usize,
    /// Per block: `execute_block_staged` minus the shadow root rebuild, ms.
    exec_ms: Vec<f64>,
    spec_runs: usize,
    fallback_blocks: usize,
    totals: OpCounters,
    wal_bytes: usize,
    msgs: usize,
    msg_bytes: usize,
    state_keys: usize,
}

fn err<E: std::fmt::Debug>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("replay: {what}: {e:?}")
}

fn last_ms(trace: &Trace) -> f64 {
    trace.spans.last().map_or(0.0, |s| s.dur_ns() as f64 / 1e6)
}

/// Replay `cap` on a fresh node built like the one that served it,
/// recording spans into `trace`. Fails if the replay diverges: a
/// transaction that does not verify or execute, a shadow root that
/// differs from the block header, or a final root that differs from
/// the end-to-end node's.
fn replay(
    w: &Workload,
    senders: &[[u8; 32]],
    cap: &Capture,
    trace: &mut Trace,
    dir: &Path,
) -> Result<Tally, String> {
    let mut node = build_node(w.kind, 0, senders);
    let boot = node.blocks.height();
    let keys = demo_keys(NODE_SEED);
    let threads = server_threads();

    // The shadow state starts where bootstrap left it.
    let mut shadow = StateDb::new();
    for wb in BlockWal::recover(&cap.wal)
        .blocks
        .iter()
        .filter(|b| b.header.height <= boot)
    {
        shadow
            .apply_block(wb.header.height, &wb.batch)
            .map_err(err("shadow genesis"))?;
    }
    std::fs::create_dir_all(dir).map_err(err("create run directory"))?;
    let wal_path = dir.join("replay.wal");
    let _ = std::fs::remove_file(&wal_path);
    let mut wal = WalFile::open(&wal_path).map_err(err("open replay WAL"))?;

    let rings: Vec<Keyring> = (0..MEMBERS as u32)
        .map(|id| Keyring::deterministic(NODE_SEED, id, MEMBERS))
        .collect();
    let mut replicas: Vec<Replica> = rings
        .iter()
        .enumerate()
        .map(|(id, ring)| {
            Replica::with_height(
                ReplicaConfig::localhost(id as u32, MEMBERS),
                ring.clone(),
                boot,
                0,
            )
        })
        .collect();

    let mut t = Tally::default();
    for block in cap.blocks.iter().filter(|b| b.header.height > boot) {
        let h = block.header.height;
        let bspan = trace.open("replay.block", None, h.to_string());
        let txs: Vec<WireTx> = block
            .txs
            .iter()
            .map(|b| WireTx::decode(b))
            .collect::<Result<_, _>>()
            .map_err(err("decode block transaction"))?;

        // Preverify stage, per transaction.
        for tx in &txs {
            let key = hex(&tx.wire_hash());
            let WireTx::Confidential(env) = tx else {
                return Err("replay: the workload sent a public transaction".into());
            };
            let (_, plain) = trace
                .time(
                    "crypto.envelope_open",
                    Some(bspan),
                    || key.clone(),
                    || env.open(&keys.envelope, b""),
                )
                .map_err(err("envelope open"))?;
            let signed = SignedTx::decode(&plain).map_err(err("decode signed tx"))?;
            let msg = signed.raw.encode();
            let vk = VerifyingKey(signed.raw.sender);
            trace
                .time(
                    "crypto.ed25519_verify",
                    Some(bspan),
                    || key.clone(),
                    || vk.verify(&msg, &signed.signature),
                )
                .map_err(err("signature"))?;
            trace
                .time(
                    "core.preverify",
                    Some(bspan),
                    || key.clone(),
                    || node.confidential_engine.preverify(tx),
                )
                .map_err(err("preverify"))?;
        }

        // Execute stage, then the shadow root rebuild and the WAL append
        // of exactly the delta the block produced.
        let (res, delta) = trace
            .time(
                "core.execute",
                Some(bspan),
                || h.to_string(),
                || node.execute_block_staged(&txs, threads, SchedMode::Static),
            )
            .map_err(err("execute"))?;
        let exec_ms = last_ms(trace);
        let mut recovered = BlockWal::recover(&delta.bytes).blocks;
        let batch = match (recovered.pop(), recovered.is_empty()) {
            (Some(b), true) => b.batch,
            _ => return Err(format!("replay: block {h} delta does not frame one block")),
        };
        let root = trace
            .time(
                "storage.root",
                Some(bspan),
                || h.to_string(),
                || shadow.apply_block(h, &batch),
            )
            .map_err(err("shadow apply"))?;
        t.exec_ms.push(exec_ms - last_ms(trace));
        if root != block.header.state_root {
            return Err(format!(
                "replay: shadow root differs from block {h}'s header"
            ));
        }
        trace
            .time(
                "storage.wal_commit",
                Some(bspan),
                || h.to_string(),
                || wal.commit_group(&[&delta.bytes]),
            )
            .map_err(err("WAL commit"))?;

        // Reply path and the receipt read path, per transaction.
        for (tx, outcome) in txs.iter().zip(&res.outcomes) {
            let (receipt, sealed) = outcome.as_ref().map_err(err("transaction rejected"))?;
            let sealed = sealed.clone().ok_or("replay: receipt was not sealed")?;
            let key = hex(&tx.wire_hash());
            let framed = trace.time(
                "net.frame",
                Some(bspan),
                || key.clone(),
                || {
                    let submit = Message::SubmitTxWait(tx.clone()).to_frame();
                    let reply = Message::Committed {
                        sealed: true,
                        receipt: sealed,
                    }
                    .to_frame();
                    Message::from_payload(&submit[4..]).is_ok()
                        && Message::from_payload(&reply[4..]).is_ok()
                },
            );
            if !framed {
                return Err("replay: frame round trip failed".into());
            }
            let stored = trace
                .time(
                    "storage.get",
                    Some(bspan),
                    || key.clone(),
                    || node.stored_receipt(&receipt.tx_hash),
                )
                .ok_or("replay: receipt not stored")?;
            trace.time(
                "net.read_frame",
                Some(bspan),
                || key.clone(),
                || {
                    let ask = Message::GetReceipt(receipt.tx_hash).to_frame();
                    let answer = Message::ReceiptIs(stored).to_frame();
                    Message::from_payload(&ask[4..]).is_ok()
                        && Message::from_payload(&answer[4..]).is_ok()
                },
            );
        }

        let (msgs, bytes) = consensus_round(&mut replicas, &rings, block, trace, bspan)?;
        trace.close(bspan);

        t.txs += txs.len();
        t.blocks += 1;
        t.spec_runs += res.report.spec_runs;
        t.fallback_blocks += usize::from(!res.report.static_schedule || res.report.serial_fallback);
        t.totals.add(&res.totals);
        t.wal_bytes += delta.bytes.len();
        t.msgs += msgs;
        t.msg_bytes += bytes;
    }
    let _ = std::fs::remove_file(&wal_path);
    if node.state_root() != cap.root || shadow.root() != cap.root {
        return Err("replay: replayed state root differs from the end-to-end node's".into());
    }
    t.state_keys = shadow.kv().iter().count();
    Ok(t)
}

/// Drive four in-memory replicas through one block: the leader proposes,
/// every message is signed, encoded and handed to each receiver, and
/// each replica executes (with the block's header root) until all four
/// reach `CommittedLocal`. Returns (messages, bytes) delivered.
fn consensus_round(
    replicas: &mut [Replica],
    rings: &[Keyring],
    block: &Block,
    trace: &mut Trace,
    parent: usize,
) -> Result<(usize, usize), String> {
    let seq = block.header.height;
    let root = block.header.state_root;
    let roster = rings[0].keys.clone();
    let key = || seq.to_string();
    let round = trace.open("consensus.round", Some(parent), key());
    let mut queue: VecDeque<(usize, Action)> = replicas[0]
        .propose(block.txs.clone(), 0)
        .map_err(err("propose"))?
        .into_iter()
        .map(|a| (0, a))
        .collect();
    let mut committed = vec![false; replicas.len()];
    let (mut msgs, mut bytes) = (0usize, 0usize);
    while let Some((at, action)) = queue.pop_front() {
        let (to, msg) = match action {
            Action::Broadcast(msg) => (None, msg),
            Action::Send(to, msg) => (Some(to as usize), msg),
            Action::Execute { seq: s, .. } if s == seq => {
                trace.time("consensus.vote_sign", Some(round), key, || {
                    sign_vote(&rings[at].signer, s, &root)
                });
                for a in replicas[at].on_executed(s, root, 0) {
                    queue.push_back((at, a));
                }
                continue;
            }
            Action::CommittedLocal { seq: s, cert, .. } if s == seq => {
                trace
                    .time("consensus.cert_verify", Some(round), key, || {
                        cert.verify(MEMBERS, &roster)
                    })
                    .map_err(err("quorum cert"))?;
                committed[at] = true;
                continue;
            }
            other => return Err(format!("replay: consensus left the happy path: {other:?}")),
        };
        let wire = replicas[at].sign(msg).encode();
        for dest in (0..replicas.len()).filter(|&d| d != at && to.is_none_or(|t| t == d)) {
            msgs += 1;
            bytes += wire.len();
            let signed = SignedPeerMsg::decode(&wire).map_err(err("decode peer message"))?;
            trace
                .time("consensus.msg_verify", Some(round), key, || {
                    signed.verify(&roster)
                })
                .map_err(err("peer message signature"))?;
            for a in replicas[dest].handle(signed, 0).map_err(err("handle"))? {
                queue.push_back((dest, a));
            }
        }
    }
    trace.close(round);
    if committed.iter().all(|&c| c) {
        Ok((msgs, bytes))
    } else {
        Err(format!(
            "replay: block {seq} did not commit on every replica"
        ))
    }
}

fn p50(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Replay the round's capture and derive every per-layer metric. Also
/// returns human-readable lines: each layer's p50 and tail self time
/// and its share of the end-to-end commit median, plus the residual.
pub fn layers(
    w: &Workload,
    senders: &[[u8; 32]],
    round: &Round,
    commit_p50_ms: f64,
    read: &Summary,
    trace: &mut Trace,
    dir: &Path,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let cap = round
        .capture
        .as_ref()
        .ok_or("replay: round kept no capture")?;
    let t = replay(w, senders, cap, trace, dir)?;
    let read_p50_ms = read.p50;
    let us = |name: &str| trace.self_us(name);
    let ms = |name: &str| {
        trace
            .self_us(name)
            .iter()
            .map(|v| v / 1e3)
            .collect::<Vec<_>>()
    };

    // The per-transaction blocking path: the transaction's own frame and
    // preverify, then its whole block's execute, root, WAL append and
    // (in the cluster) consensus round. What the end-to-end median has
    // beyond that is waiting: queueing behind earlier blocks and linger.
    let mut path: Vec<(&str, Vec<f64>)> = vec![
        ("net.frame", ms("net.frame")),
        ("core.preverify", ms("core.preverify")),
        ("core.execute", t.exec_ms.clone()),
        ("storage.root", ms("storage.root")),
        ("storage.wal_commit", ms("storage.wal_commit")),
    ];
    if w.kind == Kind::Consortium4 {
        path.push(("consensus.round", ms("consensus.round")));
    }
    let wait = residual(
        commit_p50_ms,
        &path.iter().map(|(_, v)| p50(v)).collect::<Vec<_>>(),
    );
    let read_wait = residual(
        read_p50_ms,
        &[p50(&ms("storage.get")), p50(&ms("net.read_frame"))],
    );

    let mut lines = vec![format!(
        "layer shares of commit p50 {commit_p50_ms:.3} ms ({} blocks, {} txs replayed):",
        t.blocks, t.txs
    )];
    let row = |name: &str, v: &[f64], base: f64| {
        let s = Summary::of(v);
        format!(
            "  {name:<24} p50 {:>10.4} ms  {:<3} {:>10.4} ms  share {:>6.2}%  (n={})",
            s.p50,
            s.tail_label(),
            s.tail,
            100.0 * s.p50 / base,
            s.n
        )
    };
    for (name, v) in &path {
        lines.push(row(name, v, commit_p50_ms));
    }
    lines.push(format!(
        "  {:<24} {:>14.4} ms  share {:>6.2}%{}",
        "net.wait (residual)",
        wait.value,
        100.0 * wait.value / commit_p50_ms,
        if wait.coverage_error {
            "  COVERAGE ERROR: layers exceed the end-to-end median"
        } else {
            ""
        }
    ));
    lines.push("  preverify breakdown (separate calls, same envelopes):".into());
    for name in ["crypto.envelope_open", "crypto.ed25519_verify"] {
        lines.push(row(name, &ms(name), commit_p50_ms));
    }
    lines.push(format!("read path of read p50 {read_p50_ms:.4} ms:"));
    for name in ["storage.get", "net.read_frame"] {
        lines.push(row(name, &ms(name), read_p50_ms));
    }
    lines.push(format!(
        "  {:<24} {:>14.4} ms{}",
        "net.read_wait (residual)",
        read_wait.value,
        if read_wait.coverage_error {
            "  COVERAGE ERROR"
        } else {
            ""
        }
    ));

    let (b, a) = (&round.before, &round.after);
    let window_ns = round.window_s * 1e9;
    let busy = |i: usize, workers: usize| {
        (a.busy_ns[i] - b.busy_ns[i]) as f64 / (window_ns * workers as f64)
    };
    let d = |i: usize| a.cache[i] - b.cache[i];
    let txs = t.txs.max(1) as f64;
    let blocks = t.blocks.max(1) as f64;
    let metrics: Vec<Metric> = vec![
        ("net.frame_us", p50(&us("net.frame")), "us"),
        ("net.preverify_busy", busy(0, server_threads()), "ratio"),
        ("net.execute_busy", busy(1, 1), "ratio"),
        ("net.commit_busy", busy(2, 1), "ratio"),
        (
            "net.txs_per_block",
            round.committed as f64 / (a.height - b.height).max(1) as f64,
            "tx/block",
        ),
        (
            "net.blocks_per_fsync",
            ratio(a.fsync_blocks - b.fsync_blocks, a.fsyncs - b.fsyncs),
            "blocks",
        ),
        ("net.wait_ms", wait.value, "ms"),
        ("read_p50_ms", read.p50, "ms"),
        ("read_p99_ms", read.tail, "ms"),
        ("net.read_wait_ms", read_wait.value, "ms"),
        (
            "crypto.envelope_open_us",
            p50(&us("crypto.envelope_open")),
            "us",
        ),
        (
            "crypto.ed25519_verify_us",
            p50(&us("crypto.ed25519_verify")),
            "us",
        ),
        ("core.preverify_us", p50(&us("core.preverify")), "us"),
        (
            "core.preverify_hit_ratio",
            ratio(d(2), d(2) + d(3)),
            "ratio",
        ),
        ("core.code_hit_ratio", ratio(d(0), d(0) + d(1)), "ratio"),
        ("core.execute_ms", p50(&t.exec_ms), "ms"),
        (
            "core.execute_us_per_tx",
            t.exec_ms.iter().sum::<f64>() * 1e3 / txs,
            "us",
        ),
        (
            "core.spec_runs_per_block",
            t.spec_runs as f64 / blocks,
            "count",
        ),
        ("core.fallback_blocks", t.fallback_blocks as f64, "count"),
        (
            "vm.instret_per_tx",
            t.totals.vm_instret as f64 / txs,
            "count",
        ),
        ("tee.ocalls_per_tx", t.totals.ocalls as f64 / txs, "count"),
        (
            "core.state_crypto_bytes_per_tx",
            t.totals.state_crypto_bytes as f64 / txs,
            "B",
        ),
        ("storage.root_ms", p50(&ms("storage.root")), "ms"),
        ("storage.state_keys", t.state_keys as f64, "count"),
        (
            "storage.wal_commit_ms",
            p50(&ms("storage.wal_commit")),
            "ms",
        ),
        ("storage.wal_bytes_per_tx", t.wal_bytes as f64 / txs, "B"),
        ("storage.get_us", p50(&us("storage.get")), "us"),
        ("consensus.round_ms", p50(&ms("consensus.round")), "ms"),
        ("consensus.msgs_per_block", t.msgs as f64 / blocks, "count"),
        (
            "consensus.bytes_per_block",
            t.msg_bytes as f64 / blocks,
            "B",
        ),
        (
            "consensus.msg_verify_us",
            p50(&us("consensus.msg_verify")),
            "us",
        ),
        (
            "consensus.vote_sign_us",
            p50(&us("consensus.vote_sign")),
            "us",
        ),
        (
            "consensus.cert_verify_us",
            p50(&us("consensus.cert_verify")),
            "us",
        ),
        (
            "process.cpu_ms_per_tx",
            (a.cpu_ms - b.cpu_ms) / round.committed.max(1) as f64,
            "ms",
        ),
    ];
    Ok((metrics, lines))
}
