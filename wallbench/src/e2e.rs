//! The end-to-end phase: stand up real in-process `NodeServer`s, drive
//! them over loopback TCP with a saturating closed window of pre-sealed
//! confidential transactions, and check every reply.

use crate::gen::{self, Call, SealedTx};
use confide_contracts::abs::{abs_fb_src, genesis_state};
use confide_core::engine::{full_key, EngineConfig, VmKind};
use confide_core::{ConfideNode, Receipt};
use confide_crypto::{hex, HmacDrbg};
use confide_net::demo::{demo_cluster_node, demo_keys, demo_node, demo_platform, DEMO_CONTRACT};
use confide_net::{ClusterConfig, Conn, Message, NodeServer, ServerConfig};
use confide_storage::Block;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Seed of every node's platform, consortium keys and genesis. Fixed,
/// so the workload seed changes only the transactions the node receives.
pub const NODE_SEED: u64 = 0x00c0_f1de;

/// Address the ABS transfer contract is deployed at.
pub const ABS_CONTRACT: [u8; 32] = [0xAB; 32];

/// State keys preloaded into the ABS contract at genesis.
const PRELOAD_KEYS: usize = 100_000;

/// Consortium size of the cluster workload.
pub const MEMBERS: usize = 4;

/// Longest a client waits for any single reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Which deployment a workload stands up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One demo node with a WAL file.
    TransferWal,
    /// One node running the ABS contract over 100k preloaded keys.
    Abs100kRw,
    /// Four PBFT members, each with its own WAL.
    Consortium4,
}

/// How reads are issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reads {
    /// A separate connection runs a closed loop of `GetReceipt` calls
    /// during the write window.
    During,
    /// After the write window, each write connection issues this many
    /// `GetReceipt` calls in a closed loop.
    After(usize),
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Deployment.
    pub kind: Kind,
    /// Transactions per round.
    pub txs: usize,
    /// Write connections.
    pub writers: usize,
    /// Transactions in flight per write connection.
    pub window: usize,
    /// Read pattern.
    pub reads: Reads,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "transfer_wal",
        kind: Kind::TransferWal,
        txs: 4096,
        writers: 2,
        window: 256,
        reads: Reads::After(600),
    },
    Workload {
        name: "abs_100k_rw",
        kind: Kind::Abs100kRw,
        txs: 1536,
        writers: 1,
        window: 512,
        reads: Reads::During,
    },
    Workload {
        name: "consortium4",
        kind: Kind::Consortium4,
        txs: 1536,
        writers: 2,
        window: 256,
        reads: Reads::After(600),
    },
];

// Transaction `i` belongs to sender `i % SENDERS` and goes to writer
// `i % writers`, so each sender writes on one connection, and at most
// one of its transactions is among the `window` in flight there.
const _: () = {
    let mut i = 0;
    while i < WORKLOADS.len() {
        let w = WORKLOADS[i];
        assert!(gen::SENDERS.is_multiple_of(w.writers) && w.writers * w.window <= gen::SENDERS);
        i += 1;
    }
};

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The contract call the workload's transactions make.
    pub fn call(&self) -> Call {
        match self.kind {
            Kind::Abs100kRw => Call::AbsTransfer(ABS_CONTRACT),
            Kind::TransferWal | Kind::Consortium4 => Call::DemoTransfer(DEMO_CONTRACT),
        }
    }

    /// The envelope key every node of the deployment serves.
    pub fn pk_tx(&self) -> [u8; 32] {
        demo_keys(NODE_SEED).pk_tx()
    }

    /// Members in the deployment.
    pub fn members(&self) -> usize {
        match self.kind {
            Kind::Consortium4 => MEMBERS,
            Kind::TransferWal | Kind::Abs100kRw => 1,
        }
    }
}

/// Build member `member`'s node exactly as bootstrap does: platform and
/// keys, contract deploy and verify, genesis and state preload.
/// `senders` are the addresses the ABS genesis authorises.
pub fn build_node(kind: Kind, member: u32, senders: &[[u8; 32]]) -> ConfideNode {
    match kind {
        Kind::TransferWal => demo_node(NODE_SEED),
        Kind::Consortium4 => demo_cluster_node(NODE_SEED, member),
        Kind::Abs100kRw => {
            let mut node = ConfideNode::new(
                demo_platform(NODE_SEED),
                demo_keys(NODE_SEED),
                EngineConfig::default(),
                NODE_SEED,
            );
            let code = confide_lang::build_vm(&abs_fb_src()).expect("ABS contract compiles");
            node.deploy(ABS_CONTRACT, &code, VmKind::ConfideVm, true)
                .expect("ABS contract deploys");
            node.run_genesis(|_, _, ctx| {
                for sender in senders {
                    for (k, v) in genesis_state(&hex(sender)) {
                        ctx.write(full_key(&ABS_CONTRACT, &k), Some(v));
                    }
                }
                for i in 0..PRELOAD_KEYS {
                    let key = format!("pre:{i:06}");
                    ctx.write(
                        full_key(&ABS_CONTRACT, key.as_bytes()),
                        Some(format!("{i:032}").into_bytes()),
                    );
                }
            })
            .expect("ABS genesis commits");
            node
        }
    }
}

/// Server threads: `exec_threads` and `verify_threads` both take this
/// value, at most the machine's parallelism.
pub fn server_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

fn server_config(wal: PathBuf, cluster: Option<ClusterConfig>) -> ServerConfig {
    let threads = server_threads();
    let mut b = ServerConfig::builder()
        .exec_threads(threads)
        .verify_threads(threads)
        .wal_path(wal);
    if let Some(c) = cluster {
        b = b.join_roots(c.peer_roots.clone()).cluster(c);
    }
    b.build().expect("benchmark server config validates")
}

/// A running deployment; member 0 takes the client traffic (it is the
/// view-0 leader of the cluster).
struct Deployment {
    /// The running servers, member 0 first.
    servers: Vec<NodeServer>,
}

impl Deployment {
    /// Address clients send to.
    fn entry(&self) -> SocketAddr {
        self.servers[0].addr()
    }

    /// Stop every server and join its threads.
    fn shutdown(mut self) {
        for s in &mut self.servers {
            s.shutdown();
        }
    }
}

fn ping_until_ready(addr: SocketAddr) -> Result<(), String> {
    let end = Instant::now() + REPLY_TIMEOUT;
    loop {
        match Conn::connect_timeout(addr, REPLY_TIMEOUT).and_then(|mut c| c.ping()) {
            Ok(()) => return Ok(()),
            Err(e) if Instant::now() > end => return Err(format!("{addr} never answered: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Reserve distinct loopback ports (all listeners stay open until every
/// port is picked, so none is handed out twice).
fn reserve_ports(n: usize) -> Result<Vec<u16>, String> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("reserve port: {e}"))?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("reserved port: {e}"))
}

/// Bootstrap the deployment and wait until every node answers a
/// request; the cluster additionally commits `probe`, which proves the
/// attested mesh and a first leader. Returns the deployment and the
/// set-up wall time in seconds.
fn stand_up(
    w: &Workload,
    senders: &[[u8; 32]],
    dir: &Path,
    probe: &SealedTx,
) -> Result<(Deployment, f64), String> {
    let t0 = Instant::now();
    let wal = |id: usize| dir.join(format!("member{id}.wal"));
    let servers = match w.kind {
        Kind::TransferWal | Kind::Abs100kRw => {
            let node = build_node(w.kind, 0, senders);
            vec![
                NodeServer::spawn(node, "127.0.0.1:0", server_config(wal(0), None))
                    .map_err(|e| format!("spawn node: {e}"))?,
            ]
        }
        Kind::Consortium4 => {
            let peers: Vec<String> = reserve_ports(MEMBERS)?
                .into_iter()
                .map(|p| format!("127.0.0.1:{p}"))
                .collect();
            (0..MEMBERS)
                .map(|id| {
                    let cluster = ClusterConfig::demo(id as u32, peers.clone(), NODE_SEED);
                    let node = build_node(w.kind, id as u32, senders);
                    NodeServer::spawn(node, &peers[id], server_config(wal(id), Some(cluster)))
                        .map_err(|e| format!("spawn member {id}: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    let deployment = Deployment { servers };
    for s in &deployment.servers {
        ping_until_ready(s.addr())?;
    }
    if w.kind == Kind::Consortium4 {
        let mut conn = Conn::connect_timeout(deployment.entry(), REPLY_TIMEOUT)
            .map_err(|e| format!("connect leader: {e}"))?;
        let reply = conn
            .request(&Message::SubmitTxWait(probe.wire.clone()))
            .map_err(|e| format!("probe transaction: {e}"))?;
        check_commit(probe, &reply, w.call()).map_err(|e| format!("probe transaction {e}"))?;
    }
    Ok((deployment, t0.elapsed().as_secs_f64()))
}

/// Stand the deployment up and tear it down again: one more set-up
/// sample without a round.
pub fn setup_only(
    w: &Workload,
    senders: &[[u8; 32]],
    dir: &Path,
    probe: &SealedTx,
) -> Result<f64, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (deployment, setup_s) = stand_up(w, senders, dir, probe)?;
    deployment.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    Ok(setup_s)
}

/// Why a reply is not a verified commit or read.
#[derive(Debug)]
enum Bad {
    /// The operation failed: `Busy`, `Rejected` or another reply kind.
    Failed(String),
    /// A receipt came back that is wrong: the run's outputs are not
    /// correct.
    Broken(String),
}

impl std::fmt::Display for Bad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bad::Failed(why) => write!(f, "failed: {why}"),
            Bad::Broken(why) => write!(f, "broken: {why}"),
        }
    }
}

/// Check one `SubmitTxWait` reply: a sealed `Committed` receipt that
/// opens under the transaction's `k_tx`, names its own tx hash, and
/// reports success (for ABS, the contract's `OK:` verdict).
fn check_commit(tx: &SealedTx, reply: &Message, call: Call) -> Result<(), Bad> {
    match reply {
        Message::Committed {
            sealed: true,
            receipt,
        } => check_receipt(tx, receipt, call).map_err(Bad::Broken),
        Message::Committed { sealed: false, .. } => {
            Err(Bad::Broken("receipt came back unsealed".into()))
        }
        Message::Busy => Err(Bad::Failed("Busy".into())),
        Message::Rejected(why) => Err(Bad::Failed(format!("Rejected: {why}"))),
        other => Err(Bad::Failed(format!("reply kind {:#04x}", other.kind()))),
    }
}

fn check_receipt(tx: &SealedTx, sealed: &[u8], call: Call) -> Result<(), String> {
    let r = Receipt::open(sealed, &tx.k_tx, &tx.tx_hash)
        .map_err(|e| format!("receipt does not open under k_tx: {e:?}"))?;
    if r.tx_hash != tx.tx_hash {
        return Err("receipt names another transaction".into());
    }
    if !r.success {
        return Err("transaction failed in the contract".into());
    }
    if matches!(call, Call::AbsTransfer(_)) && !r.return_data.starts_with(b"OK:") {
        return Err(format!(
            "ABS transfer refused: {}",
            String::from_utf8_lossy(&r.return_data)
        ));
    }
    Ok(())
}

/// Counters read from member 0 around the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Pipeline busy nanoseconds: preverify (summed over workers),
    /// execute, commit.
    pub busy_ns: [u64; 3],
    /// Group fsyncs and the blocks they covered.
    pub fsyncs: u64,
    /// Blocks made durable by group fsyncs.
    pub fsync_blocks: u64,
    /// Chain height.
    pub height: u64,
    /// Engine cache counters: code hits, code misses, preverify hits,
    /// preverify misses.
    pub cache: [u64; 4],
    /// Process CPU time (user + system), milliseconds.
    pub cpu_ms: f64,
}

fn snapshot(server: &NodeServer) -> Snapshot {
    let p = server.pipeline_stats();
    let (height, cs) = {
        let node = server.node().read().expect("node lock");
        (node.blocks.height(), node.confidential_engine.cache_stats())
    };
    Snapshot {
        busy_ns: [
            p.preverify_ns.load(Ordering::Relaxed),
            p.execute_ns.load(Ordering::Relaxed),
            p.commit_ns.load(Ordering::Relaxed),
        ],
        fsyncs: p.fsyncs.load(Ordering::Relaxed),
        fsync_blocks: p.fsync_blocks.load(Ordering::Relaxed),
        height,
        cache: [
            cs.code_hits,
            cs.code_misses,
            cs.preverify_hits,
            cs.preverify_misses,
        ],
        cpu_ms: cpu_ms(),
    }
}

/// User + system CPU time of this process in milliseconds.
fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    // The kernel reports CPU time in USER_HZ ticks, 100 per second.
    ticks as f64 * 10.0
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// What the traced replay needs from the node that served a round.
pub struct Capture {
    /// Every committed block, in height order.
    pub blocks: Vec<Block>,
    /// The node's commit log.
    pub wal: Vec<u8>,
    /// The node's final state root.
    pub root: [u8; 32],
}

/// Outcome of one round.
pub struct Round {
    /// Set-up wall time, seconds.
    pub setup_s: f64,
    /// First submit to last `Committed` reply, seconds.
    pub window_s: f64,
    /// Committed transactions whose receipts verified.
    pub committed: usize,
    /// Per committed transaction: (tx index, first write of its
    /// `SubmitTxWait`, read of its `Committed` reply).
    pub commit_at: Vec<(usize, Instant, Instant)>,
    /// `GetReceipt` round trips, milliseconds.
    pub read_ms: Vec<f64>,
    /// Operations attempted (writes plus reads).
    pub attempted: usize,
    /// Operations that failed: `Busy` on the last attempt, `Rejected`,
    /// another reply kind, no reply, or a receipt that does not open.
    pub failed: Vec<String>,
    /// `Busy` replies the generator answered by resubmitting.
    pub busy_retries: usize,
    /// Broken correctness gates: a wrong receipt, a dedup hit, a lost
    /// connection, diverged cluster members.
    pub broken: Vec<String>,
    /// Member 0 counters before and after the timed phase.
    pub before: Snapshot,
    /// See `before`.
    pub after: Snapshot,
    /// Replay input, when asked for.
    pub capture: Option<Capture>,
}

impl Round {
    /// Committed transactions per second over the window.
    pub fn tps(&self) -> f64 {
        self.committed as f64 / self.window_s
    }

    /// Commit latencies in milliseconds.
    pub fn commit_ms(&self) -> Vec<f64> {
        self.commit_at
            .iter()
            .map(|(_, s, r)| r.duration_since(*s).as_secs_f64() * 1e3)
            .collect()
    }
}

struct WriterOut {
    written: Written,
    reads: Vec<(usize, f64, Message)>,
}

fn io<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Attempts a transaction gets in all. `Busy` is explicit backpressure
/// that `confide_net::Client` retries as transient, so the generator
/// resubmits a `Busy` transaction too; only a `Busy` on the last attempt
/// counts as a failed operation.
const BUSY_ATTEMPTS: u32 = 8;

/// What one connection's window produced.
struct Written {
    /// (tx index, first write of its `SubmitTxWait`, read of the final
    /// reply, final reply).
    replies: Vec<(usize, Instant, Instant, Message)>,
    /// `Busy` replies answered by a resubmission.
    busy_retries: usize,
}

/// Keep `window` `SubmitTxWait`s in flight on one connection until every
/// transaction in `idxs` has a final reply. Replies arrive in request
/// order. A `Busy` transaction is resubmitted, and no new transaction is
/// written until it has a final reply, so none of its sender's later
/// transactions overtakes it. Its latency runs from its first write.
fn write_window(
    conn: &mut Conn,
    txs: &[SealedTx],
    idxs: &[usize],
    window: usize,
    committed: &Mutex<Vec<usize>>,
) -> Result<Written, String> {
    // (tx index, first write, attempts made).
    let mut in_flight: VecDeque<(usize, Instant, u32)> = VecDeque::with_capacity(window);
    let mut retry: VecDeque<(usize, Instant, u32)> = VecDeque::new();
    // Transactions answered `Busy` that have no final reply yet.
    let mut unresolved = 0usize;
    let mut next = 0;
    let mut out = Written {
        replies: Vec::with_capacity(idxs.len()),
        busy_retries: 0,
    };
    while out.replies.len() < idxs.len() {
        while in_flight.len() < window {
            let (i, first, attempts) = match retry.pop_front() {
                Some(r) => r,
                None if unresolved == 0 && next < idxs.len() => {
                    next += 1;
                    (idxs[next - 1], Instant::now(), 0)
                }
                None => break,
            };
            conn.send(&Message::SubmitTxWait(txs[i].wire.clone()))
                .map_err(io("submit"))?;
            in_flight.push_back((i, first, attempts + 1));
        }
        let reply = conn.recv().map_err(io("await Committed"))?;
        let at = Instant::now();
        let (i, first, attempts) = in_flight
            .pop_front()
            .ok_or("a reply arrived with no request in flight")?;
        if matches!(reply, Message::Busy) && attempts < BUSY_ATTEMPTS {
            out.busy_retries += 1;
            unresolved += usize::from(attempts == 1);
            retry.push_back((i, first, attempts));
            continue;
        }
        unresolved -= usize::from(attempts > 1);
        if matches!(reply, Message::Committed { .. }) {
            committed.lock().expect("committed log").push(i);
        }
        out.replies.push((i, first, at, reply));
    }
    Ok(out)
}

/// One `GetReceipt` round trip after a think time drawn uniformly from
/// [0, 1) ms. The random think time samples every phase of the server's
/// idle-connection backoff instead of locking onto one.
fn read_one(conn: &mut Conn, tx: &SealedTx, rng: &mut HmacDrbg) -> Result<(f64, Message), String> {
    std::thread::sleep(Duration::from_micros(rng.gen_range(1000)));
    let t = Instant::now();
    let reply = conn
        .request(&Message::GetReceipt(tx.tx_hash))
        .map_err(io("GetReceipt"))?;
    Ok((t.elapsed().as_secs_f64() * 1e3, reply))
}

/// Run one round on a fresh deployment: set up, drive every transaction
/// through the window, read receipts back, check everything, tear down.
pub fn run_round(
    w: &Workload,
    txs: &[SealedTx],
    probe: &SealedTx,
    senders: &[[u8; 32]],
    dir: &Path,
    seed: u64,
    capture: bool,
) -> Result<Round, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (deployment, setup_s) = stand_up(w, senders, dir, probe)?;
    let entry = deployment.entry();
    let before = snapshot(&deployment.servers[0]);
    let committed: Mutex<Vec<usize>> = Mutex::new(Vec::with_capacity(txs.len()));
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(w.writers);
    let outs: Vec<Result<WriterOut, String>> = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..w.writers)
            .map(|c| {
                let (committed, barrier) = (&committed, &barrier);
                scope.spawn(move || -> Result<WriterOut, String> {
                    let idxs: Vec<usize> = (c..txs.len()).step_by(w.writers).collect();
                    let written = Conn::connect_timeout(entry, REPLY_TIMEOUT)
                        .map_err(io("connect"))
                        .and_then(|mut conn| {
                            write_window(&mut conn, txs, &idxs, w.window, committed)
                                .map(|written| (conn, written))
                        });
                    // Every writer reaches the barrier, failed or not, so
                    // none waits forever.
                    barrier.wait();
                    let (mut conn, written) = written?;
                    let mut reads = Vec::new();
                    if let Reads::After(n) = w.reads {
                        let log = committed.lock().expect("committed log").clone();
                        let mut rng = HmacDrbg::from_u64(seed ^ ((c as u64) << 32));
                        for _ in 0..if log.is_empty() { 0 } else { n } {
                            let i = log[rng.gen_range(log.len() as u64) as usize];
                            let (ms, reply) = read_one(&mut conn, &txs[i], &mut rng)?;
                            reads.push((i, ms, reply));
                        }
                    }
                    Ok(WriterOut { written, reads })
                })
            })
            .collect();
        let reader = (w.reads == Reads::During).then(|| {
            let (committed, done) = (&committed, &done);
            scope.spawn(move || -> Result<Vec<(usize, f64, Message)>, String> {
                let mut conn =
                    Conn::connect_timeout(entry, REPLY_TIMEOUT).map_err(io("connect"))?;
                let mut rng = HmacDrbg::from_u64(seed ^ 0x7265_6164); // "read"
                let mut reads = Vec::new();
                while !done.load(Ordering::SeqCst) {
                    let pick = {
                        let log = committed.lock().expect("committed log");
                        (!log.is_empty()).then(|| log[rng.gen_range(log.len() as u64) as usize])
                    };
                    match pick {
                        Some(i) => {
                            let (ms, reply) = read_one(&mut conn, &txs[i], &mut rng)?;
                            reads.push((i, ms, reply));
                        }
                        None => std::thread::sleep(Duration::from_micros(200)),
                    }
                }
                Ok(reads)
            })
        });
        let mut outs: Vec<Result<WriterOut, String>> = writers
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("writer panicked".into())))
            .collect();
        done.store(true, Ordering::SeqCst);
        if let Some(h) = reader {
            let reads = h.join().unwrap_or_else(|_| Err("reader panicked".into()));
            outs.push(reads.map(|reads| WriterOut {
                written: Written {
                    replies: Vec::new(),
                    busy_retries: 0,
                },
                reads,
            }));
        }
        outs
    });
    let after = snapshot(&deployment.servers[0]);

    let (mut failed, mut broken) = (Vec::new(), Vec::new());
    let mut note = |what: String, bad: Bad| {
        if let Bad::Broken(_) = bad {
            broken.push(format!("{what}: {bad}"));
        }
        failed.push(format!("{what}: {bad}"));
    };
    let mut commit_at = Vec::with_capacity(txs.len());
    let mut read_ms = Vec::new();
    let mut answered = 0usize;
    let mut busy_retries = 0usize;
    let mut attempted = txs.len();
    for out in outs {
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                note("connection".into(), Bad::Broken(e));
                continue;
            }
        };
        answered += out.written.replies.len();
        busy_retries += out.written.busy_retries;
        attempted += out.reads.len();
        for (i, sent, at, reply) in out.written.replies {
            match check_commit(&txs[i], &reply, w.call()) {
                Ok(()) => commit_at.push((i, sent, at)),
                Err(bad) => note(format!("tx {i}"), bad),
            }
        }
        for (i, ms, reply) in out.reads {
            let checked = match reply {
                Message::ReceiptIs(bytes) => {
                    check_receipt(&txs[i], &bytes, w.call()).map_err(Bad::Broken)
                }
                other => Err(Bad::Failed(format!("reply kind {:#04x}", other.kind()))),
            };
            match checked {
                Ok(()) => read_ms.push(ms),
                Err(bad) => note(format!("read of tx {i}"), bad),
            }
        }
    }
    // Transactions a lost connection never answered failed too.
    for _ in answered..txs.len() {
        failed.push("no reply".into());
    }
    let committed_ok = commit_at.len();
    let window_s = match (
        commit_at.iter().map(|(_, s, _)| *s).min(),
        commit_at.iter().map(|(_, _, r)| *r).max(),
    ) {
        (Some(first), Some(last)) => last.duration_since(first).as_secs_f64(),
        _ => f64::NAN,
    };

    broken.extend(gates(w, &deployment));
    let capture = capture.then(|| {
        let node = deployment.servers[0].node().read().expect("node lock");
        Capture {
            blocks: (1..=node.blocks.height())
                .filter_map(|h| node.blocks.get(h).cloned())
                .collect(),
            wal: node.wal_bytes().to_vec(),
            root: node.state_root(),
        }
    });
    deployment.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    Ok(Round {
        setup_s,
        window_s,
        committed: committed_ok,
        commit_at,
        read_ms,
        attempted,
        failed,
        busy_retries,
        broken,
        before,
        after,
        capture,
    })
}

/// Post-round gates: no dedup hit (a hit is a repeated transaction, not
/// a fast commit), and for the cluster, byte-identical roots at one
/// height with no view change.
fn gates(w: &Workload, d: &Deployment) -> Vec<String> {
    let mut failures = Vec::new();
    for (id, s) in d.servers.iter().enumerate() {
        let hits = s.stats().deduped.load(Ordering::Relaxed);
        if hits != 0 {
            failures.push(format!("member {id}: {hits} dedup hits"));
        }
    }
    if w.kind == Kind::Consortium4 {
        let end = Instant::now() + REPLY_TIMEOUT;
        loop {
            let statuses: Result<Vec<_>, _> = d
                .servers
                .iter()
                .map(|s| {
                    Conn::connect_timeout(s.addr(), REPLY_TIMEOUT).and_then(|mut c| c.status())
                })
                .collect();
            let statuses = match statuses {
                Ok(s) => s,
                Err(e) => {
                    failures.push(format!("status: {e}"));
                    break;
                }
            };
            let same = statuses
                .iter()
                .all(|s| s.height == statuses[0].height && s.state_root == statuses[0].state_root);
            if same {
                for s in &statuses {
                    if s.view_changes != 0 {
                        failures.push(format!(
                            "member {}: {} view changes",
                            s.node_id, s.view_changes
                        ));
                    }
                }
                break;
            }
            if Instant::now() > end {
                failures.push(format!(
                    "members never converged: heights {:?}",
                    statuses.iter().map(|s| s.height).collect::<Vec<_>>()
                ));
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    failures
}

/// The seed-derived sender addresses the deployment's genesis authorises.
pub fn sender_addresses(seed: u64) -> Vec<[u8; 32]> {
    gen::senders(seed)
        .iter()
        .map(gen::Sender::address)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use confide_net::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME};

    /// A stand-in node answers `Busy` to the first attempt of every third
    /// transaction and to every attempt of transaction 5, `Committed` to
    /// the rest. Every transaction gets one final reply, transaction 5
    /// gives up after `BUSY_ATTEMPTS`, and no transaction a full window
    /// later than a `Busy` one reaches the node before that one's last
    /// attempt (the order a sender's nonces need).
    #[test]
    fn busy_transactions_are_resubmitted_in_sender_order() {
        const N: usize = 12;
        const WINDOW: usize = 4;
        let txs = gen::seal(
            Call::DemoTransfer([0x42; 32]),
            9,
            N,
            &demo_keys(NODE_SEED).pk_tx(),
            1,
        );
        let hashes: Vec<[u8; 32]> = txs.iter().map(|t| t.wire_hash).collect();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let node = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut arrivals = Vec::new();
            while let Some(msg) = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("frame") {
                let Message::SubmitTxWait(tx) = msg else {
                    panic!("unexpected request {:#04x}", msg.kind());
                };
                let i = hashes
                    .iter()
                    .position(|h| *h == tx.wire_hash())
                    .expect("a known transaction");
                let first = !arrivals.contains(&i);
                arrivals.push(i);
                let reply = if i == 5 || (i % 3 == 0 && first) {
                    Message::Busy
                } else {
                    Message::Committed {
                        sealed: true,
                        receipt: Vec::new(),
                    }
                };
                write_frame(&mut stream, &reply).expect("reply");
            }
            arrivals
        });
        let written = {
            let mut conn = Conn::connect_timeout(addr, REPLY_TIMEOUT).expect("connect");
            let idxs: Vec<usize> = (0..N).collect();
            write_window(&mut conn, &txs, &idxs, WINDOW, &Mutex::new(Vec::new())).expect("window")
        };
        let arrivals = node.join().expect("stand-in node");

        let retried_to_commit = [0, 3, 6, 9].len();
        assert_eq!(
            written.busy_retries,
            retried_to_commit + BUSY_ATTEMPTS as usize - 1
        );
        let mut answered: Vec<usize> = written.replies.iter().map(|r| r.0).collect();
        answered.sort_unstable();
        assert_eq!(answered, (0..N).collect::<Vec<_>>());
        for (i, _, _, reply) in &written.replies {
            assert_eq!(
                matches!(reply, Message::Busy),
                *i == 5,
                "final reply of tx {i}"
            );
        }
        let first = |i: usize| arrivals.iter().position(|&a| a == i).expect("arrived");
        let last = |i: usize| arrivals.iter().rposition(|&a| a == i).expect("arrived");
        for i in 0..N {
            for j in i + WINDOW..N {
                assert!(last(i) < first(j), "tx {j} overtook tx {i}: {arrivals:?}");
            }
        }
    }
}
