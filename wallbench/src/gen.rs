//! The seeded transaction generator.
//!
//! Every input the program receives is derived here from the workload
//! seed: sender identities, user root keys, call arguments and the
//! envelope randomness. The same seed gives byte-identical sealed
//! transactions; two seeds give disjoint senders and so disjoint wire
//! hashes. Sealing runs before the node is stood up, outside both the
//! set-up timer and the timed phase.

use confide_contracts::abs::AbsRequest;
use confide_core::{seal_signed_tx, ConfideClient, WireTx};
use confide_crypto::{sha256, HmacDrbg};

/// Logical senders per workload (each a gateway with its own signing
/// key and root key). A sender's nonces strictly increase, so its
/// transactions must reach the node in order; the workloads keep at
/// most one of a sender's transactions in flight (checked where the
/// workloads are defined), which keeps that order when a transaction is
/// resubmitted after `Busy`.
pub const SENDERS: usize = 512;

/// Recipient accounts the transfer workload spreads its credits over.
const ACCOUNTS: u64 = 4096;

/// What a sealed transaction calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// The demo balance ledger's `main` with `{"to":..,"amount":..}`.
    DemoTransfer([u8; 32]),
    /// The ABS `transfer` with a Flatbuffers-style request (~1 KB).
    AbsTransfer([u8; 32]),
}

/// One sender's seed-derived secrets.
#[derive(Debug, Clone)]
pub struct Sender {
    /// Ed25519 identity seed.
    pub identity: [u8; 32],
    /// User root key `k_tx` derives from.
    pub root_key: [u8; 32],
}

impl Sender {
    /// The sender's on-chain address (its verifying key).
    pub fn address(&self) -> [u8; 32] {
        ConfideClient::new(self.identity, self.root_key, 0).address()
    }
}

/// One pre-sealed transaction plus what the generator keeps to check
/// its receipt.
#[derive(Debug, Clone)]
pub struct SealedTx {
    /// The envelope-sealed transaction as sent.
    pub wire: WireTx,
    /// Hash of the wire bytes (the dedup key).
    pub wire_hash: [u8; 32],
    /// Hash of the inner transaction (names the receipt).
    pub tx_hash: [u8; 32],
    /// One-time receipt key.
    pub k_tx: [u8; 32],
}

fn derive(tag: &str, seed: u64, index: u64) -> [u8; 32] {
    let mut buf = Vec::with_capacity(tag.len() + 16);
    buf.extend_from_slice(tag.as_bytes());
    buf.extend_from_slice(&seed.to_le_bytes());
    buf.extend_from_slice(&index.to_le_bytes());
    sha256(&buf)
}

/// The workload's senders for `seed`.
pub fn senders(seed: u64) -> Vec<Sender> {
    (0..SENDERS as u64)
        .map(|j| Sender {
            identity: derive("wallbench/identity|", seed, j),
            root_key: derive("wallbench/root-key|", seed, j),
        })
        .collect()
}

/// Seal `n` transactions for `call` under `pk_tx`. Transaction `i`
/// belongs to sender `i % SENDERS`; the senders seal on up to
/// `threads` threads, and the result does not depend on `threads`.
pub fn seal(call: Call, seed: u64, n: usize, pk_tx: &[u8; 32], threads: usize) -> Vec<SealedTx> {
    let senders = senders(seed);
    let threads = threads.clamp(1, SENDERS);
    let per_sender: Vec<Vec<SealedTx>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let senders = &senders;
                scope.spawn(move || {
                    (t..SENDERS)
                        .step_by(threads)
                        .map(|j| {
                            let count = n / SENDERS + usize::from(j < n % SENDERS);
                            (j, seal_sender(call, seed, j, &senders[j], count, pk_tx))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<(usize, Vec<SealedTx>)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("sealing thread panicked"))
            .collect();
        all.sort_by_key(|(j, _)| *j);
        all.into_iter().map(|(_, txs)| txs).collect()
    });
    let mut iters: Vec<_> = per_sender.into_iter().map(Vec::into_iter).collect();
    (0..n)
        .map(|i| iters[i % SENDERS].next().expect("sender has its share"))
        .collect()
}

fn seal_sender(
    call: Call,
    seed: u64,
    j: usize,
    sender: &Sender,
    count: usize,
    pk_tx: &[u8; 32],
) -> Vec<SealedTx> {
    let rng_seed = u64::from_le_bytes(
        derive("wallbench/client|", seed, j as u64)[..8]
            .try_into()
            .expect("8 bytes"),
    );
    let mut client = ConfideClient::new(sender.identity, sender.root_key, rng_seed);
    let mut args_rng = HmacDrbg::new(&derive("wallbench/args|", seed, j as u64));
    let mut env_rng = HmacDrbg::new(&derive("wallbench/envelope|", seed, j as u64));
    (0..count)
        .map(|_| {
            let signed = match call {
                Call::DemoTransfer(contract) => {
                    let to = args_rng.gen_range(ACCOUNTS);
                    let amount = 1 + args_rng.gen_range(97);
                    let args = format!(r#"{{"to":"acct{to}","amount":{amount}}}"#);
                    client.build_raw(contract, "main", args.as_bytes())
                }
                Call::AbsTransfer(contract) => {
                    let req = AbsRequest::random(&mut args_rng);
                    client.build_raw(contract, "transfer", &req.to_fb())
                }
            };
            let (wire, tx_hash, k_tx) =
                seal_signed_tx(&signed, &sender.root_key, pk_tx, &mut env_rng)
                    .expect("sealing to a valid pk_tx succeeds");
            SealedTx {
                wire_hash: wire.wire_hash(),
                wire,
                tx_hash,
                k_tx,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn pk() -> [u8; 32] {
        confide_net::demo::demo_keys(3).pk_tx()
    }

    #[test]
    fn same_seed_gives_byte_identical_sealed_txs() {
        let call = Call::DemoTransfer([0x42; 32]);
        let a = seal(call, 11, 20, &pk(), 1);
        let b = seal(call, 11, 20, &pk(), 3);
        assert_eq!(a.len(), 20);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.wire.encode(), y.wire.encode());
            assert_eq!(x.k_tx, y.k_tx);
        }
        let abs = Call::AbsTransfer([0xAB; 32]);
        let a = seal(abs, 5, 9, &pk(), 2);
        let b = seal(abs, 5, 9, &pk(), 1);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.wire.encode() == y.wire.encode()));
    }

    #[test]
    fn different_seeds_share_no_wire_hash() {
        let call = Call::DemoTransfer([0x42; 32]);
        let mut seen = HashSet::new();
        for seed in [1u64, 2, 3] {
            for tx in seal(call, seed, 40, &pk(), 2) {
                assert!(seen.insert(tx.wire_hash), "wire hash repeated");
                assert!(seen.insert(tx.tx_hash), "tx hash repeated");
            }
        }
        let a: HashSet<[u8; 32]> = senders(1).iter().map(Sender::address).collect();
        assert!(senders(2).iter().all(|s| !a.contains(&s.address())));
    }

    #[test]
    fn sealed_txs_open_under_the_node_key() {
        let keys = confide_net::demo::demo_keys(3);
        for tx in seal(Call::DemoTransfer([0x42; 32]), 4, 3, &keys.pk_tx(), 1) {
            let WireTx::Confidential(env) = &tx.wire else {
                panic!("workload transactions are confidential");
            };
            assert!(env.open(&keys.envelope, b"").is_ok());
        }
    }
}
