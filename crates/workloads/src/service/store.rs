//! Sharded transactional KV/booking store with exact cross-shard conservation.
//!
//! One [`TmRuntime`] per shard; keys are partitioned round-robin
//! (`shard = key % n_shards`). Intra-shard operations are single ordinary
//! transactions. Cross-shard money movement cannot be one transaction —
//! that is precisely what [`TmError::ForeignTVar`] refuses — so it runs as
//! a typed **four-phase escrow protocol**, each phase a single-shard
//! transaction:
//!
//! 1. **prepare** @ source: debit the account and append a
//!    [`TransferEntry`] to the shard's `outbox`;
//! 2. **apply** @ destination: credit the account and record the transfer
//!    id in the shard's `applied` set;
//! 3. **ack** @ source: remove the outbox entry;
//! 4. **gc** @ destination: forget the applied id.
//!
//! The escrow invariant holds **exactly** in every inter-phase state:
//!
//! ```text
//! Σ balances  +  Σ { e.amount : e ∈ outbox(s), e.id ∉ applied(e.dst) }  ==  TOTAL
//! ```
//!
//! (after `prepare`, the debit is balanced by the outbox term; after
//! `apply`, the credit lands but `applied` cancels the outbox term; `ack`
//! and `gc` remove both sides of an already-cancelled pair.)
//!
//! The audit still cannot just read shard snapshots one by one: a transfer
//! whose `ack`+`gc` complete *between* the audit's visit to the source and
//! its visit to the destination would be double-counted (outbox entry seen
//! at the source, `applied` id already gone at the destination). So
//! [`ShardedStore::audit_conservation`] is a distributed snapshot: it
//! first commits a `frozen` bump on every shard, then snapshots, then
//! unfreezes. Every protocol phase reads `frozen` and retries while it is
//! set, so TL2 commit validation guarantees no phase commits between any
//! two snapshot reads — a phase that read `frozen == 0` before the freeze
//! committed fails validation and re-runs (then parks on the `frozen`
//! stripe until the audit ends).
//!
//! The booking flow reserves capacity on **two** shards. The first unit
//! comes from whichever shard frees up first via the cross-runtime
//! [`retry_select_deadline`]; the second leg waits with the remaining
//! deadline and **compensates** (releases the first hold) on timeout, so
//! bookings never deadlock and per-shard `capacity + held == CAP` holds in
//! every state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use shrink_stm::{retry_select_deadline, SelectArm, TVar, TmError, TmRuntime};

/// An in-flight cross-shard transfer recorded in a source shard's outbox.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransferEntry {
    /// Process-unique transfer id (allocated from a global counter).
    pub id: u64,
    /// Destination shard index.
    pub dst_shard: usize,
    /// Destination account index within the destination shard.
    pub dst_account: usize,
    /// Amount being moved (debited at prepare, credited at apply).
    pub amount: i64,
}

/// Outcome of a two-shard booking attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BookingOutcome {
    /// Both capacity units were reserved (and released at checkout).
    Confirmed,
    /// The deadline passed before both units could be held; any partial
    /// hold was compensated.
    Declined,
}

/// One account: a balance moved only by transfers, and a metadata word
/// bumped by updates — so read-modify-write contention on hot keys never
/// disturbs conservation.
#[derive(Debug)]
struct Account {
    balance: TVar<i64>,
    meta: TVar<u64>,
}

/// One shard: a private runtime plus its slice of the keyspace.
#[derive(Debug)]
struct Shard {
    rt: TmRuntime,
    accounts: Vec<Account>,
    /// Transfers prepared here and not yet acked.
    outbox: TVar<Vec<TransferEntry>>,
    /// Ids applied here and not yet garbage-collected.
    applied: TVar<Vec<u64>>,
    /// Audit gate: >0 while a distributed snapshot is in progress. Every
    /// transfer phase reads this first and retries while set.
    frozen: TVar<i32>,
    /// Remaining booking capacity; `capacity + held == CAP` always.
    capacity: TVar<i64>,
    held: TVar<i64>,
    confirmed: TVar<u64>,
}

/// A sharded transactional store: `n` independent [`TmRuntime`]s, each
/// owning `accounts_per_shard` accounts and a booking capacity pool.
///
/// See the [module docs](self) for the cross-shard transfer protocol and
/// the freeze-gated conservation audit.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Shard>,
    accounts_per_shard: usize,
    initial_balance: i64,
    booking_capacity: i64,
    next_transfer_id: AtomicU64,
    /// Spin iterations executed *inside* each transactional body — the
    /// request's service work. Widens the conflict window, so aborted
    /// attempts waste real work (the paper's overload cost).
    tx_work: u32,
}

impl ShardedStore {
    /// Builds a store with `n_shards` shards of `accounts_per_shard`
    /// accounts, every balance starting at `initial_balance` and every
    /// shard holding `booking_capacity` booking units. `make_runtime` is
    /// called once per shard so callers choose backend, wait policy and
    /// scheduler (this crate stays scheduler-agnostic).
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` or `accounts_per_shard` is zero.
    pub fn new(
        n_shards: usize,
        accounts_per_shard: usize,
        initial_balance: i64,
        booking_capacity: i64,
        mut make_runtime: impl FnMut(usize) -> TmRuntime,
    ) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        assert!(
            accounts_per_shard > 0,
            "need at least one account per shard"
        );
        let shards = (0..n_shards)
            .map(|s| Shard {
                rt: make_runtime(s),
                accounts: (0..accounts_per_shard)
                    .map(|_| Account {
                        balance: TVar::new(initial_balance),
                        meta: TVar::new(0),
                    })
                    .collect(),
                outbox: TVar::new(Vec::new()),
                applied: TVar::new(Vec::new()),
                frozen: TVar::new(0),
                capacity: TVar::new(booking_capacity),
                held: TVar::new(0),
                confirmed: TVar::new(0),
            })
            .collect();
        ShardedStore {
            shards,
            accounts_per_shard,
            initial_balance,
            booking_capacity,
            next_transfer_id: AtomicU64::new(1),
            tx_work: 0,
        }
    }

    /// Sets the per-transaction service work (spin iterations inside each
    /// body; 0 = bare protocol). Call before sharing the store.
    pub fn set_tx_work(&mut self, iters: u32) {
        self.tx_work = iters;
    }

    /// Burns `iters` loop iterations — the simulated per-request service
    /// work. Placed inside transaction bodies so an aborted attempt
    /// re-pays it, exactly like recomputing a response.
    fn spin(iters: u32) {
        for i in 0..iters {
            std::hint::black_box(i);
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of keys (`n_shards * accounts_per_shard`).
    pub fn n_keys(&self) -> usize {
        self.shards.len() * self.accounts_per_shard
    }

    /// The invariant total the conservation audit must reproduce.
    pub fn expected_total(&self) -> i64 {
        self.n_keys() as i64 * self.initial_balance
    }

    /// Maps a key to `(shard, account)` — round-robin partitioning.
    pub fn locate(&self, key: usize) -> (usize, usize) {
        let shard = key % self.shards.len();
        let account = (key / self.shards.len()) % self.accounts_per_shard;
        (shard, account)
    }

    /// The runtime owning `shard` (for tests and diagnostics).
    pub fn runtime(&self, shard: usize) -> &TmRuntime {
        &self.shards[shard].rt
    }

    /// Reads a key's `(balance, meta)` with a lock-free read-only
    /// transaction on its shard.
    pub fn read_key(&self, key: usize) -> (i64, u64) {
        let (s, a) = self.locate(key);
        let acct = &self.shards[s].accounts[a];
        let work = self.tx_work / 2;
        self.shards[s].rt.read_only(|tx| {
            let b = tx.read(&acct.balance)?;
            let m = tx.read(&acct.meta)?;
            Self::spin(work);
            Ok((b, m))
        })
    }

    /// Bumps a key's metadata word (a read-modify-write on the hot
    /// stripe — the update-contention workload). Conservation-neutral.
    pub fn update_key(&self, key: usize) {
        let (s, a) = self.locate(key);
        let acct = &self.shards[s].accounts[a];
        let work = self.tx_work;
        self.shards[s].rt.run(|tx| {
            let m = tx.read(&acct.meta)?;
            Self::spin(work); // conflict window: hot stripe held open
            tx.write(&acct.meta, m.wrapping_add(1))
        });
    }

    /// Moves `amount` from `from_key` to `to_key`. Same-shard transfers
    /// are one transaction; cross-shard transfers run the four-phase
    /// escrow protocol described in the [module docs](self). Balances may
    /// go negative (no overdraft gate) so transfers never block on funds.
    pub fn transfer(&self, from_key: usize, to_key: usize, amount: i64) {
        let (sf, af) = self.locate(from_key);
        let (st, at) = self.locate(to_key);
        if sf == st {
            if af == at {
                return; // self-transfer: debit and credit cancel exactly
            }
            let shard = &self.shards[sf];
            let from = &shard.accounts[af];
            let to = &shard.accounts[at];
            let work = self.tx_work;
            shard.rt.run(|tx| {
                tx.modify(&from.balance, |b| b - amount)?;
                Self::spin(work);
                tx.modify(&to.balance, |b| b + amount)
            });
            return;
        }
        let id = self.next_transfer_id.fetch_add(1, Ordering::Relaxed);
        let src = &self.shards[sf];
        let dst = &self.shards[st];
        let entry = TransferEntry {
            id,
            dst_shard: st,
            dst_account: at,
            amount,
        };
        let work = self.tx_work / 4;
        // Phase 1 — prepare @ source: debit into escrow.
        src.rt.run(|tx| {
            if tx.read(&src.frozen)? > 0 {
                return tx.retry();
            }
            tx.modify(&src.accounts[af].balance, |b| b - amount)?;
            Self::spin(work);
            tx.modify(&src.outbox, |mut ob| {
                ob.push(entry.clone());
                ob
            })
        });
        // Phase 2 — apply @ destination: credit and mark applied.
        dst.rt.run(|tx| {
            if tx.read(&dst.frozen)? > 0 {
                return tx.retry();
            }
            tx.modify(&dst.accounts[at].balance, |b| b + amount)?;
            Self::spin(work);
            tx.modify(&dst.applied, |mut ap| {
                ap.push(id);
                ap
            })
        });
        // Phase 3 — ack @ source: retire the outbox entry.
        src.rt.run(|tx| {
            if tx.read(&src.frozen)? > 0 {
                return tx.retry();
            }
            Self::spin(work);
            tx.modify(&src.outbox, |mut ob| {
                ob.retain(|e| e.id != id);
                ob
            })
        });
        // Phase 4 — gc @ destination: forget the applied id.
        dst.rt.run(|tx| {
            if tx.read(&dst.frozen)? > 0 {
                return tx.retry();
            }
            Self::spin(work);
            tx.modify(&dst.applied, |mut ap| {
                ap.retain(|&i| i != id);
                ap
            })
        });
    }

    /// Runs only the first `phases` phases (1..=4) of a cross-shard
    /// transfer and returns the transfer id — a deliberately stranded
    /// protocol state for invariant tests. `from_key` and `to_key` must
    /// map to different shards.
    ///
    /// # Panics
    ///
    /// Panics if the keys share a shard or `phases` is not in `1..=4`.
    pub fn transfer_phases(
        &self,
        from_key: usize,
        to_key: usize,
        amount: i64,
        phases: usize,
    ) -> u64 {
        assert!((1..=4).contains(&phases), "phases must be 1..=4");
        let (sf, af) = self.locate(from_key);
        let (st, at) = self.locate(to_key);
        assert_ne!(sf, st, "transfer_phases needs two distinct shards");
        let id = self.next_transfer_id.fetch_add(1, Ordering::Relaxed);
        let src = &self.shards[sf];
        let dst = &self.shards[st];
        let entry = TransferEntry {
            id,
            dst_shard: st,
            dst_account: at,
            amount,
        };
        src.rt.run(|tx| {
            if tx.read(&src.frozen)? > 0 {
                return tx.retry();
            }
            tx.modify(&src.accounts[af].balance, |b| b - amount)?;
            tx.modify(&src.outbox, |mut ob| {
                ob.push(entry.clone());
                ob
            })
        });
        if phases >= 2 {
            dst.rt.run(|tx| {
                if tx.read(&dst.frozen)? > 0 {
                    return tx.retry();
                }
                tx.modify(&dst.accounts[at].balance, |b| b + amount)?;
                tx.modify(&dst.applied, |mut ap| {
                    ap.push(id);
                    ap
                })
            });
        }
        if phases >= 3 {
            src.rt.run(|tx| {
                if tx.read(&src.frozen)? > 0 {
                    return tx.retry();
                }
                tx.modify(&src.outbox, |mut ob| {
                    ob.retain(|e| e.id != id);
                    ob
                })
            });
        }
        if phases >= 4 {
            dst.rt.run(|tx| {
                if tx.read(&dst.frozen)? > 0 {
                    return tx.retry();
                }
                tx.modify(&dst.applied, |mut ap| {
                    ap.retain(|&i| i != id);
                    ap
                })
            });
        }
        id
    }

    /// Takes a **distributed snapshot** and returns the global escrow sum
    /// (Σ balances + un-applied in-flight transfers). Equals
    /// [`expected_total`](Self::expected_total) in every reachable state.
    ///
    /// Freeze-gated: commits a `frozen` bump on every shard before
    /// snapshotting and unfreezes after, so no transfer phase can commit
    /// between any two snapshot reads (TL2 validation fails any phase that
    /// read `frozen == 0` before the freeze committed). Safe to run
    /// mid-flight from any thread, including concurrently with transfers.
    pub fn audit_conservation(&self) -> i64 {
        for s in &self.shards {
            s.rt.run(|tx| tx.modify(&s.frozen, |f| f + 1));
        }
        let snaps: Vec<(i64, Vec<TransferEntry>, Vec<u64>)> = self
            .shards
            .iter()
            .map(|s| {
                s.rt.read_only(|tx| {
                    let mut sum = 0i64;
                    for a in &s.accounts {
                        sum += tx.read(&a.balance)?;
                    }
                    Ok((sum, tx.read(&s.outbox)?, tx.read(&s.applied)?))
                })
            })
            .collect();
        let mut total: i64 = snaps.iter().map(|(b, _, _)| *b).sum();
        for (_, outbox, _) in &snaps {
            for e in outbox {
                if !snaps[e.dst_shard].2.contains(&e.id) {
                    total += e.amount;
                }
            }
        }
        for s in self.shards.iter().rev() {
            s.rt.run(|tx| tx.modify(&s.frozen, |f| f - 1));
        }
        total
    }

    /// Sum of all outbox lengths — approximate in-flight transfer count
    /// (unfrozen, diagnostics only).
    pub fn pending_transfers(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.rt.read_only(|tx| Ok(tx.read(&s.outbox)?.len())))
            .sum()
    }

    /// Books one capacity unit on **each** of the two shards owning
    /// `first_key` and `second_key` (a two-resource itinerary — flight
    /// shard + hotel shard). The first unit comes from whichever shard
    /// frees up first ([`retry_select_deadline`] parks one parker across
    /// both runtimes' waitlists); the second leg uses the remaining
    /// deadline and compensates on timeout. Holds are released at
    /// checkout, so capacity is conserved and `Confirmed` means both units
    /// were simultaneously held.
    pub fn book(&self, first_key: usize, second_key: usize, deadline: Instant) -> BookingOutcome {
        let (s1, _) = self.locate(first_key);
        let (s2, _) = self.locate(second_key);
        if s1 == s2 {
            return self.book_same_shard(s1, deadline);
        }
        let winner = {
            let mut arms = [
                SelectArm::new(&self.shards[s1].rt, Self::reserve(&self.shards[s1])),
                SelectArm::new(&self.shards[s2].rt, Self::reserve(&self.shards[s2])),
            ];
            match retry_select_deadline(&mut arms, deadline) {
                Ok((idx, ())) => idx,
                Err(TmError::RetryTimeout { .. }) => return BookingOutcome::Declined,
                Err(err) => panic!("booking select failed: {err}"),
            }
        };
        let (won, other) = if winner == 0 { (s1, s2) } else { (s2, s1) };
        let second = self.shards[other]
            .rt
            .run_with_deadline(deadline, Self::reserve(&self.shards[other]));
        match second {
            Ok(()) => {
                self.release(won, 1);
                self.release(other, 1);
                self.shards[won]
                    .rt
                    .run(|tx| tx.modify(&self.shards[won].confirmed, |c| c + 1));
                BookingOutcome::Confirmed
            }
            Err(TmError::RetryTimeout { .. }) => {
                // Compensate: give back the first hold so capacity is
                // conserved and other bookers stop waiting on us.
                self.release(won, 1);
                BookingOutcome::Declined
            }
            Err(err) => panic!("booking second leg failed: {err}"),
        }
    }

    /// Non-blocking booking probe on one shard: reserves and immediately
    /// releases a unit if capacity is free, declines otherwise
    /// (`or_else` — the fallback branch fires instead of parking).
    pub fn try_book_one(&self, key: usize) -> BookingOutcome {
        let (s, _) = self.locate(key);
        let shard = &self.shards[s];
        let got = shard.rt.run(|tx| {
            tx.or_else(
                |tx| {
                    let cap = tx.read(&shard.capacity)?;
                    if cap == 0 {
                        return tx.retry();
                    }
                    tx.write(&shard.capacity, cap - 1)?;
                    tx.modify(&shard.held, |h| h + 1)?;
                    Ok(true)
                },
                |_tx| Ok(false),
            )
        });
        if got {
            self.release(s, 1);
            shard.rt.run(|tx| tx.modify(&shard.confirmed, |c| c + 1));
            BookingOutcome::Confirmed
        } else {
            BookingOutcome::Declined
        }
    }

    fn book_same_shard(&self, s: usize, deadline: Instant) -> BookingOutcome {
        let shard = &self.shards[s];
        let got = shard.rt.run_with_deadline(deadline, |tx| {
            let cap = tx.read(&shard.capacity)?;
            if cap < 2 {
                return tx.retry();
            }
            tx.write(&shard.capacity, cap - 2)?;
            tx.modify(&shard.held, |h| h + 2)
        });
        match got {
            Ok(()) => {
                self.release(s, 2);
                shard.rt.run(|tx| tx.modify(&shard.confirmed, |c| c + 1));
                BookingOutcome::Confirmed
            }
            Err(TmError::RetryTimeout { .. }) => BookingOutcome::Declined,
            Err(err) => panic!("same-shard booking failed: {err}"),
        }
    }

    /// The one-unit reserve body used by both booking legs: park while
    /// the shard is out of capacity, otherwise move one unit to `held`.
    fn reserve(
        shard: &Shard,
    ) -> impl FnMut(&mut shrink_stm::Tx<'_>) -> shrink_stm::TxResult<()> + '_ {
        move |tx| {
            let cap = tx.read(&shard.capacity)?;
            if cap == 0 {
                return tx.retry();
            }
            tx.write(&shard.capacity, cap - 1)?;
            tx.modify(&shard.held, |h| h + 1)
        }
    }

    fn release(&self, s: usize, n: i64) {
        let shard = &self.shards[s];
        shard.rt.run(|tx| {
            tx.modify(&shard.capacity, |c| c + n)?;
            tx.modify(&shard.held, |h| h - n)
        });
    }

    /// Moves every remaining capacity unit on every shard into `held` and
    /// returns how many units were taken — a test fixture for forcing
    /// subsequent bookings to park.
    pub fn hold_all_capacity(&self) -> i64 {
        let mut taken = 0;
        for s in &self.shards {
            taken += s.rt.run(|tx| {
                let cap = tx.read(&s.capacity)?;
                tx.write(&s.capacity, 0)?;
                tx.modify(&s.held, |h| h + cap)?;
                Ok(cap)
            });
        }
        taken
    }

    /// Returns every held unit to capacity (undoes
    /// [`hold_all_capacity`](Self::hold_all_capacity)).
    pub fn release_all_holds(&self) {
        for s in &self.shards {
            s.rt.run(|tx| {
                let held = tx.read(&s.held)?;
                tx.write(&s.held, 0)?;
                tx.modify(&s.capacity, |c| c + held)
            });
        }
    }

    /// Asserts the per-shard booking invariant `capacity + held == CAP`
    /// on every shard and returns the total confirmed-booking count.
    pub fn audit_bookings(&self) -> u64 {
        let mut confirmed = 0;
        for (i, s) in self.shards.iter().enumerate() {
            let (cap, held, done) = s.rt.read_only(|tx| {
                Ok((
                    tx.read(&s.capacity)?,
                    tx.read(&s.held)?,
                    tx.read(&s.confirmed)?,
                ))
            });
            assert_eq!(
                cap + held,
                self.booking_capacity,
                "shard {i}: capacity {cap} + held {held} != CAP {}",
                self.booking_capacity
            );
            confirmed += done;
        }
        confirmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Arc;
    use std::time::Duration;

    fn store(shards: usize, accounts: usize) -> ShardedStore {
        ShardedStore::new(shards, accounts, 100, 2, |_| TmRuntime::new())
    }

    #[test]
    fn partitioning_is_round_robin_and_total_matches() {
        let st = store(4, 8);
        assert_eq!(st.n_keys(), 32);
        assert_eq!(st.expected_total(), 3200);
        for key in 0..st.n_keys() {
            let (s, a) = st.locate(key);
            assert_eq!(s, key % 4);
            assert_eq!(a, key / 4);
        }
        assert_eq!(st.read_key(5), (100, 0));
        st.update_key(5);
        assert_eq!(st.read_key(5), (100, 1));
        assert_eq!(st.audit_conservation(), 3200);
    }

    #[test]
    fn same_shard_transfer_is_one_transaction() {
        let st = store(2, 4);
        st.transfer(0, 2, 30); // keys 0 and 2 both live on shard 0
        assert_eq!(st.read_key(0).0, 70);
        assert_eq!(st.read_key(2).0, 130);
        st.transfer(0, 0, 10); // self-transfer is a no-op on the balance
        assert_eq!(st.read_key(0).0, 70);
        assert_eq!(st.audit_conservation(), st.expected_total());
    }

    #[test]
    fn escrow_invariant_holds_in_every_inter_phase_state() {
        for phases in 1..=4 {
            let st = store(3, 2);
            st.transfer_phases(0, 1, 25, phases);
            assert_eq!(
                st.audit_conservation(),
                st.expected_total(),
                "conservation broke after {phases} phase(s)"
            );
            let (src_bal, dst_bal) = (st.read_key(0).0, st.read_key(1).0);
            assert_eq!(src_bal, 75, "debit lands at phase 1");
            if phases >= 2 {
                assert_eq!(dst_bal, 125, "credit lands at phase 2");
            } else {
                assert_eq!(dst_bal, 100, "credit still in escrow");
            }
            assert_eq!(st.pending_transfers(), usize::from(phases < 3));
        }
    }

    #[test]
    fn audit_is_exact_under_concurrent_cross_shard_transfers() {
        let st = Arc::new(store(4, 4));
        let stop = Arc::new(AtomicBool::new(false));
        let progress = Arc::new(AtomicUsize::new(0));
        let movers: Vec<_> = (0..4)
            .map(|t| {
                let st = Arc::clone(&st);
                let stop = Arc::clone(&stop);
                let progress = Arc::clone(&progress);
                std::thread::spawn(move || {
                    let mut i = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let from = (t * 5 + i) % st.n_keys();
                        let to = (from + 1 + t) % st.n_keys();
                        st.transfer(from, to, 3);
                        progress.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                    i
                })
            })
            .collect();
        // Audit mid-flight from this thread until the movers have pushed
        // enough transfers through that audits demonstrably interleaved
        // with live protocol phases.
        let mut audits = 0usize;
        while progress.load(Ordering::Relaxed) < 200 || audits < 20 {
            assert_eq!(st.audit_conservation(), st.expected_total());
            audits += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let moved: usize = movers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(moved > 0, "movers made no progress");
        assert_eq!(st.audit_conservation(), st.expected_total());
        assert_eq!(st.pending_transfers(), 0);
    }

    #[test]
    fn booking_two_shards_confirms_and_conserves_capacity() {
        let st = store(2, 2);
        let deadline = Instant::now() + Duration::from_secs(2);
        assert_eq!(st.book(0, 1, deadline), BookingOutcome::Confirmed);
        assert_eq!(st.book(0, 3, deadline), BookingOutcome::Confirmed); // same pair of shards
        assert_eq!(st.book(0, 2, deadline), BookingOutcome::Confirmed); // same shard twice
        assert_eq!(st.audit_bookings(), 3);
        assert_eq!(st.try_book_one(1), BookingOutcome::Confirmed);
        assert_eq!(st.audit_bookings(), 4);
    }

    #[test]
    fn booking_declines_on_deadline_and_compensates() {
        let st = Arc::new(store(2, 2));
        // Exhaust shard 1's capacity with raw holds so the second leg of a
        // (shard 0, shard 1) booking can never complete.
        let shard1 = &st.shards[1];
        shard1.rt.run(|tx| {
            let cap = tx.read(&shard1.capacity)?;
            tx.write(&shard1.capacity, 0)?;
            tx.modify(&shard1.held, |h| h + cap)
        });
        let deadline = Instant::now() + Duration::from_millis(100);
        assert_eq!(st.book(0, 1, deadline), BookingOutcome::Declined);
        // Compensation returned the shard-0 hold.
        let shard0 = &st.shards[0];
        let (cap0, held0) = shard0
            .rt
            .read_only(|tx| Ok((tx.read(&shard0.capacity)?, tx.read(&shard0.held)?)));
        assert_eq!((cap0, held0), (2, 0));
        assert_eq!(st.try_book_one(1), BookingOutcome::Declined);
        // Give capacity back and confirm the path recovers.
        shard1.rt.run(|tx| {
            let held = tx.read(&shard1.held)?;
            tx.write(&shard1.held, 0)?;
            tx.modify(&shard1.capacity, |c| c + held)
        });
        let deadline = Instant::now() + Duration::from_secs(2);
        assert_eq!(st.book(0, 1, deadline), BookingOutcome::Confirmed);
        assert_eq!(st.audit_bookings(), 1);
    }

    #[test]
    fn parked_booking_wakes_when_capacity_frees() {
        let st = Arc::new(ShardedStore::new(2, 2, 100, 1, |_| TmRuntime::new()));
        // Hold the only unit on both shards so a booker must park.
        let hold = |s: usize| {
            let shard = &st.shards[s];
            shard.rt.run(|tx| {
                tx.write(&shard.capacity, 0)?;
                tx.modify(&shard.held, |h| h + 1)
            });
        };
        hold(0);
        hold(1);
        let booker = {
            let st = Arc::clone(&st);
            std::thread::spawn(move || st.book(0, 1, Instant::now() + Duration::from_secs(10)))
        };
        // Wait until the booker is parked across both runtimes, then free
        // capacity one shard at a time.
        while st.runtime(0).retry_waiters() == 0 || st.runtime(1).retry_waiters() == 0 {
            std::thread::yield_now();
        }
        for s in [0, 1] {
            let shard = &st.shards[s];
            shard.rt.run(|tx| {
                tx.write(&shard.capacity, 1)?;
                tx.modify(&shard.held, |h| h - 1)
            });
        }
        assert_eq!(booker.join().unwrap(), BookingOutcome::Confirmed);
        assert_eq!(st.audit_bookings(), 1);
    }
}
