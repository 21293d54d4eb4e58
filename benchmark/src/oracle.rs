//! The correctness oracle: what must hold of the two delivered streams.
//!
//! 1. Per client the stream is gap-free, duplicate-free and in step order.
//! 2. Every sample id is delivered once in the whole run — which also
//!    makes the two DP buckets of a step disjoint.
//! 3. A client always receives the same bucket, and the two clients
//!    different ones.
//! 4. The content digest (step, sample ids, payload bytes) of each of the
//!    first [`DIGEST_STEPS`] deliveries equals the inline replica's for the
//!    same seed. `image_tcp` and `image_local` share inputs, so both equal
//!    the same replica and therefore each other; `stream_digest` is printed
//!    so `run.sh` can compare the two runs directly as well.
//!
//! A violated rule counts every affected delivery as failed.

use msd_core::constructor::ConstructedBatch;

use crate::session::ClientLog;
use crate::workload::DIGEST_STEPS;

/// Folds `word` into a running 64-bit hash (multiply–xorshift: a word at a
/// time, because the digest walks whole payloads).
fn fold(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 29)
}

/// Content digest of one delivered batch: the step, then every sample id
/// with its payload length and bytes, in delivery order.
pub fn digest_batch(step: u64, batch: &ConstructedBatch) -> u64 {
    let mut h = fold(0x6D73_645F_6F72_6163, step);
    for mb in &batch.microbatches {
        for (id, payload) in &mb.payloads {
            h = fold(fold(h, *id), payload.len() as u64);
            let mut words = payload.chunks_exact(8);
            for w in &mut words {
                h = fold(h, u64::from_le_bytes(w.try_into().expect("chunk of 8")));
            }
            for b in words.remainder() {
                h = fold(h, u64::from(*b));
            }
        }
    }
    h
}

/// The oracle's findings for one session.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Deliveries that should have happened: steps × clients.
    pub attempted: u64,
    /// Deliveries missing, duplicated, out of order, timed out, carrying an
    /// id seen elsewhere, on the wrong bucket, or failing the digest.
    pub failed: u64,
    /// One line per violated rule (first offender), for the operator.
    pub notes: Vec<String>,
    /// Fold of the digested deliveries, ordered by bucket then step.
    pub stream_digest: u64,
}

impl Verdict {
    /// No delivery failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Judges the logs of a `steps`-step session. `reference[bucket][step]` is
/// the inline replica's digest of that batch.
pub fn judge(logs: &[ClientLog], steps: u64, reference: &[Vec<u64>]) -> Verdict {
    let mut bad: Vec<Vec<bool>> = logs.iter().map(|_| vec![false; steps as usize]).collect();
    let mut notes = Vec::new();
    let mut note = |bad_cell: &mut bool, text: String| {
        if notes.len() < 8 && !*bad_cell {
            notes.push(text);
        }
        *bad_cell = true;
    };

    for (c, log) in logs.iter().enumerate() {
        // Rule 1: delivery `i` is step `i`; what never came is missing.
        for (i, cell) in bad[c].iter_mut().enumerate() {
            match log.steps.get(i) {
                Some(&s) if s == i as u64 => {}
                Some(&s) => note(cell, format!("client {c}: delivery {i} is step {s}")),
                None => note(cell, format!("client {c}: step {i} never arrived")),
            }
        }
        // Rule 3a: one bucket per client. An empty batch fails too: every
        // bucket of every step is scheduled samples.
        let home = log.buckets.first().copied();
        for (i, b) in log.buckets.iter().enumerate().take(steps as usize) {
            if Some(*b) != home {
                note(
                    &mut bad[c][i],
                    format!("client {c}: step {i} came from bucket {b}"),
                );
            }
            if log.ids_of(i).is_empty() {
                note(&mut bad[c][i], format!("client {c}: step {i} is empty"));
            }
        }
        // Rule 4: content equals the replica's.
        for (i, d) in log.digests.iter().enumerate() {
            let want = home
                .and_then(|b| reference.get(b as usize))
                .and_then(|per_step| per_step.get(i));
            if want != Some(d) && i < steps as usize {
                note(
                    &mut bad[c][i],
                    format!("client {c}: step {i} differs from the replica"),
                );
            }
        }
    }
    // Rule 3b: the clients hold different buckets.
    let homes: Vec<Option<u32>> = logs.iter().map(|l| l.buckets.first().copied()).collect();
    for c in 1..logs.len() {
        if homes[c].is_some() && homes[..c].contains(&homes[c]) {
            for cell in bad[c].iter_mut().take(logs[c].buckets.len()) {
                note(cell, format!("client {c} shares bucket {:?}", homes[c]));
            }
        }
    }
    // Rule 2: ids unique across the run. Sort (id, client, delivery) and
    // fail both holders of every repeated id.
    let mut seen: Vec<(u64, u32, u32)> = Vec::with_capacity(logs.iter().map(|l| l.ids.len()).sum());
    for (c, log) in logs.iter().enumerate() {
        for i in 0..log.id_ends.len().min(steps as usize) {
            seen.extend(log.ids_of(i).iter().map(|id| (*id, c as u32, i as u32)));
        }
    }
    seen.sort_unstable();
    for pair in seen.windows(2) {
        if pair[0].0 == pair[1].0 {
            for (id, c, i) in pair {
                let text = format!("sample {id:#x} delivered twice (client {c}, step {i})");
                note(&mut bad[*c as usize][*i as usize], text);
            }
        }
    }

    let mut order: Vec<usize> = (0..logs.len()).collect();
    order.sort_by_key(|&c| homes[c]);
    let stream_digest = order
        .iter()
        .flat_map(|&c| logs[c].digests.iter().take(DIGEST_STEPS as usize))
        .fold(0, |h, d| fold(h, *d));
    Verdict {
        attempted: steps * logs.len() as u64,
        failed: bad.iter().flatten().filter(|b| **b).count() as u64,
        notes,
        stream_digest,
    }
}

/// Test hook (`--corrupt`): damages two deliveries of the last client's
/// log the way a faulty data plane would — one sample repeated in place of
/// another, one batch with altered content — so the oracle and the exit
/// code can be seen to catch it. Touches the benchmark's log only.
pub fn corrupt(logs: &mut [ClientLog]) {
    let Some(log) = logs.last_mut() else { return };
    if log.ids.len() >= 2 {
        let last = log.ids.len() - 1;
        log.ids[last] = log.ids[last - 1];
    }
    if let Some(d) = log.digests.get_mut(1) {
        *d ^= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two clients, `steps` steps, two samples per delivery, all distinct.
    fn clean(steps: u64) -> (Vec<ClientLog>, Vec<Vec<u64>>) {
        let mut logs = Vec::new();
        let mut reference = Vec::new();
        for c in 0..2u64 {
            let mut log = ClientLog::default();
            let mut digests = Vec::new();
            for s in 0..steps {
                log.steps.push(s);
                log.buckets.push(c as u32);
                log.ids
                    .extend([(c << 40) | (2 * s), (c << 40) | (2 * s + 1)]);
                log.id_ends.push(log.ids.len() as u32);
                digests.push(fold(c, s));
            }
            log.digests = digests.clone();
            logs.push(log);
            reference.push(digests);
        }
        (logs, reference)
    }

    #[test]
    fn a_clean_run_passes() {
        let (logs, reference) = clean(5);
        let v = judge(&logs, 5, &reference);
        assert_eq!((v.attempted, v.failed), (10, 0));
        assert!(v.correct() && v.notes.is_empty());
    }

    #[test]
    fn each_rule_fails_the_deliveries_it_touches() {
        // Gap: client 0 skips step 2, so deliveries 2.. are shifted and
        // the last one never arrives.
        let (mut logs, reference) = clean(5);
        logs[0].steps = vec![0, 1, 3, 4];
        assert_eq!(judge(&logs, 5, &reference).failed, 3);

        // The same id on both clients fails both deliveries.
        let (mut logs, reference) = clean(5);
        logs[1].ids[6] = logs[0].ids[1];
        assert_eq!(judge(&logs, 5, &reference).failed, 2);

        // Content change fails the one delivery.
        let (mut logs, reference) = clean(5);
        logs[0].digests[4] ^= 0x10;
        assert_eq!(judge(&logs, 5, &reference).failed, 1);

        // Both clients on one bucket: every delivery of the second fails
        // (bucket rule) — its digests no longer match either.
        let (mut logs, reference) = clean(3);
        logs[1].buckets = vec![0; 3];
        assert_eq!(judge(&logs, 3, &reference).failed, 3);

        // The corruption hook trips the uniqueness and the digest rules.
        let (mut logs, reference) = clean(5);
        corrupt(&mut logs);
        let v = judge(&logs, 5, &reference);
        assert_eq!(v.failed, 2);
        assert!(!v.correct());
    }

    #[test]
    fn digest_depends_on_step_ids_and_bytes() {
        use msd_core::constructor::Microbatch;
        let batch = |id: u64, bytes: &'static [u8]| ConstructedBatch {
            bucket: 0,
            microbatches: vec![Microbatch {
                bin: 0,
                sequences: Vec::new(),
                payloads: vec![(id, bytes.to_vec().into())],
                payload_bytes: bytes.len() as u64,
            }],
            deliveries: Vec::new(),
        };
        let base = digest_batch(1, &batch(7, b"0123456789"));
        assert_eq!(base, digest_batch(1, &batch(7, b"0123456789")));
        assert_ne!(base, digest_batch(2, &batch(7, b"0123456789")));
        assert_ne!(base, digest_batch(1, &batch(8, b"0123456789")));
        assert_ne!(base, digest_batch(1, &batch(7, b"0123456780")));
    }
}
