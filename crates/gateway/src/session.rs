//! One sensor's server-side session state.
//!
//! The session table maps sensor id → (receive keys, replay window,
//! cohort, gap anchor). Only what must be per sensor lives here: the
//! leakage histograms are binned per (shard, cohort) by the shard, and
//! every rollup merges commutatively, which is what lets the fleet
//! report come out byte-identical at any shard or thread count.

use age_crypto::ChaCha20Poly1305;
use age_transport::{epoch_skip_budget, Receiver};

/// The far-future skip tolerance, shared with every single-link receiver:
/// one definition in `age-transport` ([`age_transport::MAX_SKIP`]) so the
/// gateway and the link sims cannot drift apart.
pub(crate) use age_transport::MAX_SKIP;

/// Server-side state for one provisioned sensor.
pub(crate) struct Session {
    /// Authenticates and replay-checks this sensor's frames. The AEAD is
    /// held inline (no `Box<dyn Cipher>`), so a session is one slab slot
    /// plus, for rekeying sessions only, the receiver's boxed rekey state.
    pub(crate) receiver: Receiver<ChaCha20Poly1305>,
    /// Index into the gateway's cohort table (selects the decoder and
    /// the leakage stream name).
    pub(crate) cohort: usize,
    /// Virtual send stamp of the last *accepted* frame; the anchor for
    /// per-sensor inter-transmission gaps. Kept per session because the
    /// fleet interleaves sensors arbitrarily — a shared gap clock would
    /// measure the interleaving, not any sensor's cadence.
    pub(crate) last_send_us: Option<u64>,
}

impl Session {
    /// A fresh session over `key` in `cohort`.
    pub(crate) fn new(key: [u8; 32], cohort: usize) -> Session {
        Session {
            receiver: Receiver::with_max_skip(ChaCha20Poly1305::new(key), MAX_SKIP),
            cohort,
            last_send_us: None,
        }
    }

    /// A rekey-capable session: keys ratchet from `root`, and the
    /// receiver tolerates the epoch skew a sensor rotating every
    /// `interval` sequence numbers can produce across brownouts.
    pub(crate) fn with_rekey(root: [u8; 32], interval: u64, cohort: usize) -> Session {
        Session {
            receiver: Receiver::with_ratchet(
                root,
                MAX_SKIP,
                epoch_skip_budget(MAX_SKIP, interval),
                ChaCha20Poly1305::new,
            ),
            cohort,
            last_send_us: None,
        }
    }

    /// Advances the gap anchor past one accepted frame sent at
    /// `sent_at_us`, returning the gap since the previous accept — `None`
    /// on the session's first frame and when the stamp did not advance
    /// (a sensor clock restart; no gap is recorded across the seam, same
    /// as `LeakageAudit::observe_timed`).
    pub(crate) fn observe_accepted(&mut self, sent_at_us: u64) -> Option<u64> {
        let gap_us = match self.last_send_us {
            Some(prev) if sent_at_us > prev => Some(sent_at_us - prev),
            _ => None,
        };
        self.last_send_us = Some(sent_at_us);
        gap_us
    }
}
