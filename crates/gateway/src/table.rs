//! The per-shard session table: a dense, paged slab of sessions behind
//! an open-addressing id → slot index.
//!
//! A `BTreeMap<u64, Session>` fed ascending ids leaves its leaves about
//! half full, and a single doubling `Vec` can strand nearly half its
//! capacity. Here sessions live in fixed-size pages (only the newest page
//! grows, so at most half a page is ever slack) and the index is one flat
//! array of `(id, slot)` buckets probed linearly. Sessions are never
//! removed — re-provisioning replaces a session in its slot — so slots
//! are stable and the index never needs tombstones.
//!
//! Nothing reads sessions in any particular order: every report sums
//! over [`SessionTable::iter`], so the table is free to lay sessions out
//! however it likes.
//!
//! Only provisioning inserts ids. An id read from a datagram header only
//! probes, and a probe stops at the first empty bucket, so a flood of
//! unknown ids costs at most the longest run the provisioned ids formed.

use crate::route::mix;
use crate::session::Session;

/// Sessions per slab page (a power of two: slot → page is a shift).
const PAGE: usize = 256;
const PAGE_SHIFT: u32 = PAGE.trailing_zeros();

/// Salt for the index hash. Shards are chosen by `mix(id) % shards`, so
/// every id in one shard shares those low bits of `mix(id)`; hashing
/// `id ^ INDEX_SALT` instead keeps the index's buckets independent of
/// the shard choice.
const INDEX_SALT: u64 = 0x6a09_e667_f3bc_c909;

/// Marks an empty index bucket (no slot can reach it).
const EMPTY: usize = usize::MAX;

/// Smallest non-empty index.
const MIN_BUCKETS: usize = 16;

/// Sessions keyed by sensor id.
#[derive(Default)]
pub(crate) struct SessionTable {
    /// Full pages of `PAGE` sessions, then at most one partial page.
    pages: Vec<Vec<Session>>,
    /// `(sensor id, slot)` buckets; a power-of-two count, at most 3/4
    /// occupied, so a probe for an absent id stays short.
    index: Vec<(u64, usize)>,
    len: usize,
}

impl SessionTable {
    /// Provisioned sessions.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The session for `sensor_id`, if provisioned.
    pub(crate) fn get_mut(&mut self, sensor_id: u64) -> Option<&mut Session> {
        let slot = self.slot_of(sensor_id)?;
        self.pages
            .get_mut(slot >> PAGE_SHIFT)?
            .get_mut(slot & (PAGE - 1))
    }

    /// Installs `session` for `sensor_id`, returning the session it
    /// replaced (re-provisioning keeps the sensor's slot).
    pub(crate) fn insert(&mut self, sensor_id: u64, session: Session) -> Option<Session> {
        if let Some(slot) = self.slot_of(sensor_id) {
            let old = self
                .pages
                .get_mut(slot >> PAGE_SHIFT)
                .and_then(|page| page.get_mut(slot & (PAGE - 1)))?;
            return Some(std::mem::replace(old, session));
        }
        if (self.len + 1) * 4 > self.index.len() * 3 {
            self.grow_index();
        }
        let slot = self.len;
        self.push(session);
        self.index_insert(sensor_id, slot);
        self.len += 1;
        None
    }

    /// Every session, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Session> {
        self.pages.iter().flatten()
    }

    /// Appends to the newest page, opening a new one when it is full.
    /// A page's capacity grows by doubling up to exactly `PAGE`, so no
    /// page ever holds more than `PAGE` sessions' worth of memory.
    fn push(&mut self, session: Session) {
        match self.pages.last_mut() {
            Some(page) if page.len() < PAGE => {
                if page.len() == page.capacity() {
                    page.reserve_exact(page.len().max(4).min(PAGE - page.len()));
                }
                page.push(session);
            }
            _ => {
                let mut page = Vec::with_capacity(4);
                page.push(session);
                self.pages.push(page);
            }
        }
    }

    fn bucket_of(&self, sensor_id: u64) -> usize {
        (mix(sensor_id ^ INDEX_SALT) as usize) & (self.index.len() - 1)
    }

    fn slot_of(&self, sensor_id: u64) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut bucket = self.bucket_of(sensor_id);
        // The index is never full, so every probe meets an empty bucket.
        loop {
            match *self.index.get(bucket)? {
                (_, EMPTY) => return None,
                (id, slot) if id == sensor_id => return Some(slot),
                _ => bucket = (bucket + 1) & mask,
            }
        }
    }

    /// Places `(sensor_id, slot)` in the first empty bucket of its probe
    /// sequence (the caller guarantees the id is absent and room exists).
    fn index_insert(&mut self, sensor_id: u64, slot: usize) {
        let mask = self.index.len() - 1;
        let mut bucket = self.bucket_of(sensor_id);
        while let Some(entry) = self.index.get_mut(bucket) {
            if entry.1 == EMPTY {
                *entry = (sensor_id, slot);
                return;
            }
            bucket = (bucket + 1) & mask;
        }
    }

    fn grow_index(&mut self) {
        let buckets = (self.index.len() * 2).max(MIN_BUCKETS);
        let old = std::mem::replace(&mut self.index, vec![(0, EMPTY); buckets]);
        for (id, slot) in old {
            if slot != EMPTY {
                self.index_insert(id, slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::shard_of;

    fn session(cohort: usize) -> Session {
        Session::new([cohort as u8; 32], cohort)
    }

    #[test]
    fn lookups_find_exactly_the_provisioned_ids() {
        let mut table = SessionTable::default();
        assert!(table.get_mut(0).is_none(), "empty table finds nothing");
        // Ids of one shard out of four: they share the low bits of the
        // routing hash, which the index must not inherit.
        let ids: Vec<u64> = (0..4_000u64)
            .filter(|&id| shard_of(id, 4) == 1)
            .chain([u64::MAX, 1 << 63])
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            assert!(table.insert(id, session(i % 3)).is_none());
        }
        assert_eq!(table.len(), ids.len());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(table.get_mut(id).map(|s| s.cohort), Some(i % 3));
        }
        for id in (0..4_000u64).filter(|&id| shard_of(id, 4) != 1) {
            assert!(table.get_mut(id).is_none(), "id {id} was never provisioned");
        }
        assert_eq!(table.iter().count(), ids.len());
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut table = SessionTable::default();
        for id in 0..600u64 {
            table.insert(id, session(0));
        }
        let old = table.insert(300, session(2)).expect("replaced");
        assert_eq!(old.cohort, 0);
        assert_eq!(table.len(), 600);
        assert_eq!(table.get_mut(300).map(|s| s.cohort), Some(2));
        assert_eq!(table.iter().filter(|s| s.cohort == 2).count(), 1);
    }

    #[test]
    fn pages_never_exceed_their_size_and_the_index_stays_sparse() {
        let mut table = SessionTable::default();
        for id in 0..(3 * PAGE as u64 + 5) {
            table.insert(id * 7919, session(1));
        }
        assert_eq!(table.pages.len(), 4);
        assert!(table.pages.iter().all(|p| p.capacity() <= PAGE));
        assert_eq!(table.pages.last().map(Vec::len), Some(5));
        assert!(table.len() * 4 <= table.index.len() * 3);
    }
}
