//! A table of values keyed by request id, indexed over the window of live ids.
//!
//! The engine's requests and the KV manager's sequences are keyed by ids a serving
//! layer hands out densely (a `Server` numbers its sessions `0, 1, 2, …`), and the
//! ids alive at one time span a short window, from the oldest live request to the
//! newest. [`IdTable`] indexes exactly that window: one `u32` per id, pointing into a
//! compact slab of the live values. Lookup, insertion and removal are O(1), memory is
//! the live values plus 4 bytes per id of window, and iteration walks the window in
//! ascending id order — the order a `BTreeMap` iterates in, so every decision taken
//! over the table is the one a `BTreeMap` would give.
//!
//! Ids come from outside the library, so the window is bounded, by [`MAX_ID_WINDOW`]
//! unless the type says otherwise: an id that would stretch it further is refused with
//! [`OutOfWindow`], and the table is left unchanged.

use std::collections::VecDeque;
use std::ops::Index;

/// The most ids an [`IdTable`]'s window may span, from its oldest to its newest live id
/// inclusive: 2^24, so the index never exceeds 64 MiB.
///
/// A serving layer whose ids are dense submission indices reaches the bound only after
/// 2^24 submissions since its oldest still-live request. A `Server` keeps a 96-byte
/// session record per submission, so by then it holds at least 1.5 GiB of sessions,
/// 24 times the index's worst case. The largest window measured is 3,742 ids, on an
/// overloaded A10G server where one request lived almost the whole run.
pub const MAX_ID_WINDOW: u64 = 1 << 24;

/// Index entry of an id in the window that holds no value.
const VACANT: u32 = u32::MAX;

/// An id an [`IdTable`] refused because holding it would stretch the window past its
/// bound. The table is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfWindow {
    /// The refused id.
    pub id: u64,
    /// The oldest live id when it was refused.
    pub oldest: u64,
    /// The newest live id when it was refused.
    pub newest: u64,
}

impl std::fmt::Display for OutOfWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "id {} lies too far from the live ids {}..={}", self.id, self.oldest, self.newest)
    }
}

impl std::error::Error for OutOfWindow {}

/// Values keyed by `u64` id, indexed over the window of live ids (see the module
/// documentation). The window spans at most `WINDOW` ids.
#[derive(Debug, Clone)]
pub struct IdTable<V, const WINDOW: u64 = MAX_ID_WINDOW> {
    /// The first id of the window; meaningless while the table is empty.
    base: u64,
    /// One entry per id in `base..base + index.len()`: the slot of its value in
    /// `slab`, or [`VACANT`]. The first and last entries are never vacant.
    index: VecDeque<u32>,
    /// The live values with their ids, in no particular order.
    slab: Vec<(u64, V)>,
}

impl<V> IdTable<V> {
    /// An empty table whose window spans at most [`MAX_ID_WINDOW`] ids.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<V, const WINDOW: u64> Default for IdTable<V, WINDOW> {
    fn default() -> Self {
        let () = Self::SLOTS_FIT;
        Self { base: 0, index: VecDeque::new(), slab: Vec::new() }
    }
}

impl<V, const WINDOW: u64> IdTable<V, WINDOW> {
    /// Every slot of the slab, which never outgrows the window, fits an index entry.
    const SLOTS_FIT: () = assert!(WINDOW <= VACANT as u64, "the window outgrows u32 slots");

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Whether the table holds no value.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// The oldest and newest live ids, or `None` when the table is empty.
    pub fn span(&self) -> Option<(u64, u64)> {
        let last = self.index.len().checked_sub(1)?;
        Some((self.base, self.base + last as u64))
    }

    fn slot(&self, id: u64) -> Option<usize> {
        let offset = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let &slot = self.index.get(offset)?;
        (slot != VACANT).then_some(slot as usize)
    }

    /// The value of `id`, if it is live.
    pub fn get(&self, id: u64) -> Option<&V> {
        self.slot(id).map(|slot| &self.slab[slot].1)
    }

    /// The value of `id`, mutably, if it is live.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        let slot = self.slot(id)?;
        Some(&mut self.slab[slot].1)
    }

    /// Whether `id` is live.
    pub fn contains(&self, id: u64) -> bool {
        self.slot(id).is_some()
    }

    /// Whether [`IdTable::insert`] would take `id`: it is live, or holding it keeps the
    /// window within `WINDOW` ids.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfWindow`] if it would not.
    pub fn fits(&self, id: u64) -> Result<(), OutOfWindow> {
        match self.span() {
            Some((oldest, newest)) if newest.max(id) - oldest.min(id) >= WINDOW => {
                Err(OutOfWindow { id, oldest, newest })
            }
            _ => Ok(()),
        }
    }

    /// Inserts `value` under `id`, returning the value it replaces, as
    /// `BTreeMap::insert` does.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfWindow`] if `id` does not [fit](IdTable::fits); the table is then
    /// unchanged.
    pub fn insert(&mut self, id: u64, value: V) -> Result<Option<V>, OutOfWindow> {
        if let Some(slot) = self.slot(id) {
            return Ok(Some(std::mem::replace(&mut self.slab[slot].1, value)));
        }
        self.fits(id)?;
        let slot = self.slab.len() as u32; // fits: see `SLOTS_FIT`
        match self.span() {
            None => {
                self.base = id;
                self.index.push_back(slot);
            }
            Some((oldest, _)) if id < oldest => {
                for _ in id + 1..oldest {
                    self.index.push_front(VACANT);
                }
                self.index.push_front(slot);
                self.base = id;
            }
            Some((_, newest)) if id > newest => {
                self.index.resize(self.index.len() + (id - newest - 1) as usize, VACANT);
                self.index.push_back(slot);
            }
            Some(_) => self.index[(id - self.base) as usize] = slot,
        }
        self.slab.push((id, value));
        Ok(None)
    }

    /// Removes `id`, returning its value if it was live. The window shrinks to the
    /// remaining live ids.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let slot = self.slot(id)?;
        self.index[(id - self.base) as usize] = VACANT;
        let (_, value) = self.slab.swap_remove(slot);
        if let Some(&(moved, _)) = self.slab.get(slot) {
            self.index[(moved - self.base) as usize] = slot as u32;
        }
        if self.slab.is_empty() {
            self.index.clear();
        } else {
            // A live id is left at each end, so neither loop empties the index.
            while self.index.front() == Some(&VACANT) {
                self.index.pop_front();
                self.base += 1;
            }
            while self.index.back() == Some(&VACANT) {
                self.index.pop_back();
            }
        }
        Some(value)
    }

    /// The live ids and their values, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.index.iter().filter(|&&slot| slot != VACANT).map(|&slot| {
            let (id, value) = &self.slab[slot as usize];
            (*id, value)
        })
    }

    /// The live ids, in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// The live values, in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, value)| value)
    }
}

impl<V, const WINDOW: u64> Index<u64> for IdTable<V, WINDOW> {
    type Output = V;

    /// The value of a live `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live, as indexing a `BTreeMap` by a missing key does: a
    /// missing id indexes one past the end of the slab.
    fn index(&self, id: u64) -> &V {
        let slot = self.slot(id).unwrap_or(self.slab.len());
        &self.slab[slot].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The window of the oracle property: small, so random ids cross it often.
    const SMALL: u64 = 64;

    type Small = IdTable<u32, SMALL>;

    /// The table and its `BTreeMap` oracle hold the same entries, iterate them in the
    /// same order, and the window spans exactly the oldest to the newest live id.
    fn check_against(table: &Small, oracle: &BTreeMap<u64, u32>) {
        let entries: Vec<(u64, u32)> = table.iter().map(|(id, &v)| (id, v)).collect();
        let expected: Vec<(u64, u32)> = oracle.iter().map(|(&id, &v)| (id, v)).collect();
        assert_eq!(entries, expected);
        assert_eq!(table.ids().collect::<Vec<_>>(), oracle.keys().copied().collect::<Vec<_>>());
        assert_eq!(table.len(), oracle.len());
        assert_eq!(table.is_empty(), oracle.is_empty());
        let span = oracle.keys().next().zip(oracle.keys().next_back());
        assert_eq!(table.span(), span.map(|(&a, &b)| (a, b)));
        assert_eq!(table.index.len() as u64, span.map_or(0, |(a, b)| b - a + 1));
        for (&id, &v) in oracle {
            assert_eq!(table[id], v);
        }
    }

    /// Applies `(op, id, value)` to both, asserting they answer alike: inserts (ops 0
    /// and 1), a mutation in place (2) and removals (3 and 4). A refused insert must be
    /// exactly one that would stretch the window past its bound.
    fn apply(table: &mut Small, oracle: &mut BTreeMap<u64, u32>, op: u8, id: u64, v: u32) {
        let span = oracle.keys().next().copied().zip(oracle.keys().next_back().copied());
        match op {
            0 | 1 => match table.insert(id, v) {
                Ok(old) => assert_eq!(old, oracle.insert(id, v)),
                Err(refused) => {
                    let (oldest, newest) = span.expect("an empty table takes any id");
                    assert!(newest.max(id) - oldest.min(id) >= SMALL, "{id} refused in bounds");
                    assert_eq!(refused, OutOfWindow { id, oldest, newest });
                }
            },
            2 => {
                if let Some(v) = table.get_mut(id) {
                    *v += 1;
                }
                if let Some(v) = oracle.get_mut(&id) {
                    *v += 1;
                }
            }
            _ => assert_eq!(table.remove(id), oracle.remove(&id)),
        }
        assert_eq!(table.contains(id), oracle.contains_key(&id));
        assert_eq!(table.get(id), oracle.get(&id));
        let probe = id ^ 1;
        assert_eq!(table.fits(probe).is_ok(), table.clone().insert(probe, 0).is_ok());
        check_against(table, oracle);
    }

    /// An id from one of four neighbourhoods: ids from 0 up, ids around the window's
    /// bound from 0, ids from `u64::MAX` down, and ids around the bound below
    /// `u64::MAX`. So inserts land below, inside and above the window, and some are
    /// refused.
    fn pick_id(zone: u8, offset: u64) -> u64 {
        match zone {
            0 => offset,
            1 => SMALL - 4 + offset,
            2 => u64::MAX - offset,
            _ => u64::MAX - SMALL + 4 - offset,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table answers every operation as a `BTreeMap` does, iterates in its
        /// order, and refuses exactly the ids past its window; drained, it rebases.
        #[test]
        fn prop_table_matches_btreemap(
            ops in proptest::collection::vec((0u8..5, 0u8..4, 0u64..24, 0u32..1000), 1..80)
        ) {
            let mut table = Small::default();
            let mut oracle = BTreeMap::new();
            for &(op, zone, offset, v) in &ops {
                apply(&mut table, &mut oracle, op, pick_id(zone, offset), v);
            }
            let ids: Vec<u64> = oracle.keys().copied().collect();
            for id in ids {
                apply(&mut table, &mut oracle, 4, id, 0);
            }
            prop_assert!(table.is_empty() && table.span().is_none());
            for id in [u64::MAX, 0, u64::MAX / 2] {
                apply(&mut table, &mut oracle, 0, id, 1);
                apply(&mut table, &mut oracle, 4, id, 0);
            }
        }
    }

    #[test]
    fn ids_below_inside_and_above_the_window() {
        let mut table = Small::default();
        let mut oracle = BTreeMap::new();
        for (op, id) in [(0, 10), (0, 14), (0, 7), (0, 12), (4, 10), (0, 10), (4, 7), (4, 14)] {
            apply(&mut table, &mut oracle, op, id, id as u32);
        }
        assert_eq!(table.span(), Some((10, 12)));
        assert_eq!(table.values().copied().collect::<Vec<_>>(), vec![10, 12]);
    }

    #[test]
    fn the_window_is_bounded_both_ways_and_a_refusal_changes_nothing() {
        let mut table = IdTable::new();
        table.insert(100, 'a').unwrap();
        let last = 100 + MAX_ID_WINDOW - 1;
        assert_eq!(table.insert(last, 'b'), Ok(None), "the window may span the bound exactly");
        let before = (table.span(), table.index.len(), table.len());
        let above = OutOfWindow { id: last + 1, oldest: 100, newest: last };
        assert_eq!(table.insert(last + 1, 'c'), Err(above));
        let below = OutOfWindow { id: 99, oldest: 100, newest: last };
        assert_eq!(table.insert(99, 'c'), Err(below));
        assert_eq!((table.span(), table.index.len(), table.len()), before);
        assert!(above.to_string().contains(&(last + 1).to_string()));
        // Once the oldest id leaves, the window slides and the refused id fits.
        assert_eq!(table.remove(100), Some('a'));
        assert_eq!(table.span(), Some((last, last)));
        assert_eq!(table.insert(last + 1, 'c'), Ok(None));
        assert_eq!(table.ids().collect::<Vec<_>>(), vec![last, last + 1]);
    }

    #[test]
    fn ids_at_the_top_of_the_range_drain_and_rebase() {
        let mut table = IdTable::new();
        table.insert(u64::MAX, 1).unwrap();
        table.insert(u64::MAX - 2, 2).unwrap();
        assert_eq!(table.ids().collect::<Vec<_>>(), vec![u64::MAX - 2, u64::MAX]);
        assert_eq!(table.remove(u64::MAX - 2), Some(2));
        assert_eq!(table.remove(u64::MAX), Some(1));
        assert_eq!(table.span(), None);
        table.insert(0, 3).unwrap();
        assert_eq!(table.span(), Some((0, 0)));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn indexing_a_missing_id_panics() {
        let mut table = IdTable::<char>::new();
        table.insert(3, 'x').unwrap();
        let _ = table[4];
    }
}
