//! The engine's CPU residents in context order.
//!
//! NEO's scheduler reads the CPU run queue by ascending context every iteration: step 2
//! swaps residents back in smallest first, step 4 places CPU decodes smallest first, and
//! disk demotion takes the largest first. [`CpuOrder`] keeps that order as residents
//! join, leave and decode, so no policy gathers and sorts the run queue. Equal contexts
//! keep the order the residents joined the CPU pool in, which is the run queue's own:
//! the order is exactly the run queue stably sorted by context.

use neo_kvcache::IdTable;

/// CPU residents by ascending context, equal contexts in the order they joined.
///
/// A change costs at most one pass over the order, and nothing re-reads a resident's
/// context or sorts: a join is a binary search and a shift of the entries after it, a
/// departure one `retain`, and a decode a binary search, a scan of the resident's
/// equal-context group and a rotation over the entries it passes.
#[derive(Debug, Default)]
pub(crate) struct CpuOrder {
    /// `(id, context)` of every resident, ascending context, ties in join order.
    entries: Vec<(u64, usize)>,
    /// Each resident's join number, which orders equal contexts. Its ids are live
    /// requests', so it never refuses an insert the engine's request table took.
    joined: IdTable<u64>,
    /// The next join number.
    joins: u64,
}

impl CpuOrder {
    /// The residents with their contexts, ascending context, ties in join order.
    pub(crate) fn as_slice(&self) -> &[(u64, usize)] {
        &self.entries
    }

    /// Adds `id`, of context `context`, as the newest resident: after every resident of
    /// equal context. Does nothing if `id` is a resident already.
    pub(crate) fn insert(&mut self, id: u64, context: usize) {
        if self.joined.contains(id) {
            return;
        }
        let _ = self.joined.insert(id, self.joins);
        self.joins += 1;
        let at = self.entries.partition_point(|&(_, c)| c <= context);
        self.entries.insert(at, (id, context));
    }

    /// Removes `id` if it is a resident.
    pub(crate) fn remove(&mut self, id: u64) {
        if self.joined.remove(id).is_some() {
            self.entries.retain(|&(r, _)| r != id);
        }
    }

    /// Records that `id`, of context `context`, decoded one token. Does nothing if `id`
    /// is not a resident.
    pub(crate) fn advance(&mut self, id: u64, context: usize) {
        let Some(&joined) = self.joined.get(id) else { return };
        let group = self.entries.partition_point(|&(_, c)| c < context);
        let at = group
            + self.entries[group..]
                .iter()
                .position(|&(r, _)| r == id)
                // neo-lint: allow(panic-hygiene) -- the engine passes a resident's current context, which its entry holds; a miss is an order already wrong, so it must fail loudly
                .expect("a resident's entry holds its context");
        // It passes the rest of its group, then the residents one token longer that
        // joined before it.
        let mut to = at;
        while let Some(&(next, c)) = self.entries.get(to + 1) {
            if c == context || (c == context + 1 && self.joined[next] < joined) {
                to += 1;
            } else {
                break;
            }
        }
        self.entries[at..=to].rotate_left(1);
        self.entries[to].1 = context + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The order from scratch: the run queue stably sorted by context.
    fn reference(queue: &[(u64, usize)]) -> Vec<(u64, usize)> {
        let mut sorted = queue.to_vec();
        sorted.sort_by_key(|&(_, c)| c);
        sorted
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random joins, departures and decodes over a narrow context range, so equal
        /// contexts are common, keep the order equal to the stably sorted queue.
        #[test]
        fn prop_the_order_is_the_stably_sorted_queue(
            ops in proptest::collection::vec((0u8..4, 0u64..24, 0usize..6), 1..400)
        ) {
            let mut order = CpuOrder::default();
            let mut queue: Vec<(u64, usize)> = Vec::new();
            for (op, id, context) in ops {
                let at = queue.iter().position(|&(r, _)| r == id);
                match (op, at) {
                    (0, None) => {
                        order.insert(id, context);
                        queue.push((id, context));
                    }
                    (1, Some(i)) => {
                        order.remove(id);
                        queue.remove(i);
                    }
                    (_, Some(i)) => {
                        order.advance(id, queue[i].1);
                        queue[i].1 += 1;
                    }
                    (_, None) => {
                        // Neither call may touch a non-resident.
                        order.remove(id);
                        order.advance(id, context);
                    }
                }
                prop_assert_eq!(order.as_slice(), &reference(&queue)[..]);
            }
        }
    }

    #[test]
    fn a_repeated_insert_keeps_the_first_join() {
        let mut order = CpuOrder::default();
        order.insert(1, 5);
        order.insert(2, 5);
        order.insert(1, 5);
        assert_eq!(order.as_slice(), &[(1, 5), (2, 5)]);
        // Ties follow the join order, not the order the residents reached a context in.
        order.advance(2, 5);
        order.advance(1, 5);
        assert_eq!(order.as_slice(), &[(1, 6), (2, 6)]);
    }
}
