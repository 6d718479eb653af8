//! The workspace's one spawn site: [`run_shards`].

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `work` once per item and returns each item's result in item order.
///
/// A single item (or none) runs inline on the calling thread; two or more
/// run on scoped threads, one per item, all joined before this returns.
/// Items are drawn from `items` on the calling thread, and each item after
/// the second is drawn only once the one before it has been spawned, so
/// work that produces the items overlaps the items already running. A
/// panic is caught per item and comes back as that item's `Err` payload,
/// so a failing item neither hangs the call nor loses its siblings'
/// results.
///
/// Callers keep an outcome independent of the item count by how they cut
/// and merge: the tick cuts contiguous shards of its active cores, each
/// evaluating and routing its own, and concatenates the results in item
/// order; the serving fleet deals sessions round-robin into buckets and
/// re-sorts the outcomes by slot; [`crate::CheckpointStore::write_all`]
/// commits a round's checkpoints in contiguous runs and reads the results
/// back in batch order.
pub fn run_shards<I, R, F>(items: I, work: F) -> Vec<std::thread::Result<R>>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let Some(second) = items.next() else {
        return vec![catch_unwind(AssertUnwindSafe(|| work(first)))];
    };
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = [first, second]
            .into_iter()
            .chain(items)
            .map(|item| scope.spawn(move || work(item)))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{current, ThreadId};

    #[test]
    fn results_come_back_in_item_order() {
        for n in [1usize, 2, 3, 8] {
            let results: Vec<usize> = run_shards(0..n, |i| i * 10)
                .into_iter()
                .map(|r| r.expect("no item panics"))
                .collect();
            assert_eq!(results, (0..n).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn one_item_runs_on_the_caller_and_more_run_off_it() {
        let caller = current().id();
        let ids = |n: usize| -> Vec<ThreadId> {
            run_shards(vec![(); n], |()| current().id())
                .into_iter()
                .map(|r| r.expect("no item panics"))
                .collect()
        };
        assert_eq!(ids(1), vec![caller]);
        assert!(ids(2).iter().all(|&id| id != caller));
    }

    #[test]
    fn a_panicking_item_returns_its_payload_at_its_own_index() {
        for n in [1usize, 3] {
            let bad = n / 2;
            let results = run_shards(0..n, |i| {
                if i == bad {
                    panic!("item {i} failed");
                }
                i
            });
            assert_eq!(results.len(), n);
            for (i, result) in results.into_iter().enumerate() {
                match result {
                    Ok(v) => assert!(i != bad && v == i),
                    Err(payload) => {
                        assert_eq!(i, bad);
                        let message = payload.downcast::<String>().expect("formatted panic");
                        assert_eq!(*message, format!("item {bad} failed"));
                    }
                }
            }
        }
    }

    #[test]
    fn later_items_are_drawn_while_earlier_ones_run() {
        // The third item waits for the first item's work to start: a call
        // that drew every item before spawning any would time out here.
        let (started, seen) = std::sync::mpsc::channel();
        let items = (0..3).inspect(|&i| {
            if i == 2 {
                seen.recv_timeout(std::time::Duration::from_secs(10))
                    .expect("item 0 runs before item 2 is drawn");
            }
        });
        let results = run_shards(items, |i| {
            if i == 0 {
                started.send(()).expect("the caller is waiting");
            }
            i
        });
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn zero_items_return_an_empty_vec() {
        assert!(run_shards(Vec::<u8>::new(), |x| x).is_empty());
    }
}
