//! Windows onto shared tables.
//!
//! Per-step data that many owners read — the segments of a microbatch's
//! sequences, the sample metadata of a loader group's summaries, the
//! sample ids of a plan's pop directives — lives in one exactly-sized
//! table per batch, group or plan, and each owner holds a [`Window`]
//! onto its rows. Building a step's worth of them is one allocation, not
//! one per owner.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A window onto a table shared with other windows. Reads as a `[T]`;
/// cloning bumps a refcount; `Debug` and equality go by the rows
/// themselves, whatever table they sit in.
pub struct Window<T> {
    table: Arc<[T]>,
    range: Range<u32>,
}

impl<T> Window<T> {
    /// The window `range` of `table`; callers keep it in bounds.
    pub(crate) fn new(table: Arc<[T]>, range: Range<u32>) -> Self {
        debug_assert!(range.start <= range.end && range.end as usize <= table.len());
        Window { table, range }
    }

    /// The windows of `table` that end at each of `ends`, in order: the
    /// first starts at row 0, each later one where the previous ended.
    pub(crate) fn split<'a>(
        table: &'a Arc<[T]>,
        ends: impl IntoIterator<Item = u32, IntoIter: 'a>,
    ) -> impl Iterator<Item = Self> + 'a {
        let mut start = 0;
        ends.into_iter().map(move |end| {
            let window = Window::new(Arc::clone(table), start..end);
            start = end;
            window
        })
    }

    /// Whether `self` and `other` view the same table.
    #[cfg(test)]
    pub(crate) fn shares_table(&self, other: &Window<T>) -> bool {
        Arc::ptr_eq(&self.table, &other.table)
    }
}

/// A table of `len` rows, each first `blank` and then written by `fill`,
/// built in place: one allocation, no copy.
pub(crate) fn table<T: Clone>(len: usize, blank: T, fill: impl FnOnce(&mut [T])) -> Arc<[T]> {
    // `repeat_n` knows its exact length, so the collect allocates the
    // table once, at its final size.
    let mut table: Arc<[T]> = std::iter::repeat_n(blank, len).collect();
    // Proof: the table was collected on the line above; nothing else
    // holds it yet.
    fill(Arc::get_mut(&mut table).expect("fresh table is unshared"));
    table
}

impl<T> Clone for Window<T> {
    fn clone(&self) -> Self {
        Window {
            table: Arc::clone(&self.table),
            range: self.range.clone(),
        }
    }
}

/// An empty window.
impl<T> Default for Window<T> {
    fn default() -> Self {
        Window::new(Arc::default(), 0..0)
    }
}

impl<T> Deref for Window<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.table[self.range.start as usize..self.range.end as usize]
    }
}

impl<'a, T> IntoIterator for &'a Window<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T> From<Vec<T>> for Window<T> {
    fn from(rows: Vec<T>) -> Self {
        rows.into_iter().collect()
    }
}

impl<T> FromIterator<T> for Window<T> {
    fn from_iter<I: IntoIterator<Item = T>>(rows: I) -> Self {
        let table: Arc<[T]> = rows.into_iter().collect();
        let range = 0..table.len() as u32;
        Window::new(table, range)
    }
}

impl<T: fmt::Debug> fmt::Debug for Window<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for Window<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_compare_and_print_by_content_whatever_their_table() {
        let shared = table(5, 0u64, |rows| {
            rows.copy_from_slice(&[1, 2, 3, 2, 3]);
        });
        let parts: Vec<Window<u64>> = Window::split(&shared, [1, 3, 5]).collect();
        assert_eq!(*parts[0], [1]);
        assert!(parts[1].shares_table(&parts[2]));
        // Same rows, different offsets of one table.
        assert_eq!(parts[1], parts[2]);
        // Same rows, a table of their own.
        let own = Window::from(vec![2, 3]);
        assert!(!own.shares_table(&parts[1]));
        assert_eq!(own, parts[1]);
        assert_ne!(parts[0], parts[1]);
        assert_eq!(format!("{:?}", parts[2]), "[2, 3]");
        assert_eq!(format!("{own:?}"), format!("{:?}", vec![2u64, 3]));
        // A clone is the same window of the same table.
        let clone = parts[1].clone();
        assert!(clone.shares_table(&parts[1]));
        assert_eq!(clone.iter().sum::<u64>(), 5);
    }

    #[test]
    fn empty_windows_are_equal() {
        let shared = table(2, 7u32, |_| {});
        let empty: Vec<Window<u32>> = Window::split(&shared, [0, 0, 2]).collect();
        assert!(empty[0].is_empty() && empty[1].is_empty());
        assert_eq!(empty[0], Window::from(Vec::new()));
        assert_eq!(*empty[2], [7, 7]);
        assert_eq!(format!("{:?}", empty[1]), "[]");
    }
}
