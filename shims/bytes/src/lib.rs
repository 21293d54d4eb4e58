//! Shim for `bytes`: cheaply-cloneable immutable [`Bytes`] views over a
//! shared buffer, a growable [`BytesMut`], and the [`Buf`]/[`BufMut`]
//! cursor traits (little-endian accessors only — that is all the
//! `MSDCOL01` format uses).

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer. Cloning and slicing are
/// O(1): both produce new views over the same allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Buffer viewing a static byte slice (copies here; the real crate
    /// borrows, but nothing observes the difference).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether this view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view of `range` (O(1), shares the allocation).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Splits off and returns the first `n` bytes; `self` keeps the rest.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split_to out of bounds");
        let head = Bytes {
            data: self.data.clone(),
            start: self.start,
            end: self.start + n,
        };
        self.start += n;
        head
    }

    /// Copies this view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Whether two views share the same backing allocation (regardless of
    /// their ranges). This is the zero-copy observability hook: tests use
    /// it to assert that slicing, cloning, and cross-component handoff
    /// never copied payload bytes. (The real crate offers the same check
    /// via `Bytes::as_ptr` range comparisons; a named method keeps the
    /// assertion sites readable.)
    pub fn ptr_eq(a: &Bytes, b: &Bytes) -> bool {
        Arc::ptr_eq(&a.data, &b.data)
    }

    /// Whether this is the only live view of the backing allocation.
    ///
    /// A `true` here is stable for a holder that never shares the view:
    /// no other handle exists, so no concurrent clone can appear. Buffer
    /// pools use this to find parked buffers whose consumers are all
    /// done. (The real crate has the same method.)
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// Turns the only live view back into a writable [`BytesMut`] holding
    /// this view's bytes (timely-allocator style reclaim). The storage
    /// comes back whole — its full capacity and the shared header views
    /// count on — so [`BytesMut::freeze`] can share it again and a pool
    /// can hand it out again, neither touching the allocator. When other
    /// views are still alive, returns `self` unchanged.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        let Bytes {
            mut data,
            start,
            end,
        } = self;
        match Arc::get_mut(&mut data) {
            Some(vec) => {
                vec.truncate(end);
                vec.drain(..start);
                Ok(BytesMut { data })
            }
            None => Err(Bytes { data, start, end }),
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        let end = data.len();
        Bytes {
            data: Arc::new(data),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }
}

impl From<&'static str> for Bytes {
    fn from(data: &'static str) -> Self {
        Bytes::from(data.as_bytes().to_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// A growable byte buffer; freeze it into [`Bytes`] when done writing.
///
/// It owns its storage together with the shared header [`Bytes`] views
/// count on, so [`BytesMut::freeze`] allocates nothing and
/// [`Bytes::try_into_mut`] takes both back: a buffer can go round the
/// freeze/reclaim cycle forever on its first two allocations.
#[derive(Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    data: Arc<Vec<u8>>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Arc::new(Vec::with_capacity(cap)),
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes the buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.as_mut_vec().reserve(additional);
    }

    /// Drops the contents, keeping the allocation.
    pub fn clear(&mut self) {
        self.as_mut_vec().clear();
    }

    /// Appends `src` to the buffer.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.as_mut_vec().extend_from_slice(src);
    }

    /// Converts the accumulated bytes into an immutable [`Bytes`],
    /// sharing this buffer's storage and header as they are.
    pub fn freeze(self) -> Bytes {
        let end = self.data.len();
        Bytes {
            data: self.data,
            start: 0,
            end,
        }
    }

    /// The backing vector, for code written against `Vec`'s API.
    pub fn as_vec(&self) -> &Vec<u8> {
        &self.data
    }

    /// The backing vector, writable: a buffer pool fills its leases
    /// through `Vec`'s API (`Read::read_to_end` among it).
    pub fn as_mut_vec(&mut self) -> &mut Vec<u8> {
        // Proof: a `BytesMut` is built from a fresh `Arc` or from the only
        // live view (`Bytes::try_into_mut`), never clones it, and
        // `freeze` consumes it: nothing else holds the header.
        Arc::get_mut(&mut self.data).expect("BytesMut storage is unshared")
    }
}

impl Clone for BytesMut {
    fn clone(&self) -> Self {
        BytesMut {
            data: Arc::new(self.as_vec().clone()),
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Read cursor over a byte source (little-endian accessors).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread bytes.
    fn chunk(&self) -> &[u8];

    /// Advances the cursor by `n` bytes.
    fn advance(&mut self, n: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take_array())
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take_array())
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take_array())
    }

    /// Reads a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        i64::from_le_bytes(self.take_array())
    }

    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take_array())
    }

    /// Reads `N` bytes into an array.
    #[doc(hidden)]
    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        out.copy_from_slice(&self.chunk()[..N]);
        self.advance(N);
        out
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        self.start += n;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// Write cursor appending to a byte sink (little-endian writers).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u16_le(513);
        buf.put_u32_le(70_000);
        buf.put_u64_le(1 << 40);
        buf.put_i64_le(-9);
        buf.put_f64_le(2.5);
        buf.put_slice(b"xyz");
        let mut b = buf.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16_le(), 513);
        assert_eq!(b.get_u32_le(), 70_000);
        assert_eq!(b.get_u64_le(), 1 << 40);
        assert_eq!(b.get_i64_le(), -9);
        assert_eq!(b.get_f64_le(), 2.5);
        assert_eq!(&b[..], b"xyz");
    }

    #[test]
    fn slice_and_split_share_data() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        let mut rest = b.slice(..);
        let head = rest.split_to(2);
        assert_eq!(&head[..], &[0, 1]);
        assert_eq!(&rest[..], &[2, 3, 4, 5]);
        assert_eq!(rest.remaining(), 4);
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn split_to_checks_bounds() {
        let mut b = Bytes::from(vec![1]);
        b.split_to(2);
    }

    #[test]
    fn clone_slice_and_split_share_one_allocation() {
        let b = Bytes::from(vec![7u8; 64]);
        let c = b.clone();
        let s = b.slice(8..32);
        let mut rest = b.clone();
        let head = rest.split_to(16);
        assert!(Bytes::ptr_eq(&b, &c));
        assert!(Bytes::ptr_eq(&b, &s));
        assert!(Bytes::ptr_eq(&b, &head));
        assert!(Bytes::ptr_eq(&b, &rest));
        // A fresh copy does not share.
        assert!(!Bytes::ptr_eq(&b, &Bytes::copy_from_slice(&b)));
        // Nested slices of slices still share.
        assert!(Bytes::ptr_eq(&b, &s.slice(1..3)));
    }

    #[test]
    fn freeze_then_slice_is_no_copy() {
        let mut m = BytesMut::with_capacity(16);
        m.extend_from_slice(b"0123456789abcdef");
        let frozen = m.freeze();
        let tail = frozen.slice(10..);
        assert!(Bytes::ptr_eq(&frozen, &tail));
        assert_eq!(&tail[..], b"abcdef");
    }

    #[test]
    fn reclaim_recovers_the_backing_vec_only_when_unique() {
        let mut m = BytesMut::with_capacity(64);
        m.extend_from_slice(b"reclaim me");
        let b = m.freeze();
        assert!(b.is_unique());
        let view = b.slice(2..6);
        assert!(!b.is_unique());
        // A live sub-view blocks reclaim; the original comes back intact.
        let b = b.try_into_mut().unwrap_err();
        assert_eq!(&b[..], b"reclaim me");
        drop(view);
        assert!(b.is_unique());
        let m = b.try_into_mut().unwrap();
        assert_eq!(&m[..], b"reclaim me");
        assert!(m.capacity() >= 64, "reclaim lost the allocation");
        // Freezing again shares the same storage: no copy, no new header.
        let b = m.freeze();
        let again = b.clone();
        let sub = b.try_into_mut().unwrap_err().slice(3..5);
        drop(again);
        // Reclaiming through a sub-view keeps the storage, holding the
        // view's bytes.
        let m = sub.try_into_mut().unwrap();
        assert_eq!(&m[..], b"la");
        assert!(m.capacity() >= 64);
    }

    #[test]
    fn bytes_mut_vec_roundtrip_keeps_capacity() {
        let mut m = BytesMut::with_capacity(128);
        assert_eq!(m.capacity(), 128);
        m.extend_from_slice(b"abc");
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), 128);
        m.reserve(256);
        assert!(m.capacity() >= 256);
        m.as_mut_vec().extend_from_slice(b"xyz");
        let m = m.freeze().try_into_mut().unwrap();
        assert_eq!(
            (m.as_vec().as_slice(), m.capacity() >= 256),
            (&b"xyz"[..], true)
        );
        // A clone owns storage of its own.
        let mut c = m.clone();
        c.put_u8(b'!');
        assert_eq!((&m[..], &c[..]), (&b"xyz"[..], &b"xyz!"[..]));
    }
}
