//! A 32-byte-aligned growable buffer for SIMD workspace arenas.
//!
//! `Vec<f64>` only guarantees 8-byte alignment, so 256-bit loads on a
//! workspace arena may straddle cache lines. [`AlignedVec`] allocates at
//! 32-byte alignment and exposes enough of the `Vec` surface
//! (`clear`/`resize`/`push`/`extend`/`Deref<[T]>`) for the solver
//! workspaces (`HbWorkspace`, `GmresWorkspace`, IES³ scratch) to swap in
//! without call-site churn. Element types are restricted to `Copy` so
//! drop handling stays trivial.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// SIMD register width alignment, in bytes.
pub const SIMD_ALIGN: usize = 32;

/// A growable buffer whose storage is always 32-byte aligned.
pub struct AlignedVec<T: Copy> {
    ptr: NonNull<T>,
    len: usize,
    cap: usize,
}

// SAFETY: AlignedVec owns its allocation exclusively, exactly like Vec.
unsafe impl<T: Copy + Send> Send for AlignedVec<T> {}
// SAFETY: shared access only hands out &[T]; T: Sync not required beyond
// the same bound Vec has (T: Copy implies no interior mutability here is
// assumed by our users, but keep the honest bound).
unsafe impl<T: Copy + Sync> Sync for AlignedVec<T> {}

impl<T: Copy> AlignedVec<T> {
    /// Creates an empty buffer (no allocation).
    pub const fn new() -> Self {
        AlignedVec { ptr: NonNull::dangling(), len: 0, cap: 0 }
    }

    /// Creates an empty buffer with room for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        let mut v = Self::new();
        v.reserve_total(cap);
        v
    }

    /// Number of live elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no live elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current capacity in elements.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    fn layout(cap: usize) -> Layout {
        let align = SIMD_ALIGN.max(std::mem::align_of::<T>());
        let bytes = std::mem::size_of::<T>().checked_mul(cap).expect("AlignedVec size overflow");
        Layout::from_size_align(bytes, align).expect("AlignedVec layout")
    }

    /// Grows storage to at least `total` elements, preserving contents.
    fn reserve_total(&mut self, total: usize) {
        if total <= self.cap || std::mem::size_of::<T>() == 0 {
            return;
        }
        let new_cap = total.max(self.cap.saturating_mul(2)).max(8);
        let layout = Self::layout(new_cap);
        // SAFETY: layout has nonzero size (size_of::<T>() > 0, new_cap > 0).
        let raw = unsafe { alloc(layout) } as *mut T;
        let Some(ptr) = NonNull::new(raw) else { handle_alloc_error(layout) };
        if self.cap != 0 {
            // SAFETY: both regions are valid for `self.len` elements and
            // cannot overlap (fresh allocation).
            unsafe {
                std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), ptr.as_ptr(), self.len);
                dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap));
            }
        }
        self.ptr = ptr;
        self.cap = new_cap;
    }

    /// Drops all elements (capacity is retained).
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends one element.
    #[inline]
    pub fn push(&mut self, value: T) {
        if self.len == self.cap {
            self.reserve_total(self.len + 1);
        }
        // SAFETY: len < cap after the reserve above.
        unsafe { self.ptr.as_ptr().add(self.len).write(value) };
        self.len += 1;
    }

    /// Resizes to `new_len`, filling fresh slots with `value`.
    pub fn resize(&mut self, new_len: usize, value: T) {
        if new_len > self.cap {
            self.reserve_total(new_len);
        }
        if new_len > self.len {
            // SAFETY: capacity covers new_len; slots len..new_len are in
            // bounds of the allocation.
            unsafe {
                for i in self.len..new_len {
                    self.ptr.as_ptr().add(i).write(value);
                }
            }
        }
        self.len = new_len;
    }

    /// Appends every element of `src`.
    pub fn extend_from_slice(&mut self, src: &[T]) {
        self.reserve_total(self.len + src.len());
        // SAFETY: capacity covers len + src.len(); regions cannot overlap
        // (src is a foreign borrow, dst is our exclusive allocation tail).
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.as_ptr().add(self.len), src.len());
        }
        self.len += src.len();
    }

    /// Live elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr is valid for len initialized elements (dangling is
        // fine for len == 0).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Live elements as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as_slice, plus exclusive access through &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        if self.cap != 0 && std::mem::size_of::<T>() != 0 {
            // SAFETY: allocation was made with the identical layout.
            unsafe { dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap)) };
        }
    }
}

impl<T: Copy> Default for AlignedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> Deref for AlignedVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> DerefMut for AlignedVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        let mut v = Self::with_capacity(self.len);
        v.extend_from_slice(self);
        v
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy> Extend<T> for AlignedVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl<T: Copy> FromIterator<T> for AlignedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        v.extend(iter);
        v
    }
}

impl<T: Copy> From<&[T]> for AlignedVec<T> {
    fn from(src: &[T]) -> Self {
        let mut v = Self::with_capacity(src.len());
        v.extend_from_slice(src);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_32_byte_aligned() {
        for n in [1usize, 3, 8, 17, 1024] {
            let mut v = AlignedVec::<f64>::new();
            v.resize(n, 0.0);
            assert_eq!(v.as_ptr() as usize % SIMD_ALIGN, 0, "n = {n}");
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn vec_surface_behaves() {
        let mut v = AlignedVec::new();
        v.extend_from_slice(&[1.0, 2.0]);
        v.push(3.0);
        v.extend([4.0, 5.0]);
        assert_eq!(&v[..], &[1.0, 2.0, 3.0, 4.0, 5.0]);
        v.resize(2, 0.0);
        assert_eq!(&v[..], &[1.0, 2.0]);
        v.resize(4, 9.0);
        assert_eq!(&v[..], &[1.0, 2.0, 9.0, 9.0]);
        v.clear();
        assert!(v.is_empty());
        let w: AlignedVec<f64> = [1.0f64, 2.0].iter().copied().collect();
        assert_eq!(w.len(), 2);
        let c = w.clone();
        assert_eq!(&c[..], &w[..]);
        assert_eq!(format!("{c:?}"), "[1.0, 2.0]");
    }

    #[test]
    fn growth_preserves_contents() {
        let mut v = AlignedVec::new();
        for i in 0..1000 {
            v.push(i as f64);
        }
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as f64));
        assert_eq!(v.as_ptr() as usize % SIMD_ALIGN, 0);
    }
}
