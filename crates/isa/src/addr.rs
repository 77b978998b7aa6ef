//! Virtual-address newtype.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A 64-bit virtual address.
///
/// A newtype (rather than a bare `u64`) so that addresses, immediates and
/// counters cannot be confused. Arithmetic is wrapping-free: overflow in
/// address arithmetic is a simulator bug and panics in debug builds.
///
/// # Examples
///
/// ```
/// use dynlink_isa::VirtAddr;
///
/// let base = VirtAddr::new(0x40_0000);
/// let entry = base + 0x10;
/// assert_eq!(entry.as_u64(), 0x40_0010);
/// assert_eq!(entry - base, 0x10);
/// assert_eq!(entry.cache_line(64), VirtAddr::new(0x40_0000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// The null address.
    pub const NULL: VirtAddr = VirtAddr(0);

    /// Creates an address from a raw 64-bit value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        VirtAddr(raw)
    }

    /// Returns the raw 64-bit value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is the null address.
    #[inline]
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Returns the address of the cache line containing this address.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    #[inline]
    pub fn cache_line(self, line_bytes: u64) -> VirtAddr {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        VirtAddr(self.0 & !(line_bytes - 1))
    }

    /// Returns the page number of this address for `page_bytes`-sized pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two.
    #[inline]
    pub fn page_number(self, page_bytes: u64) -> u64 {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        self.0 / page_bytes
    }

    /// Returns the byte offset of this address within its page.
    #[inline]
    pub fn page_offset(self, page_bytes: u64) -> u64 {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        self.0 & (page_bytes - 1)
    }

    /// Checked addition of a byte offset.
    #[inline]
    pub fn checked_add(self, rhs: u64) -> Option<VirtAddr> {
        self.0.checked_add(rhs).map(VirtAddr)
    }

    /// Returns the signed distance `self - other` in bytes.
    ///
    /// Used by the linker to decide whether a patched direct call can
    /// encode its target as a ±2 GiB relative offset (paper §2.3).
    #[inline]
    pub fn signed_distance(self, other: VirtAddr) -> i64 {
        self.0.wrapping_sub(other.0) as i64
    }

    /// Returns `true` if a relative control transfer from `self` can reach
    /// `target` within a signed 32-bit displacement (x86-64 `call rel32`).
    #[inline]
    pub fn in_rel32_range(self, target: VirtAddr) -> bool {
        let d = target.signed_distance(self);
        d >= i32::MIN as i64 && d <= i32::MAX as i64
    }

    /// Aligns the address up to `align` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or the aligned value
    /// overflows.
    #[inline]
    pub fn align_up(self, align: u64) -> VirtAddr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let mask = align - 1;
        VirtAddr(
            self.0
                .checked_add(mask)
                .expect("address alignment overflow")
                & !mask,
        )
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        VirtAddr(raw)
    }
}

impl From<VirtAddr> for u64 {
    fn from(addr: VirtAddr) -> Self {
        addr.0
    }
}

impl Add<u64> for VirtAddr {
    type Output = VirtAddr;

    #[inline]
    fn add(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0.checked_add(rhs).expect("virtual address overflow"))
    }
}

impl AddAssign<u64> for VirtAddr {
    fn add_assign(&mut self, rhs: u64) {
        *self = *self + rhs;
    }
}

impl Sub<VirtAddr> for VirtAddr {
    type Output = u64;

    fn sub(self, rhs: VirtAddr) -> u64 {
        self.0
            .checked_sub(rhs.0)
            .expect("virtual address underflow")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_raw_roundtrip() {
        let a = VirtAddr::new(0xdead_beef);
        assert_eq!(a.as_u64(), 0xdead_beef);
        assert_eq!(u64::from(a), 0xdead_beef);
        assert_eq!(VirtAddr::from(0xdead_beefu64), a);
    }

    #[test]
    fn null_detection() {
        assert!(VirtAddr::NULL.is_null());
        assert!(!VirtAddr::new(1).is_null());
    }

    #[test]
    fn cache_line_masks_low_bits() {
        let a = VirtAddr::new(0x1234_5678);
        assert_eq!(a.cache_line(64).as_u64(), 0x1234_5640);
        assert_eq!(a.cache_line(64).cache_line(64), a.cache_line(64));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn cache_line_rejects_non_power_of_two() {
        VirtAddr::new(0).cache_line(48);
    }

    #[test]
    fn page_number_and_offset() {
        let a = VirtAddr::new(0x3_1234);
        assert_eq!(a.page_number(4096), 0x31);
        assert_eq!(a.page_offset(4096), 0x234);
    }

    #[test]
    fn add_and_sub() {
        let a = VirtAddr::new(0x1000);
        assert_eq!((a + 0x20).as_u64(), 0x1020);
        assert_eq!((a + 0x20) - a, 0x20);
        let mut b = a;
        b += 8;
        assert_eq!(b.as_u64(), 0x1008);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn add_overflow_panics() {
        let _ = VirtAddr::new(u64::MAX) + 1;
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = VirtAddr::new(0) - VirtAddr::new(1);
    }

    #[test]
    fn rel32_range() {
        let a = VirtAddr::new(0x4000_0000);
        assert!(a.in_rel32_range(VirtAddr::new(0x4000_0000 + i32::MAX as u64)));
        assert!(a.in_rel32_range(VirtAddr::new(0x4000_0000 - 0x1000)));
        // Libraries loaded far above the heap are out of rel32 reach.
        assert!(!a.in_rel32_range(VirtAddr::new(0x7f00_0000_0000)));
    }

    #[test]
    fn signed_distance_is_symmetric() {
        let a = VirtAddr::new(0x1000);
        let b = VirtAddr::new(0x3000);
        assert_eq!(b.signed_distance(a), 0x2000);
        assert_eq!(a.signed_distance(b), -0x2000);
    }

    #[test]
    fn align_up_rounds() {
        assert_eq!(VirtAddr::new(0x1001).align_up(0x1000).as_u64(), 0x2000);
        assert_eq!(VirtAddr::new(0x1000).align_up(0x1000).as_u64(), 0x1000);
        assert_eq!(VirtAddr::new(0).align_up(16).as_u64(), 0);
    }

    #[test]
    fn display_formats_hex() {
        assert_eq!(VirtAddr::new(0xabc).to_string(), "0xabc");
        assert_eq!(format!("{:x}", VirtAddr::new(0xabc)), "abc");
        assert_eq!(format!("{:X}", VirtAddr::new(0xabc)), "ABC");
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(VirtAddr::new(u64::MAX).checked_add(1), None);
        assert_eq!(VirtAddr::new(4).checked_add(4), Some(VirtAddr::new(8)));
    }

    #[test]
    fn ordering_follows_numeric_value() {
        assert!(VirtAddr::new(1) < VirtAddr::new(2));
        let mut v = vec![VirtAddr::new(3), VirtAddr::new(1), VirtAddr::new(2)];
        v.sort();
        assert_eq!(
            v,
            vec![VirtAddr::new(1), VirtAddr::new(2), VirtAddr::new(3)]
        );
    }
}
