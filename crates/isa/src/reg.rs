use std::fmt;

/// An architectural register: integer registers `r0..r31` and floating-point
/// registers `f0..f31`.
///
/// `r31` is hard-wired to zero (as on Alpha); writes to it are discarded and
/// it never creates a data dependence. The type is a compact `u8` index so
/// it can be used directly in rename tables. The `Default` register is
/// `r0`.
///
/// ```
/// use mos_isa::Reg;
/// let r = Reg::int(3);
/// assert!(r.is_int() && !r.is_zero());
/// assert_eq!(r.to_string(), "r3");
/// assert!(Reg::ZERO.is_zero());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Number of integer architectural registers.
    pub const NUM_INT: u8 = 32;
    /// Number of floating-point architectural registers.
    pub const NUM_FP: u8 = 32;
    /// Total architectural register count (integer + floating point).
    pub const NUM: usize = (Self::NUM_INT + Self::NUM_FP) as usize;
    /// The hard-wired zero register (`r31`).
    pub const ZERO: Reg = Reg(31);
    /// Conventional stack-pointer register (`r30`).
    pub const SP: Reg = Reg(30);
    /// Conventional return-address register (`r26`), written by calls.
    pub const RA: Reg = Reg(26);

    /// Integer register `r<n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub const fn int(n: u8) -> Reg {
        assert!(n < Self::NUM_INT);
        Reg(n)
    }

    /// Floating-point register `f<n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub const fn fp(n: u8) -> Reg {
        assert!(n < Self::NUM_FP);
        Reg(Self::NUM_INT + n)
    }

    /// Flat index in `0..Reg::NUM`, usable as a rename-table key.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a register from [`Reg::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= Reg::NUM`.
    pub fn from_index(index: usize) -> Reg {
        assert!(index < Self::NUM);
        Reg(index as u8)
    }

    /// `true` for integer registers (including the zero register).
    pub const fn is_int(self) -> bool {
        self.0 < Self::NUM_INT
    }

    /// `true` for floating-point registers.
    pub const fn is_fp(self) -> bool {
        self.0 >= Self::NUM_INT
    }

    /// `true` for the hard-wired zero register, which never participates in
    /// dependences.
    pub const fn is_zero(self) -> bool {
        self.0 == Self::ZERO.0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_int() {
            write!(f, "r{}", self.0)
        } else {
            write!(f, "f{}", self.0 - Self::NUM_INT)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_fp_spaces_are_disjoint() {
        assert_ne!(Reg::int(0), Reg::fp(0));
        assert!(Reg::int(5).is_int());
        assert!(Reg::fp(5).is_fp());
        assert!(!Reg::fp(5).is_int());
    }

    #[test]
    fn zero_register() {
        assert!(Reg::ZERO.is_zero());
        assert!(Reg::ZERO.is_int());
        assert!(!Reg::int(0).is_zero());
    }

    #[test]
    fn index_round_trip() {
        for i in 0..Reg::NUM {
            assert_eq!(Reg::from_index(i).index(), i);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Reg::int(7).to_string(), "r7");
        assert_eq!(Reg::fp(7).to_string(), "f7");
        assert_eq!(Reg::ZERO.to_string(), "r31");
    }

    #[test]
    #[should_panic]
    fn out_of_range_int_panics() {
        let _ = Reg::int(32);
    }
}
