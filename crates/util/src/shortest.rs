//! Shortest round-trip printing of `f64`, byte for byte what `{}` prints.
//!
//! [`push`] appends the text `format!("{}", x)` gives: the fewest decimal
//! digits that read back as `x`, laid out in plain decimal, never with an
//! exponent. The daemon's reply bodies and `parhde-layout --csv` print
//! every coordinate through it (DESIGN.md §13.4).
//!
//! The digits come from Ryū (Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018), which finds them with two 64×128-bit
//! multiplications by a power of 5 from a table. Only its common path runs
//! here. Its general case, where the scaled interval bound or the value
//! itself lands on an exact decimal, goes to std, and so do zero, NaN and
//! ±inf. An exact tie between two shortest candidates needs such an exact
//! decimal, so every tie is std's to break: std rounds a tie up in
//! magnitude, where Ryū would round half to even.
//!
//! It appends bytes, not `str`s: checking each short number as UTF-8 cost
//! about a sixth of the render, while a caller holding a whole body checks
//! it once.

use std::io::Write;
use std::sync::OnceLock;

/// Appends exactly the bytes of `format!("{}", x)` to `out`.
pub fn push(out: &mut Vec<u8>, x: f64) {
    let mut buf = [0u8; MAX_LEN];
    match decimal(x.to_bits() & !(1 << 63)) {
        Some((digits, exp10)) => {
            let len = lay_out(&mut buf, x.is_sign_negative(), digits, exp10);
            out.extend_from_slice(&buf[..len]);
        }
        None => write!(out, "{x}").expect("writing to a Vec cannot fail"),
    }
}

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bits kept of each table entry.
const ENTRY_BITS: u32 = 125;
/// Entries of the inverse table, for Ryū's binary exponents `e2 ≥ 0`.
const INV_LEN: usize = 342;
/// Entries of the power table, for `e2 < 0`.
const POW_LEN: usize = 326;

/// Ryū's two power-of-5 tables.
struct Tables {
    /// `⌊2^(bits(5^q) − 1 + 125) / 5^q⌋ + 1`.
    inv: [u128; INV_LEN],
    /// `5^i`, shifted to exactly 125 bits (truncating).
    pow: [u128; POW_LEN],
}

/// The tables, built at first use.
fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(build_tables)
}

/// A 1088-bit unsigned integer in little-endian 64-bit limbs: enough for
/// `2^1024` and for `5^341` (792 bits).
struct Big([u64; 17]);

impl Big {
    fn mul5(&mut self) {
        let mut carry = 0u128;
        for limb in &mut self.0 {
            let t = u128::from(*limb) * 5 + carry;
            *limb = t as u64;
            carry = t >> 64;
        }
        assert_eq!(carry, 0, "power of 5 outgrew its limbs");
    }

    /// Floor division by 5.
    fn div5(&mut self) {
        let mut rem = 0u128;
        for limb in self.0.iter_mut().rev() {
            let t = (rem << 64) | u128::from(*limb);
            *limb = (t / 5) as u64;
            rem = t % 5;
        }
    }

    fn bit_len(&self) -> u32 {
        let top = self.0.iter().rposition(|&l| l != 0).unwrap_or(0);
        64 * top as u32 + 64 - self.0[top].leading_zeros()
    }

    /// `⌊self / 2^s⌋` truncated to 128 bits.
    fn shr(&self, s: u32) -> u128 {
        let limb = |k: usize| u128::from(self.0.get(k).copied().unwrap_or(0));
        let (w, b) = ((s / 64) as usize, s % 64);
        let low = (limb(w) | limb(w + 1) << 64) >> b;
        if b == 0 {
            low
        } else {
            low | limb(w + 2) << (128 - b)
        }
    }
}

/// Builds both tables from exact integer steps: repeated ×5 gives `5^i`,
/// repeated ⌊÷5⌋ of `2^1024` gives `⌊2^1024 / 5^q⌋`, and since
/// `⌊⌊a/b⌋/c⌋ = ⌊a/(bc)⌋`, shifting either down cuts it to 125 bits with
/// no rounding error.
fn build_tables() -> Tables {
    let mut t = Tables {
        inv: [0; INV_LEN],
        pow: [0; POW_LEN],
    };
    let mut pow5 = Big([0; 17]);
    pow5.0[0] = 1;
    let mut inv = Big([0; 17]);
    inv.0[16] = 1;
    for q in 0..INV_LEN {
        let bits = pow5.bit_len();
        debug_assert_eq!(bits as i32, pow5_bits(q as i32));
        if q < POW_LEN {
            t.pow[q] = if bits >= ENTRY_BITS {
                pow5.shr(bits - ENTRY_BITS)
            } else {
                pow5.shr(0) << (ENTRY_BITS - bits)
            };
        }
        t.inv[q] = inv.shr(1024 - (bits - 1 + ENTRY_BITS)) + 1;
        pow5.mul5();
        inv.div5();
    }
    t
}

/// `⌊log10 2^e⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78913) >> 18
}

/// `⌊log10 5^e⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732923) >> 20
}

/// The bit length of `5^e` for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1217359) >> 19) as i32 + 1
}

fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · mul / 2^j⌋` for `m < 2^55`, `mul < 2^126` and `64 ≤ j`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest round-trip digits of the non-negative float with bits
/// `bits`, as `(d, e)` with value `d · 10^e`: Ryū's `d2d`. `None` for
/// zero, NaN, ±inf and Ryū's general case.
fn decimal(bits: u64) -> Option<(u64, i32)> {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32;
    if ieee_exponent == 0x7ff || bits == 0 {
        return None;
    }
    // Two extra bits so that the interval's bounds are integers too.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-to-even reads an even mantissa's interval bounds back as it.
    let accept_bounds = m2.is_multiple_of(2);
    let mv = 4 * m2;
    // The gap below a power of two is half the gap above it.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // Scale the value and its interval bounds by a power of ten.
    let t = tables();
    let (mut vr, mut vp, mut vm, e10, exact) = if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        let j = -e2 + q as i32 + ENTRY_BITS as i32 + pow5_bits(q as i32) - 1;
        let mul = t.inv[q as usize];
        let (vr, mut vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        let mut exact = false;
        if q <= 21 {
            // At most one of mp, mv and mm is a multiple of 5.
            if mv.is_multiple_of(5) {
                exact = multiple_of_pow5(mv, q);
            } else if accept_bounds {
                exact = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
        (vr, vp, vm, q as i32, exact)
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        let i = -e2 - q as i32;
        let j = q as i32 - (pow5_bits(i) - ENTRY_BITS as i32);
        let mul = t.pow[i as usize];
        let (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        // mv has at least two trailing zero bits: for q ≤ 1 it is exact.
        let exact = q <= 1 || (q < 63 && mv & ((1 << q) - 1) == 0);
        (vr, vp, vm, q as i32 + e2, exact)
    };
    if exact {
        return None;
    }

    // Drop digits while the interval still holds a shorter number. Off
    // the general case no dropped digit string is an exact tie, so the
    // last dropped digit alone decides the rounding.
    let mut removed = 0;
    let mut round_up = false;
    if vp / 100 > vm / 100 {
        round_up = vr % 100 >= 50;
        (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
        removed += 2;
    }
    while vp / 10 > vm / 10 {
        round_up = vr % 10 >= 5;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    // vm lies below the interval: take vr + 1 when vr reached it.
    Some((vr + u64::from(vr == vm || round_up), e10 + removed))
}

/// "00" through "99".
const PAIRS: [u8; 200] = {
    let mut t = [0; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// The longest text [`lay_out`] writes: a sign, `0.`, the 323 zeros of
/// `5e-324` and 17 digits.
const MAX_LEN: usize = 1 + 2 + 323 + 17;

/// Writes the decimal digits of `v`, exactly `buf.len()` of them.
fn write_digits(buf: &mut [u8], v: u64) {
    let mut at = buf.len();
    let mut v = v;
    // 32-bit steps after splitting off the low eight digits.
    if v >= 100_000_000 {
        let mut low = (v % 100_000_000) as u32;
        v /= 100_000_000;
        for _ in 0..4 {
            let r = (low % 100) as usize;
            low /= 100;
            at -= 2;
            buf[at..at + 2].copy_from_slice(&PAIRS[2 * r..2 * r + 2]);
        }
    }
    let mut v = v as u32;
    while v >= 100 {
        let r = (v % 100) as usize;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[2 * r..2 * r + 2]);
    }
    if v >= 10 {
        let r = v as usize;
        buf[at - 2..at].copy_from_slice(&PAIRS[2 * r..2 * r + 2]);
    } else {
        buf[at - 1] = b'0' + v as u8;
    }
}

/// Writes `digits · 10^exp10` as `{}` lays it out — `0.000ddd`, `dd.ddd`
/// or `ddd000` — to the front of `buf`; returns its length.
fn lay_out(buf: &mut [u8; MAX_LEN], negative: bool, digits: u64, exp10: i32) -> usize {
    let n = digits.ilog10() as usize + 1;
    // The decimal point sits `point` digits from the left of the digits.
    let point = n as i32 + exp10;
    let s = usize::from(negative);
    buf[0] = b'-';
    if point <= 0 {
        let zeros = (-point) as usize;
        buf[s..s + 2].copy_from_slice(b"0.");
        buf[s + 2..s + 2 + zeros].fill(b'0');
        write_digits(&mut buf[s + 2 + zeros..s + 2 + zeros + n], digits);
        s + 2 + zeros + n
    } else if (point as usize) < n {
        // Digits one place right, then the leading ones back over the point.
        let p = point as usize;
        write_digits(&mut buf[s + 1..s + 1 + n], digits);
        buf.copy_within(s + 1..s + 1 + p, s);
        buf[s + p] = b'.';
        s + n + 1
    } else {
        let len = s + point as usize;
        write_digits(&mut buf[s..s + n], digits);
        buf[s + n..len].fill(b'0');
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    /// Asserts that [`push`] prints every value exactly as `{}`.
    fn check_all(values: impl IntoIterator<Item = f64>) {
        let (mut ours, mut std) = (Vec::new(), Vec::new());
        for x in values {
            ours.clear();
            std.clear();
            push(&mut ours, x);
            write!(std, "{x}").unwrap();
            assert_eq!(ours, std, "bits {:#018x}", x.to_bits());
        }
    }

    fn pow10(e: i32) -> f64 {
        format!("1e{e}").parse().unwrap()
    }

    #[test]
    fn powers_of_two_and_ten_print_as_std() {
        check_all((-1100..1100).flat_map(|e| {
            let p = 2f64.powi(e);
            [p, 3.0 * p]
        }));
        check_all((-330..310).flat_map(|e| {
            let p = pow10(e).to_bits();
            [p.saturating_sub(1), p, p + 1].map(f64::from_bits)
        }));
    }

    #[test]
    fn integers_thousandths_and_subnormals_print_as_std() {
        check_all((0..=200_000).flat_map(|i| [f64::from(i), f64::from(i) / 1000.0]));
        check_all((1..=100_000u64).map(f64::from_bits));
    }

    #[test]
    fn exact_ties_round_up_like_std() {
        // Each is an exact tie between two shortest candidates, which std
        // breaks upward in magnitude and round-half-even would not.
        for (bits, text) in [
            (0x3e60_0000_0000_0000, "0.000000029802322387695313"),
            (0x42ad_f337_edc4_9320, "16465226293833.563"),
            (0xc316_0cf3_e846_5925, "-1551672800286281.3"),
        ] {
            let x = f64::from_bits(bits);
            check_all([x]);
            let mut out = Vec::new();
            push(&mut out, x);
            assert_eq!(out, text.as_bytes());
        }
    }

    #[test]
    fn edge_values_print_as_std() {
        check_all([
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            1e21,
            1e22,
            1e23,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1 + 0.2,
            1e-7,
        ]);
    }

    #[test]
    fn seeded_random_values_print_as_std() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(24);
        check_all((0..200_000).map(|_| f64::from_bits(rng.next_u64())));
        check_all((0..200_000).map(|_| (rng.next_f64() - 0.5) * 2e-2));
    }

    #[test]
    fn table_ends_match_exact_integer_values() {
        // Computed independently with arbitrary-precision integers:
        // pow[i] = 5^i cut to 125 bits, inv[q] = ⌊2^(bits(5^q) + 124) / 5^q⌋ + 1.
        let t = tables();
        assert_eq!(t.pow[0], 1 << 124);
        assert_eq!(t.pow[1], 5 << 122);
        assert_eq!(
            t.pow[POW_LEN - 1],
            0x18b4_0a4e_ec43_7c52_78e1_316e_60a4_8310
        );
        assert_eq!(t.inv[0], (1 << 125) + 1);
        assert_eq!(t.inv[1], 34_028_236_692_093_846_346_337_460_743_176_821_146);
        assert_eq!(
            t.inv[INV_LEN - 1],
            0x12ab_168c_c36c_acbf_0958_f94b_3484_98a1
        );
    }

    /// 10^8 seeded values, half random bit patterns and half uniform in
    /// ±1e-2 like layout coordinates. Run it in release:
    /// `cargo test -p parhde-util --release --lib shortest -- --ignored`.
    #[test]
    #[ignore = "slow; run in release with --ignored"]
    fn sweep_of_a_hundred_million_values_prints_as_std() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5eed);
        check_all((0..50_000_000).flat_map(|_| {
            [
                f64::from_bits(rng.next_u64()),
                (rng.next_f64() - 0.5) * 2e-2,
            ]
        }));
    }
}
