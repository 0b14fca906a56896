//! Numbers to JSON text without `core::fmt`.
//!
//! Floats print as the shortest decimal that reads back to the same
//! float, found with the Schubfach algorithm (Giulietti, "The Schubfach
//! way to render doubles"): one multiplication of the significand by a
//! precomputed power of ten decides which of at most four candidate
//! decimals lies inside the float's rounding interval. The digits and
//! the layout equal what `{}` prints — no exponent form, ties between
//! two equally short candidates resolved upward — with `.0` appended to
//! integral values below 10^15 so that the text of a float never reads
//! back as an integer.
//!
//! Three entry points share the kernel:
//!
//! * [`write_f64`] — shortest decimal identifying the `f64`;
//! * [`write_f32`] — shortest decimal identifying the `f32`, *provided*
//!   that decimal also survives the consumer path `text → f64 → f32`
//!   (see [`widen_f32`]);
//! * [`write_i64`] — integer digits.

/// Smallest and largest decimal exponent `k` for which the kernel needs
/// `10^k`: `-k` over `k = floor(log10(2^q))`, `q` in `-1074..=971`.
const K_MIN: i32 = -292;
const K_MAX: i32 = 324;

/// `g(k) = ceil(10^k · 2^(127 - floor(log2(10^k))))` as `(hi, lo)`: the
/// 128 most significant bits of `10^k`, rounded up.
static POW10: [(u64, u64); (K_MAX - K_MIN + 1) as usize] = build_pow10();

/// Limbs of the scratch integer the table is derived with: wide enough
/// for `10^324` (1077 bits) and for `2^1279 / 10^292` to keep 300 bits.
const LIMBS: usize = 40;

/// Computes [`POW10`] exactly with schoolbook multiply/divide by ten on
/// a 1280-bit integer. Nested floor division is exact
/// (`floor(floor(x / 10) / 10) == floor(x / 100)`), so the negative half
/// needs no multi-limb divisor.
const fn build_pow10() -> [(u64, u64); (K_MAX - K_MIN + 1) as usize] {
    let mut table = [(0u64, 0u64); (K_MAX - K_MIN + 1) as usize];

    // 10^k for k >= 0: x *= 10.
    let mut x = [0u32; LIMBS];
    x[0] = 1;
    let mut k = 0;
    while k <= K_MAX {
        table[(k - K_MIN) as usize] = top_128_ceil(&x, false);
        let mut carry = 0u64;
        let mut i = 0;
        while i < LIMBS {
            let t = x[i] as u64 * 10 + carry;
            x[i] = t as u32;
            carry = t >> 32;
            i += 1;
        }
        k += 1;
    }

    // 10^-j for j >= 1: x = floor(2^1279 / 10^j), never an exact quotient.
    let mut x = [0u32; LIMBS];
    x[LIMBS - 1] = 1 << 31;
    let mut j = 1;
    while j <= -K_MIN {
        let mut rem = 0u64;
        let mut i = LIMBS;
        while i > 0 {
            i -= 1;
            let t = (rem << 32) | x[i] as u64;
            x[i] = (t / 10) as u32;
            rem = t % 10;
        }
        table[(-j - K_MIN) as usize] = top_128_ceil(&x, true);
        j += 1;
    }
    table
}

/// The 128 most significant bits of `x` (normalised so bit 127 is set),
/// plus one if `x` stands for a value with more non-zero bits below them
/// (`inexact`: bits below the limbs; otherwise decided from the limbs).
const fn top_128_ceil(x: &[u32; LIMBS], inexact: bool) -> (u64, u64) {
    let mut top = LIMBS;
    while x[top - 1] == 0 {
        top -= 1;
    }
    let bits = top * 32 - x[top - 1].leading_zeros() as usize;
    // Gather bit positions [bits - 128, bits) into a u128, bit by limb.
    let mut acc: u128 = 0;
    let mut sticky = inexact;
    let mut i = top;
    let mut taken = 0usize;
    while i > 0 {
        i -= 1;
        let limb = x[i] as u128;
        let width = if i == top - 1 { bits - i * 32 } else { 32 };
        if taken + width <= 128 {
            acc = (acc << width) | limb;
            taken += width;
        } else if taken < 128 {
            let keep = 128 - taken;
            acc = (acc << keep) | (limb >> (width - keep));
            sticky |= limb & ((1 << (width - keep)) - 1) != 0;
            taken = 128;
        } else {
            sticky |= limb != 0;
        }
    }
    acc <<= 128 - taken;
    if sticky {
        acc += 1;
    }
    ((acc >> 64) as u64, acc as u64)
}

/// `g(k)` for the `f64` kernel.
fn pow10_128(k: i32) -> (u64, u64) {
    debug_assert!((K_MIN..=K_MAX).contains(&k));
    POW10[(k - K_MIN) as usize]
}

/// `g(k)` narrowed (rounding up) to the 64 bits the `f32` kernel needs.
fn pow10_64(k: i32) -> u64 {
    let (hi, lo) = pow10_128(k);
    hi + (lo != 0) as u64
}

/// `floor(log10(2^e))` for `|e| <= 1500`.
fn floor_log10_pow2(e: i32) -> i32 {
    (e * 1_262_611) >> 22
}

/// `floor(log10(3/4 · 2^e))` for `|e| <= 1500`.
fn floor_log10_three_quarters_pow2(e: i32) -> i32 {
    (e * 1_262_611 - 524_031) >> 22
}

/// `floor(log2(10^e))` for `|e| <= 1233`.
fn floor_log2_pow10(e: i32) -> i32 {
    (e * 1_741_647) >> 19
}

/// Picks the decimal from the scaled value `vb` and the scaled interval
/// ends `lower ..= upper` (all in units of a quarter of `10^k`): the
/// one-digit-shorter candidate if exactly one lies inside, else the
/// nearer of the two `10^k` neighbours, ties upward as `{}` does.
///
/// Which candidate wins follows the data in no pattern a branch
/// predictor learns, so both are computed and the choice is arithmetic:
/// comparisons become 0/1 and a mask selects. The result may end in
/// zeros; [`lay_out`] drops them.
fn pick(vb: u64, lower: u64, upper: u64, k: i32) -> (u64, i32) {
    let s = vb / 4;
    // The shorter candidate: the multiple of 10^(k+1) below or above.
    let sp = s / 10;
    let short_down = lower <= 40 * sp;
    let short_up = 40 * sp + 40 <= upper;
    let short = (s >= 10) & (short_down != short_up);
    // The full-length candidate: s, or s + 1 if only it is inside or, with
    // both or neither inside, if it is at least as near.
    let down = lower <= 4 * s;
    let up = 4 * s + 4 <= upper;
    let nearer_up = vb >= 4 * s + 2;
    let full = s + ((up & !down) | ((up == down) & nearer_up)) as u64;
    let shorter = sp + short_up as u64;
    let mask = (short as u64).wrapping_neg();
    (full ^ ((full ^ shorter) & mask), k + short as i32)
}

/// Shortest `(n, e)` with `n · 10^e` reading back to the positive finite
/// `f64` whose bits are `bits`; `n` may end in zeros.
fn shortest_f64(bits: u64) -> (u64, i32) {
    let fraction = bits & ((1 << 52) - 1);
    let exponent = ((bits >> 52) & 0x7ff) as i32;
    let (c, q) = if exponent != 0 {
        ((1 << 52) | fraction, exponent - 1075)
    } else {
        (fraction, -1074)
    };
    if (-52..=0).contains(&q) && c & ((1 << -q) - 1) == 0 {
        return (c >> -q, 0);
    }
    let even = c & 1 == 0;
    let lower_closer = fraction == 0 && exponent > 1;
    let k = if lower_closer {
        floor_log10_three_quarters_pow2(q)
    } else {
        floor_log10_pow2(q)
    };
    let h = q + floor_log2_pow10(-k) + 1;
    let g = pow10_128(-k);
    let rop = |cp: u64| -> u64 {
        let x = g.1 as u128 * cp as u128;
        let y = g.0 as u128 * cp as u128 + (x >> 64);
        (y >> 64) as u64 | (y as u64 > 1) as u64
    };
    let vbl = rop((4 * c - 2 + lower_closer as u64) << h);
    let vb = rop((4 * c) << h);
    let vbr = rop((4 * c + 2) << h);
    pick(vb, vbl + !even as u64, vbr - !even as u64, k)
}

/// [`shortest_f64`] for the positive finite `f32` whose bits are `bits`:
/// `n < 10^9`.
fn shortest_f32(bits: u32) -> (u32, i32) {
    let fraction = bits & ((1 << 23) - 1);
    let exponent = ((bits >> 23) & 0xff) as i32;
    let (c, q) = if exponent != 0 {
        ((1 << 23) | fraction, exponent - 150)
    } else {
        (fraction, -149)
    };
    if (-23..=0).contains(&q) && c & ((1 << -q) - 1) == 0 {
        return (c >> -q, 0);
    }
    let even = c & 1 == 0;
    let lower_closer = fraction == 0 && exponent > 1;
    let k = if lower_closer {
        floor_log10_three_quarters_pow2(q)
    } else {
        floor_log10_pow2(q)
    };
    let h = q + floor_log2_pow10(-k) + 1;
    let g = pow10_64(-k);
    let rop = |cp: u32| -> u64 {
        let p = g as u128 * cp as u128;
        ((p >> 64) as u32 | ((p >> 32) as u32 > 1) as u32) as u64
    };
    let vbl = rop((4 * c - 2 + lower_closer as u32) << h);
    let vb = rop((4 * c) << h);
    let vbr = rop((4 * c + 2) << h);
    let (n, e) = pick(vb, vbl + !even as u64, vbr - !even as u64, k);
    (n as u32, e)
}

/// `10^i` for the exponents at which a product or quotient of two exact
/// `f64`s is the correctly rounded `f64` of the decimal (Clinger).
pub(crate) const EXACT_POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The correctly rounded `f64` of `n · 10^e`, `n < 2^32`.
fn decimal_to_f64(n: u32, e: i32) -> f64 {
    match e {
        0..=22 => n as f64 * EXACT_POW10[e as usize],
        -22..=-1 => n as f64 / EXACT_POW10[-e as usize],
        _ => {
            // Off the exact range (|x| beyond 1e22 or below 1e-13): hand
            // the decimal to the standard library's correctly rounding
            // parser. Not `core::fmt`, and not where sensor values live.
            let mut text = [0u8; 16];
            let mut at = text.len();
            let mut exp = e.unsigned_abs();
            while exp > 0 {
                at -= 1;
                text[at] = b'0' + (exp % 10) as u8;
                exp /= 10;
            }
            if e < 0 {
                at -= 1;
                text[at] = b'-';
            }
            at -= 1;
            text[at] = b'e';
            let digits = ascii_digits(n as u64);
            let digits = &digits[20 - digit_count::<10>(n as u64)..];
            at -= digits.len();
            text[at..at + digits.len()].copy_from_slice(digits);
            std::str::from_utf8(&text[at..])
                .expect("ASCII")
                .parse()
                .expect("digits, 'e', exponent is a float literal")
        }
    }
}

/// The shortest decimal of `|x|` and the `f64` that decimal reads as —
/// `None` if that `f64` narrows to a different `f32`, and for zeros and
/// non-finite values, which have no digits to choose.
///
/// A consumer parses the text to `f64` and narrows to the column's kind,
/// which rounds twice. The two roundings disagree with a single rounding
/// only when the `f64` lands exactly on the midpoint between two `f32`s
/// (about one value in 2^29), so the check is made rather than assumed.
fn f32_decimal(x: f32) -> Option<(u32, i32, f64)> {
    if x == 0.0 || !x.is_finite() {
        return None;
    }
    let (n, e) = shortest_f32(x.abs().to_bits());
    let wide = decimal_to_f64(n, e);
    (wide as f32 == x.abs()).then_some((n, e, wide))
}

/// The `f64` a JSON tree holds for an `f32` cell: the one whose shortest
/// decimal is the `f32`'s own shortest decimal, so that serialising the
/// tree prints exactly what [`write_f32`] prints. Falls back to the plain
/// widening cast for the rare value whose shortest decimal does not
/// survive `text → f64 → f32`, and for zeros and non-finite values.
pub fn widen_f32(x: f32) -> f64 {
    match f32_decimal(x) {
        Some((_, _, wide)) => wide.copysign(x as f64),
        None => x as f64,
    }
}

/// Appends `x` at `f32` precision: the text of `widen_f32(x)`.
pub fn write_f32(out: &mut Vec<u8>, x: f32) {
    match f32_decimal(x) {
        Some((n, e, _)) => lay_out::<9>(out, x < 0.0, n as u64, e),
        None => write_f64(out, x as f64),
    }
}

/// Appends `x` as the shortest decimal that parses back to it, in plain
/// positional notation. Non-finite values have no JSON form and print as
/// `null`.
pub fn write_f64(out: &mut Vec<u8>, x: f64) {
    if !x.is_finite() {
        out.extend_from_slice(b"null");
    } else if x == 0.0 {
        out.extend_from_slice(if x.is_sign_negative() {
            b"-0.0"
        } else {
            b"0.0"
        });
    } else {
        let (n, e) = shortest_f64(x.abs().to_bits());
        lay_out::<17>(out, x < 0.0, n, e);
    }
}

/// Appends `v` in decimal.
pub fn write_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    let n = v.unsigned_abs();
    out.extend_from_slice(&ascii_digits(n)[20 - digit_count::<20>(n)..]);
}

/// `10^i`, `i < 20`.
const POW10_U64: [u64; 20] = {
    let mut table = [1u64; 20];
    let mut i = 1;
    while i < 20 {
        table[i] = table[i - 1] * 10;
        i += 1;
    }
    table
};

/// `'0'` in every byte: added to digit values, it makes them ASCII.
const ASCII_ZEROS: u128 = u128::from_le_bytes([b'0'; 16]);

/// Number of decimal digits of `n < 10^D`, `D <= 20`: one, plus one per
/// power of ten `n` reaches. Comparisons, not a loop over the digits.
fn digit_count<const D: usize>(n: u64) -> usize {
    1 + POW10_U64[1..D]
        .iter()
        .map(|&power| (n >= power) as usize)
        .sum::<usize>()
}

/// Every two-digit number as its two digit values, the tens in the low
/// byte.
const PAIRS: [u16; 100] = {
    let mut pairs = [0u16; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = (i / 10) as u16 | ((i % 10) as u16) << 8;
        i += 1;
    }
    pairs
};

/// The last eight digits of `v` as digit values, one per byte, the most
/// significant in the lowest byte (so `to_le_bytes` reads them in order).
/// Each pair is cut from `v` directly — a division and a remainder by
/// constants, all four at once — and looked up in [`PAIRS`].
fn eight_digits(v: u32) -> u64 {
    let pair = |divisor: u32| PAIRS[(v / divisor % 100) as usize] as u64;
    pair(1_000_000) | pair(10_000) << 16 | pair(100) << 32 | pair(1) << 48
}

/// The digit values of `n < 10^16`, one per byte, the last digit in the
/// top byte and zeros (leading zeros of the number) below the first. A
/// zero digit is a zero byte, so the count of trailing zero digits is
/// the count of leading zero bytes. A number of at most `D <= 9` digits
/// (every `f32` decimal) is one digit and four pairs; a longer one is two
/// runs of four pairs.
fn top_digit_values<const D: usize>(n: u64) -> u128 {
    debug_assert!(n < POW10_U64[D.min(16)]);
    if D <= 9 {
        (eight_digits(n as u32) as u128) << 64 | ((n / POW10_U64[8]) as u128) << 56
    } else {
        let low = (eight_digits((n % POW10_U64[8]) as u32) as u128) << 64;
        low | eight_digits((n / POW10_U64[8]) as u32) as u128
    }
}

/// All twenty digits of `n`, zero-padded, as ASCII.
fn ascii_digits(n: u64) -> [u8; 20] {
    let mut digits = [0u8; 20];
    let head = eight_digits((n / POW10_U64[16]) as u32).to_le_bytes();
    for (digit, value) in digits.iter_mut().zip(&head[4..]) {
        *digit = b'0' + value;
    }
    let tail = top_digit_values::<16>(n % POW10_U64[16]) + ASCII_ZEROS;
    digits[4..].copy_from_slice(&tail.to_le_bytes());
    digits
}

/// Lays out `n · 10^e` (`n` has at most `D` digits and may end in
/// zeros) the way `{}` lays out a float: every significant digit written
/// out, zeros filled in on either side of the point, and `.0` after an
/// integral value below 10^15.
///
/// A text of at most 16 bytes — every `f32` a sensor produces — is
/// composed in one 128-bit register by one formula for every shape. The
/// digit values, made with no loop, rotate to where the text wants its
/// first digit: after the sign's byte and, below one, after the zeros of
/// `0.0…`. A `'0'` added to every byte makes them ASCII (and the
/// sign's byte a `'-'` less three), and the bytes from the point on move
/// up one to make room for it. Every shift amount and mask depends on
/// the exponent and the counts alone, not on a comparison of the digits,
/// and the register is appended with one fixed-size copy. Longer texts
/// (17-digit `f64`s, exponents beyond ±13) take [`lay_out_wide`].
fn lay_out<const D: usize>(out: &mut Vec<u8>, negative: bool, n: u64, e: i32) {
    // An `f64`'s decimal has 16 or 17 digits, trailing zeros included: a
    // 17th that is a zero is dropped so that the register holds the rest.
    let (n, e) = if D > 16 {
        let drop = (n >= POW10_U64[16]) & n.is_multiple_of(10);
        (if drop { n / 10 } else { n }, e + drop as i32)
    } else {
        (n, e)
    };
    let count = digit_count::<D>(n);
    let point = count as i32 + e;
    let sign = negative as u32;
    // Zeros before the first digit: "0" and -point more below one.
    let zeros = (1 - point).max(0) as u32;
    let lead = zeros + sign;
    if count <= 16 && (-13..=14).contains(&point) {
        let values = top_digit_values::<D>(n);
        let len = count - values.leading_zeros() as usize / 8;
        // Down by the leading zeros, up by the text's lead: a rotation, so
        // the bytes that wrap are zeros either way — leading zeros of the
        // number, or trailing zeros of a text that fits.
        let text = values.rotate_right(8 * (16 + 16 - count as u32 - lead) % 128) + ASCII_ZEROS
            - (sign * (b'0' - b'-') as u32) as u128;
        // The point follows the sign and at least one digit.
        let at = 8 * (point + lead as i32) as u32;
        let below = (1u128 << at) - 1;
        let text = (text & below) | (b'.' as u128) << at | (text & !below) << 8;
        let text_len = sign as usize
            + if e >= 0 {
                point as usize + 2 * (point <= 15) as usize
            } else {
                zeros as usize + len + 1
            };
        if text_len <= 16 {
            // All 16 bytes are appended — a fixed-size copy, where a
            // variable one would be a call — and the tail cut off.
            let end = out.len() + text_len;
            out.extend_from_slice(&text.to_le_bytes());
            out.truncate(end);
            return;
        }
    }
    lay_out_wide(out, negative, n, count, e);
}

/// [`lay_out`] for a text longer than 16 bytes, byte run by byte run.
#[cold]
fn lay_out_wide(out: &mut Vec<u8>, negative: bool, n: u64, count: usize, e: i32) {
    let digits = ascii_digits(n);
    let digits = &digits[20 - count..];
    let len = digits.iter().rposition(|&d| d != b'0').expect("n > 0") + 1;
    let digits = &digits[..len];
    let point = count as i32 + e;
    if negative {
        out.push(b'-');
    }
    if point >= len as i32 {
        out.extend_from_slice(digits);
        out.resize(out.len() + point as usize - len, b'0');
        if point <= 15 {
            out.extend_from_slice(b".0");
        }
    } else if point > 0 {
        let (whole, fraction) = digits.split_at(point as usize);
        out.extend_from_slice(whole);
        out.push(b'.');
        out.extend_from_slice(fraction);
    } else {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + -point as usize, b'0');
        out.extend_from_slice(digits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_f64(x: f64) -> String {
        let mut out = Vec::new();
        write_f64(&mut out, x);
        String::from_utf8(out).unwrap()
    }

    fn text_f32(x: f32) -> String {
        let mut out = Vec::new();
        write_f32(&mut out, x);
        String::from_utf8(out).unwrap()
    }

    /// What `json::ser` printed through `core::fmt` before this kernel.
    fn std_f64(x: f64) -> String {
        if x == x.trunc() && x.abs() < 1e15 {
            format!("{x:.1}")
        } else {
            format!("{x}")
        }
    }

    /// The same layout at `f32` precision: `{}` digits (a precision would
    /// print the exact expansion of a large `f32`, not its shortest form).
    fn std_f32(x: f32) -> String {
        if x == x.trunc() && x.abs() < 1e15 {
            format!("{x}.0")
        } else {
            format!("{x}")
        }
    }

    /// `write_f32` without the double-rounding guard.
    fn shortest_text_f32(x: f32) -> String {
        let (n, e) = shortest_f32(x.abs().to_bits());
        let mut out = Vec::new();
        lay_out::<9>(&mut out, x < 0.0, n as u64, e);
        String::from_utf8(out).unwrap()
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn pow10_table_spot_values() {
        assert_eq!(pow10_128(0), (1 << 63, 0));
        assert_eq!(pow10_128(1), (0xA000_0000_0000_0000, 0));
        assert_eq!(
            pow10_128(-1),
            (0xCCCC_CCCC_CCCC_CCCC, 0xCCCC_CCCC_CCCC_CCCD)
        );
        // 10^55 = 5^55 · 2^55 is the last power that fits 128 bits exactly.
        let p55 = 5u128.pow(55);
        let norm = p55 << p55.leading_zeros();
        assert_eq!(pow10_128(55), ((norm >> 64) as u64, norm as u64));
        // 10^56 does not: the table entry is the truncation plus one.
        assert_eq!(pow10_128(56).1 & 1, 1);
        for k in K_MIN..=K_MAX {
            assert!(pow10_128(k).0 >> 63 == 1, "g({k}) is normalised");
            assert_eq!(
                floor_log2_pow10(k),
                (k as f64 * std::f64::consts::LOG2_10).floor() as i32
            );
        }
        assert_eq!(pow10_64(-1), 0xCCCC_CCCC_CCCC_CCCD);
        assert_eq!(pow10_64(27), (5u64.pow(27)) << 5u64.pow(27).leading_zeros());
    }

    #[test]
    fn layout_table() {
        for (x, want) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (5.0, "5.0"),
            (-5.0, "-5.0"),
            (0.1, "0.1"),
            (0.02, "0.02"),
            (1.5, "1.5"),
            (34.0722, "34.0722"),
            (-118.4441, "-118.4441"),
            (1e-7, "0.0000001"),
            (123456.789, "123456.789"),
            (999_999_999_999_999.0, "999999999999999.0"),
            (1e15, "1000000000000000"),
            (1e21, "1000000000000000000000"),
            (9_007_199_254_740_992.0, "9007199254740992"),
            (5e-324, &format!("{}", 5e-324)),
            (f64::MAX, &format!("{}", f64::MAX)),
            (f64::MIN_POSITIVE, &format!("{}", f64::MIN_POSITIVE)),
            (2.0f64.powi(-44), "0.00000000000005684341886080802"),
            // Exact tie between 562949953421312.2 and .3: upward.
            (562_949_953_421_312.0 + 0.25, "562949953421312.3"),
        ] {
            assert_eq!(text_f64(x), want);
            assert_eq!(text_f64(x), std_f64(x));
        }
        assert_eq!(text_f64(f64::NAN), "null");
        assert_eq!(text_f64(f64::INFINITY), "null");
    }

    #[test]
    fn f32_prints_at_f32_precision() {
        for (x, want) in [
            (0.1f32, "0.1"),
            (301.5, "301.5"),
            (-0.0, "-0.0"),
            (512.0, "512.0"),
            (16_777_216.0, "16777216.0"),
            // Interval end included because the significand is even.
            (33_554_448.0, "33554450.0"),
            // Exact ties: upward.
            (1_048_576.0 + 0.25, "1048576.3"),
            (1_048_576.0 + 0.75, "1048576.8"),
            (f32::MAX, "340282350000000000000000000000000000000"),
            (f32::MIN_POSITIVE, &format!("{}", f32::MIN_POSITIVE)),
            (1e-45, &format!("{}", 1e-45f32)),
        ] {
            assert_eq!(text_f32(x), want);
            assert_eq!(text_f32(x), std_f32(x));
            let back: f64 = text_f32(x).parse().unwrap();
            assert_eq!((back as f32).to_bits(), x.to_bits());
            assert_eq!(text_f64(widen_f32(x)), text_f32(x));
        }
        assert_eq!(text_f32(f32::NAN), "null");
        assert_eq!(text_f32(f32::NEG_INFINITY), "null");
    }

    #[test]
    fn double_rounding_fallback() {
        // The one positive f32 the exhaustive sweep finds whose shortest
        // decimal, read as f64, sits exactly on an f32 midpoint and then
        // narrows to the neighbour.
        let x = f32::from_bits(0x15ae_43fd);
        let short = shortest_text_f32(x);
        assert_eq!(short, format!("{x}"));
        assert_ne!(
            (short.parse::<f64>().unwrap() as f32).to_bits(),
            x.to_bits()
        );
        assert!(f32_decimal(x).is_none());
        for v in [x, -x] {
            let text = text_f32(v);
            assert_eq!(text, text_f64(v as f64));
            assert_eq!((text.parse::<f64>().unwrap() as f32).to_bits(), v.to_bits());
            assert_eq!(widen_f32(v), v as f64);
        }
    }

    #[test]
    fn integers() {
        let mut out = Vec::new();
        for v in [0, 7, -7, 10, 99, 100, 12345, i64::MAX, i64::MIN] {
            out.clear();
            write_i64(&mut out, v);
            assert_eq!(String::from_utf8(out.clone()).unwrap(), v.to_string());
        }
    }

    #[test]
    fn random_f64_bit_patterns_match_std() {
        let mut state = 0x9E37_79B9_7F4A_7C15;
        let mut checked = 0;
        while checked < 400_000 {
            let x = f64::from_bits(xorshift(&mut state));
            if !x.is_finite() {
                continue;
            }
            checked += 1;
            let text = text_f64(x);
            assert_eq!(text, std_f64(x), "bits {:#x}", x.to_bits());
            assert_eq!(text.parse::<f64>().unwrap().to_bits(), x.to_bits());
        }
        // Near-integers and short decimals, where the candidate choice
        // and the trailing-zero strip do the work.
        for i in 0..200_000u64 {
            let r = xorshift(&mut state);
            let x = (r % 2_000_000) as f64 / [1.0, 10.0, 100.0, 1000.0, 8.0][(i % 5) as usize];
            assert_eq!(text_f64(x), std_f64(x));
            let x = f64::from_bits(x.to_bits() + (r >> 60));
            assert_eq!(text_f64(x), std_f64(x));
        }
    }

    #[test]
    fn random_f32_bit_patterns_match_std_and_survive_the_consumer_path() {
        let mut state = 0xD1B5_4A32_D192_ED03;
        let mut checked = 0;
        while checked < 400_000 {
            let x = f32::from_bits(xorshift(&mut state) as u32);
            if !x.is_finite() {
                continue;
            }
            checked += 1;
            assert_eq!(shortest_text_f32(x), std_f32(x), "bits {:#x}", x.to_bits());
            let text = text_f32(x);
            let back: f64 = text.parse().unwrap();
            assert_eq!((back as f32).to_bits(), x.to_bits(), "{text}");
            assert_eq!(text_f64(widen_f32(x)), text, "tree and stream agree");
        }
    }

    /// Checks every positive `f32` whose bits are in `bits`, split across
    /// the machine's threads: the unguarded digits equal `{}`, the guarded
    /// text survives `parse::<f64>() as f32`, and the tree form prints the
    /// same bytes. Returns the values that need the widened-`f64`
    /// fallback.
    fn sweep(bits: std::ops::Range<u32>) -> Vec<u32> {
        let threads = std::thread::available_parallelism().map_or(2, |n| n.get()) as u32;
        let span = (bits.end - bits.start).div_ceil(threads);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = bits.start + t * span;
                    let hi = (lo + span).min(bits.end);
                    scope.spawn(move || {
                        let mut fallbacks = Vec::new();
                        for bits in lo..hi {
                            let x = f32::from_bits(bits);
                            if x == 0.0 {
                                continue;
                            }
                            assert_eq!(shortest_text_f32(x), std_f32(x), "bits {bits:#x}");
                            let text = text_f32(x);
                            let back: f64 = text.parse().unwrap();
                            assert_eq!((back as f32).to_bits(), x.to_bits(), "{text}");
                            assert_eq!(text_f64(widen_f32(x)), text, "bits {bits:#x}");
                            if f32_decimal(x).is_none() {
                                fallbacks.push(bits);
                            }
                        }
                        fallbacks
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("sweep worker"))
                .collect()
        })
    }

    /// Every finite `f32`: [`sweep`] over the positive ones (the sign is a
    /// prefix), printing the values that need the widened-`f64` fallback
    /// and their number (docs/ARCHITECTURE.md records it).
    ///
    /// `cargo test --release -p sensorsafe-json -- --ignored --nocapture
    /// exhaustive_f32` — about 15 minutes on two cores.
    #[test]
    #[ignore = "2^31 values; run in release"]
    fn exhaustive_f32_sweep() {
        let fallbacks = sweep(1..0x7f80_0000);
        for bits in &fallbacks {
            println!(
                "fallback: bits {bits:#010x} = {}",
                text_f32(f32::from_bits(*bits))
            );
        }
        println!(
            "double-rounding fallbacks among positive finite f32: {}",
            fallbacks.len()
        );
    }

    /// [`sweep`] over every positive `f32` in [2^-8, 2^12), the binades
    /// sensor readings live in (2^27 values): none of them needs the
    /// fallback.
    ///
    /// `cargo test --release -p sensorsafe-json --lib f32_sensor_binades_sweep
    /// -- --ignored` — about a minute on two cores.
    #[test]
    #[ignore = "2^27 values; run in release"]
    fn f32_sensor_binades_sweep() {
        let (lo, hi) = (2f32.powi(-8).to_bits(), 2f32.powi(12).to_bits());
        assert_eq!(hi - lo, 20 << 23);
        assert_eq!(sweep(lo..hi), Vec::<u32>::new());
    }

    /// Texts either side of 16 bytes, where [`lay_out`] hands over to
    /// [`lay_out_wide`]: every digit count a float has, points from far
    /// left of the first digit to far right of the last, both signs.
    #[test]
    fn layouts_either_side_of_the_register() {
        for digits in [
            "1",
            "12",
            "1234567",
            "12345678",
            "123456789",
            "1234567890123456",
            "12345678901234567",
        ] {
            for e in -40..=24 {
                for sign in ["", "-"] {
                    let x: f64 = format!("{sign}{digits}e{e}").parse().unwrap();
                    assert_eq!(text_f64(x), std_f64(x), "{sign}{digits}e{e}");
                    let y = x as f32;
                    if y.is_finite() {
                        assert_eq!(text_f32(y), std_f32(y), "{sign}{digits}e{e} as f32");
                    }
                }
            }
        }
    }
}
