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
fn pick(vb: u64, lower: u64, upper: u64, k: i32) -> (u64, i32) {
    let s = vb / 4;
    if s >= 10 {
        let sp = s / 10;
        let down_inside = lower <= 40 * sp;
        let up_inside = 40 * sp + 40 <= upper;
        if down_inside != up_inside {
            return strip_zeros(sp + up_inside as u64, k + 1);
        }
    }
    let down_inside = lower <= 4 * s;
    let up_inside = 4 * s + 4 <= upper;
    if down_inside != up_inside {
        return strip_zeros(s + up_inside as u64, k);
    }
    strip_zeros(s + (vb >= 4 * s + 2) as u64, k)
}

/// `n · 10^e` with the trailing zeros of `n` moved into `e`.
fn strip_zeros(mut n: u64, mut e: i32) -> (u64, i32) {
    while n.is_multiple_of(10) {
        n /= 10;
        e += 1;
    }
    (n, e)
}

/// Shortest `(n, e)` with `n · 10^e` reading back to the positive finite
/// `f64` whose bits are `bits`; `n` carries no trailing zeros.
fn shortest_f64(bits: u64) -> (u64, i32) {
    let fraction = bits & ((1 << 52) - 1);
    let exponent = ((bits >> 52) & 0x7ff) as i32;
    let (c, q) = if exponent != 0 {
        ((1 << 52) | fraction, exponent - 1075)
    } else {
        (fraction, -1074)
    };
    if (-52..=0).contains(&q) && c & ((1 << -q) - 1) == 0 {
        return strip_zeros(c >> -q, 0);
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

/// [`shortest_f64`] for the positive finite `f32` whose bits are `bits`.
fn shortest_f32(bits: u32) -> (u32, i32) {
    let fraction = bits & ((1 << 23) - 1);
    let exponent = ((bits >> 23) & 0xff) as i32;
    let (c, q) = if exponent != 0 {
        ((1 << 23) | fraction, exponent - 150)
    } else {
        (fraction, -149)
    };
    if (-23..=0).contains(&q) && c & ((1 << -q) - 1) == 0 {
        let (n, e) = strip_zeros((c >> -q) as u64, 0);
        return (n as u32, e);
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
const EXACT_POW10: [f64; 23] = [
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
            let mut digits = [0u8; 20];
            let digits = u64_digits(n as u64, &mut digits);
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
        Some((n, e, _)) => write_decimal(out, x < 0.0, n as u64, e),
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
        write_decimal(out, x < 0.0, n, e);
    }
}

/// Appends `v` in decimal.
pub fn write_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    let mut digits = [0u8; 20];
    out.extend_from_slice(u64_digits(v.unsigned_abs(), &mut digits));
}

/// Lays out `n · 10^e` (`n` without trailing zeros) the way `{}` lays out
/// a float: every digit written out, zeros filled in on either side of
/// the point, and `.0` after an integral value below 10^15.
fn write_decimal(out: &mut Vec<u8>, negative: bool, n: u64, e: i32) {
    let mut digits = [0u8; 20];
    let digits = u64_digits(n, &mut digits);
    let point = digits.len() as i32 + e;
    if negative {
        out.push(b'-');
    }
    if e >= 0 {
        out.extend_from_slice(digits);
        out.resize(out.len() + e as usize, b'0');
        if point <= 15 {
            out.extend_from_slice(b".0");
        }
    } else if point > 0 {
        let (whole, frac) = digits.split_at(point as usize);
        out.extend_from_slice(whole);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + -point as usize, b'0');
        out.extend_from_slice(digits);
    }
}

const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// The decimal digits of `n`, written right-aligned into `buf`.
fn u64_digits(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    &buf[at..]
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
        write_decimal(&mut out, x < 0.0, n as u64, e);
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

    /// Every finite `f32`: the unguarded digits equal `{}`, the guarded
    /// text survives `parse::<f64>() as f32`, the tree form prints the
    /// same bytes, and the number of values that need the widened-`f64`
    /// fallback is printed (docs/ARCHITECTURE.md records it).
    ///
    /// `cargo test --release -p sensorsafe-json -- --ignored --nocapture
    /// exhaustive_f32` — about 15 minutes on two cores.
    #[test]
    #[ignore = "2^32 values; run in release"]
    fn exhaustive_f32_sweep() {
        let threads = std::thread::available_parallelism().map_or(2, |n| n.get()) as u64;
        let span = (1u64 << 31).div_ceil(threads);
        let fallbacks: u64 = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut fallbacks = Vec::new();
                        let hi = ((t + 1) * span).min(0x7f80_0000);
                        for bits in t * span..hi {
                            // Positive values; the sign is a prefix.
                            let x = f32::from_bits(bits as u32);
                            if x == 0.0 {
                                continue;
                            }
                            assert_eq!(shortest_text_f32(x), std_f32(x), "bits {bits:#x}");
                            let text = text_f32(x);
                            let back: f64 = text.parse().unwrap();
                            assert_eq!((back as f32).to_bits(), x.to_bits(), "{text}");
                            assert_eq!(text_f64(widen_f32(x)), text, "bits {bits:#x}");
                            if f32_decimal(x).is_none() {
                                fallbacks.push(bits as u32);
                            }
                        }
                        fallbacks
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| {
                    let found = w.join().expect("sweep worker");
                    for bits in &found {
                        println!(
                            "fallback: bits {bits:#010x} = {}",
                            text_f32(f32::from_bits(*bits))
                        );
                    }
                    found.len() as u64
                })
                .sum()
        });
        println!("double-rounding fallbacks among positive finite f32: {fallbacks}");
    }
}
