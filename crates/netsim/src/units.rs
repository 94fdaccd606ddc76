//! Unit conventions and conversion helpers.
//!
//! The simulator uses plain `f64` quantities with fixed conventions:
//!
//! * **rates** are bits per second (`bps`),
//! * **data volumes** are bits unless a name says `bytes`,
//! * **time** is seconds,
//! * **latency** is seconds (helpers convert to milliseconds for reports).
//!
//! The helpers below exist so call sites read like the paper:
//! `gbps(10.0)`, `gbit(5000.0)` (a token-bucket budget), `mb(128.0)`.

/// Bits per second from gigabits per second.
#[inline]
pub fn gbps(v: f64) -> f64 {
    v * 1e9
}

/// Bits per second from megabits per second.
#[inline]
pub fn mbps(v: f64) -> f64 {
    v * 1e6
}

/// Bits from gigabits (the paper reports token budgets in Gbit).
#[inline]
pub fn gbit(v: f64) -> f64 {
    v * 1e9
}

/// Bits from bytes.
#[inline]
pub fn bytes(v: f64) -> f64 {
    v * 8.0
}

/// Bits from kibibytes (e.g. `write()` sizes: `kib(128.0)` = 128 KiB).
#[inline]
pub fn kib(v: f64) -> f64 {
    v * 8.0 * 1024.0
}

/// Bits from mebibytes.
#[inline]
pub fn mib(v: f64) -> f64 {
    v * 8.0 * 1024.0 * 1024.0
}

/// Bits from gigabytes (decimal, as used for data-set sizes).
#[inline]
pub fn gb(v: f64) -> f64 {
    v * 8e9
}

/// Bits from terabytes (decimal).
#[inline]
pub fn tb(v: f64) -> f64 {
    v * 8e12
}

/// Gigabits-per-second readout from a bits-per-second value.
#[inline]
pub fn as_gbps(bits_per_sec: f64) -> f64 {
    bits_per_sec / 1e9
}

/// Terabyte (decimal) readout from a bits value.
#[inline]
pub fn as_tb(bits: f64) -> f64 {
    bits / 8e12
}

/// Seconds from milliseconds.
#[inline]
pub fn ms(v: f64) -> f64 {
    v * 1e-3
}

/// Seconds from microseconds.
#[inline]
pub fn us(v: f64) -> f64 {
    v * 1e-6
}

/// Seconds from minutes.
#[inline]
pub fn minutes(v: f64) -> f64 {
    v * 60.0
}

/// Seconds from hours.
#[inline]
pub fn hours(v: f64) -> f64 {
    v * 3600.0
}

/// Seconds from days.
#[inline]
pub fn days(v: f64) -> f64 {
    v * 86_400.0
}

/// One week in seconds — the duration of the paper's per-pair experiments.
pub const WEEK: f64 = 7.0 * 86_400.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_roundtrip() {
        assert_eq!(as_gbps(gbps(10.0)), 10.0);
    }

    #[test]
    fn byte_conversions() {
        assert_eq!(bytes(1.0), 8.0);
        assert_eq!(kib(1.0), 8192.0);
        assert_eq!(mib(1.0), 8.0 * 1024.0 * 1024.0);
        assert_eq!(gb(1.0), 8e9);
        assert_eq!(as_tb(tb(9.0)), 9.0);
    }

    #[test]
    fn time_conversions() {
        assert_eq!(minutes(2.0), 120.0);
        assert_eq!(hours(1.0), 3600.0);
        assert_eq!(days(7.0), WEEK);
        assert!((us(500.0) - 0.0005).abs() < 1e-12);
    }

    #[test]
    fn transfer_volume_of_a_week_at_10gbps_is_petabyte_scale() {
        // The paper transferred >9 PB across all experiments; one week of
        // one 10 Gbps pair is ~0.75 PB, so ~12 pair-weeks reach 9 PB.
        let bits = gbps(10.0) * WEEK;
        let pb = bits / 8e15;
        assert!(pb > 0.7 && pb < 0.8, "got {pb}");
    }
}
