//! Traffic access patterns.
//!
//! The paper drives every link with three patterns (Section 3.1):
//!
//! * **full-speed** — transfer continuously (long-running batch or
//!   streaming jobs);
//! * **10-30** — transfer 10 s, rest 30 s (short analytics queries);
//! * **5-30** — transfer 5 s, rest 30 s.
//!
//! [`TrafficPattern`] captures these as a duty cycle over simulated time.

use std::fmt;

/// A deterministic on/off traffic schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Continuous transmission.
    FullSpeed,
    /// Transmit for `on_s` seconds, then idle `off_s` seconds, repeating.
    DutyCycle {
        /// Transmission burst length in seconds.
        on_s: f64,
        /// Idle gap length in seconds.
        off_s: f64,
    },
}

impl TrafficPattern {
    /// The paper's "10-30" pattern.
    pub const TEN_THIRTY: TrafficPattern = TrafficPattern::DutyCycle {
        on_s: 10.0,
        off_s: 30.0,
    };

    /// The paper's "5-30" pattern.
    pub const FIVE_THIRTY: TrafficPattern = TrafficPattern::DutyCycle {
        on_s: 5.0,
        off_s: 30.0,
    };

    /// All three patterns used throughout the measurement campaigns.
    pub const ALL: [TrafficPattern; 3] = [
        TrafficPattern::FullSpeed,
        TrafficPattern::TEN_THIRTY,
        TrafficPattern::FIVE_THIRTY,
    ];

    /// Is the sender transmitting at simulated time `t` (seconds)?
    #[inline]
    pub fn is_on(&self, t: f64) -> bool {
        match *self {
            TrafficPattern::FullSpeed => true,
            TrafficPattern::DutyCycle { on_s, off_s } => {
                let period = on_s + off_s;
                debug_assert!(period > 0.0);
                t.rem_euclid(period) < on_s
            }
        }
    }

    /// Fraction of wall time spent transmitting.
    pub fn duty_fraction(&self) -> f64 {
        match *self {
            TrafficPattern::FullSpeed => 1.0,
            TrafficPattern::DutyCycle { on_s, off_s } => on_s / (on_s + off_s),
        }
    }

    /// Short label matching the paper's figures.
    pub fn label(&self) -> String {
        match *self {
            TrafficPattern::FullSpeed => "full-speed".to_string(),
            TrafficPattern::DutyCycle { on_s, off_s } => {
                format!("{}-{}", on_s.round() as i64, off_s.round() as i64)
            }
        }
    }
}

impl fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_speed_always_on() {
        for t in [0.0, 1.5, 1e6] {
            assert!(TrafficPattern::FullSpeed.is_on(t));
        }
        assert_eq!(TrafficPattern::FullSpeed.duty_fraction(), 1.0);
    }

    #[test]
    fn ten_thirty_cycle() {
        let p = TrafficPattern::TEN_THIRTY;
        assert!(p.is_on(0.0));
        assert!(p.is_on(9.99));
        assert!(!p.is_on(10.0));
        assert!(!p.is_on(39.99));
        assert!(p.is_on(40.0));
        assert!((p.duty_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn five_thirty_cycle() {
        let p = TrafficPattern::FIVE_THIRTY;
        assert!(p.is_on(4.9));
        assert!(!p.is_on(5.0));
        assert!(p.is_on(35.0));
        assert!((p.duty_fraction() - 5.0 / 35.0).abs() < 1e-12);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(TrafficPattern::FullSpeed.label(), "full-speed");
        assert_eq!(TrafficPattern::TEN_THIRTY.label(), "10-30");
        assert_eq!(TrafficPattern::FIVE_THIRTY.label(), "5-30");
    }
}
