//! Up-front validation of a [`SimConfig`]: durations and periods that
//! would stall the simulation (a zero or negative interval schedules
//! the next round at the current instant, forever) or poison it (NaN)
//! are rejected with an error naming the field, before any work starts.

use crate::sim::SimConfig;
use std::fmt;

/// A [`SimConfig`] field that cannot drive a simulation, as reported by
/// [`SimConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A period or time cap that must be a positive finite number of
    /// seconds.
    NotPositive {
        /// The offending `SimConfig` field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// A duration that must be a non-negative finite number of seconds.
    Negative {
        /// The offending `SimConfig` field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
}

impl ConfigError {
    /// The name of the offending `SimConfig` field.
    pub fn field(&self) -> &'static str {
        match *self {
            ConfigError::NotPositive { field, .. } | ConfigError::Negative { field, .. } => field,
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::NotPositive { field, value } => write!(
                f,
                "SimConfig.{field} must be a positive finite number of seconds, got {value}"
            ),
            ConfigError::Negative { field, value } => write!(
                f,
                "SimConfig.{field} must be a non-negative finite number of seconds, got {value}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl SimConfig {
    /// Checks the fields a simulation cannot run with: `interval_s`,
    /// `tick_s`, `sample_every_s`, `loss_sample_every_s` and `max_time_s`
    /// must be positive and finite, and `min_rescale_interval_s`
    /// non-negative and finite. Reports the first offending field, in
    /// that order. [`crate::Simulation::new`] runs this check.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [
            ("interval_s", self.interval_s),
            ("tick_s", self.tick_s),
            ("sample_every_s", self.sample_every_s),
            ("loss_sample_every_s", self.loss_sample_every_s),
            ("max_time_s", self.max_time_s),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(ConfigError::NotPositive { field, value });
            }
        }
        let value = self.min_rescale_interval_s;
        if !(value.is_finite() && value >= 0.0) {
            return Err(ConfigError::Negative {
                field: "min_rescale_interval_s",
                value,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `SimConfig::default()` with `field` set to `value`.
    fn with(field: &str, value: f64) -> SimConfig {
        let mut cfg = SimConfig::default();
        let slot = match field {
            "interval_s" => &mut cfg.interval_s,
            "tick_s" => &mut cfg.tick_s,
            "sample_every_s" => &mut cfg.sample_every_s,
            "loss_sample_every_s" => &mut cfg.loss_sample_every_s,
            "max_time_s" => &mut cfg.max_time_s,
            "min_rescale_interval_s" => &mut cfg.min_rescale_interval_s,
            other => panic!("no such field: {other}"),
        };
        *slot = value;
        cfg
    }

    const BAD_ANYWHERE: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0];

    #[test]
    fn default_config_is_valid() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
    }

    fn assert_rejects(field: &'static str, value: f64) {
        let err = with(field, value)
            .validate()
            .expect_err(&format!("{field} = {value} accepted"));
        assert_eq!(err.field(), field, "{err}");
        assert!(err.to_string().contains(field), "{err}");
    }

    #[test]
    fn interval_s_must_be_positive_and_finite() {
        for v in BAD_ANYWHERE.into_iter().chain([0.0, -0.0]) {
            assert_rejects("interval_s", v);
        }
        assert_eq!(with("interval_s", 1e-3).validate(), Ok(()));
    }

    #[test]
    fn tick_s_must_be_positive_and_finite() {
        for v in BAD_ANYWHERE.into_iter().chain([0.0, -0.0]) {
            assert_rejects("tick_s", v);
        }
        assert_eq!(with("tick_s", 0.5).validate(), Ok(()));
    }

    #[test]
    fn sample_every_s_must_be_positive_and_finite() {
        for v in BAD_ANYWHERE.into_iter().chain([0.0, -0.0]) {
            assert_rejects("sample_every_s", v);
        }
        assert_eq!(with("sample_every_s", 300.0).validate(), Ok(()));
    }

    #[test]
    fn loss_sample_every_s_must_be_positive_and_finite() {
        for v in BAD_ANYWHERE.into_iter().chain([0.0, -0.0]) {
            assert_rejects("loss_sample_every_s", v);
        }
        assert_eq!(with("loss_sample_every_s", 60.0).validate(), Ok(()));
    }

    #[test]
    fn max_time_s_must_be_positive_and_finite() {
        for v in BAD_ANYWHERE.into_iter().chain([0.0, -0.0]) {
            assert_rejects("max_time_s", v);
        }
        assert_eq!(with("max_time_s", 15_552_000.0).validate(), Ok(()));
    }

    #[test]
    fn min_rescale_interval_s_must_be_non_negative_and_finite() {
        for v in BAD_ANYWHERE {
            assert_rejects("min_rescale_interval_s", v);
        }
        for v in [0.0, 300.0, 1e9] {
            assert_eq!(with("min_rescale_interval_s", v).validate(), Ok(()));
        }
    }

    #[test]
    fn first_offending_field_is_reported() {
        let mut cfg = with("tick_s", 0.0);
        cfg.max_time_s = f64::NAN;
        assert_eq!(cfg.validate().map_err(|e| e.field()), Err("tick_s"));
    }
}
