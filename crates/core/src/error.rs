//! Error types shared by all probabilistic-synopsis crates.

use std::fmt;

/// Errors raised while constructing or validating probabilistic relations and
/// synopses.
#[derive(Debug, Clone, PartialEq)]
pub enum PdsError {
    /// A probability was outside `[0, 1]` or a per-tuple/per-item pdf summed to
    /// more than one (beyond numerical tolerance).
    InvalidProbability {
        /// Human-readable location of the offending value (tuple index, item id ...).
        context: String,
        /// The offending probability mass.
        value: f64,
    },
    /// An item identifier was outside the declared domain `[0, n)`.
    ItemOutOfDomain {
        /// The offending item identifier.
        item: usize,
        /// The declared domain size.
        domain: usize,
    },
    /// The requested domain size, bucket count, or coefficient budget is
    /// invalid (e.g. zero buckets, `B > n` for wavelets).
    InvalidParameter {
        /// Description of the parameter and the constraint it violates.
        message: String,
    },
    /// An operation required exhaustive possible-world enumeration but the
    /// input is too large for that to be feasible.
    TooManyWorlds {
        /// Number of random components in the input.
        components: usize,
        /// The enumeration limit that was exceeded.
        limit: usize,
    },
    /// A frequency value was negative or not finite.
    InvalidFrequency {
        /// Human-readable location of the offending value.
        context: String,
        /// The offending frequency value.
        value: f64,
    },
    /// The durable substrate failed persistently and the store has entered
    /// its sticky degraded read-only mode: every mutating operation returns
    /// this error while queries keep serving the acknowledged prefix.  Only
    /// reopening the store clears it.
    Degraded {
        /// The durable-path failure that tripped degradation.
        cause: String,
    },
    /// A persistent file is in an on-disk format this build does not read
    /// (for example a write-ahead log written before its binary format).
    UnsupportedFormat {
        /// The file and the format found, named so an operator knows what
        /// to migrate.
        message: String,
    },
}

impl fmt::Display for PdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdsError::InvalidProbability { context, value } => {
                write!(f, "invalid probability {value} ({context})")
            }
            PdsError::ItemOutOfDomain { item, domain } => {
                write!(f, "item {item} outside domain [0, {domain})")
            }
            PdsError::InvalidParameter { message } => {
                write!(f, "invalid parameter: {message}")
            }
            PdsError::TooManyWorlds { components, limit } => write!(
                f,
                "possible-world enumeration over {components} components exceeds limit {limit}"
            ),
            PdsError::InvalidFrequency { context, value } => {
                write!(f, "invalid frequency {value} ({context})")
            }
            PdsError::Degraded { cause } => {
                write!(f, "store is degraded (read-only): {cause}")
            }
            PdsError::UnsupportedFormat { message } => {
                write!(f, "unsupported on-disk format: {message}")
            }
        }
    }
}

impl std::error::Error for PdsError {}

/// Convenience result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, PdsError>;

/// Absolute tolerance used when validating probability masses.
pub const PROB_TOLERANCE: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = PdsError::InvalidProbability {
            context: "tuple 3".into(),
            value: 1.5,
        };
        assert!(e.to_string().contains("1.5"));
        assert!(e.to_string().contains("tuple 3"));

        let e = PdsError::ItemOutOfDomain { item: 9, domain: 4 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));

        let e = PdsError::TooManyWorlds {
            components: 64,
            limit: 24,
        };
        assert!(e.to_string().contains("64"));

        let e = PdsError::InvalidFrequency {
            context: "item 2".into(),
            value: -1.0,
        };
        assert!(e.to_string().contains("-1"));

        let e = PdsError::InvalidParameter {
            message: "B must be >= 1".into(),
        };
        assert!(e.to_string().contains("B must be"));

        let e = PdsError::Degraded {
            cause: "wal-append: injected EIO".into(),
        };
        assert!(e.to_string().contains("degraded"));
        assert!(e.to_string().contains("wal-append"));

        let e = PdsError::UnsupportedFormat {
            message: "wal-0.log: version-1 text frames".into(),
        };
        assert!(e.to_string().contains("unsupported"));
        assert!(e.to_string().contains("wal-0.log: version-1 text"));
    }

    #[test]
    fn error_implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&PdsError::InvalidParameter {
            message: "x".into(),
        });
    }
}
