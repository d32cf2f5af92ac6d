//! Error types for adversarial attacks.

use std::fmt;

/// Error produced while configuring or running an attack.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackError {
    /// The victim network rejected the input (shape mismatch, …).
    Network(opad_nn::NnError),

    /// A tensor operation failed.
    Tensor(opad_tensor::TensorError),

    /// The detector guiding an attack failed.
    Detect(opad_detect::DetectError),

    /// An attack was configured with invalid parameters.
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },

    /// The seed input was malformed (not 1-D, empty, …).
    InvalidSeed {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::Network(e) => write!(f, "network error: {e}"),
            AttackError::Tensor(e) => write!(f, "tensor operation failed: {e}"),
            AttackError::Detect(e) => write!(f, "detector error: {e}"),
            AttackError::InvalidConfig { reason } => {
                write!(f, "invalid attack configuration: {reason}")
            }
            AttackError::InvalidSeed { reason } => write!(f, "invalid seed: {reason}"),
        }
    }
}

impl std::error::Error for AttackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AttackError::Network(e) => Some(e),
            AttackError::Tensor(e) => Some(e),
            AttackError::Detect(e) => Some(e),
            _ => None,
        }
    }
}

impl From<opad_nn::NnError> for AttackError {
    fn from(e: opad_nn::NnError) -> Self {
        AttackError::Network(e)
    }
}

impl From<opad_tensor::TensorError> for AttackError {
    fn from(e: opad_tensor::TensorError) -> Self {
        AttackError::Tensor(e)
    }
}

impl From<opad_detect::DetectError> for AttackError {
    fn from(e: opad_detect::DetectError) -> Self {
        AttackError::Detect(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_messages() {
        let e: AttackError = opad_tensor::TensorError::Empty { op: "x" }.into();
        assert!(matches!(e, AttackError::Tensor(_)));
        let e = AttackError::InvalidConfig {
            reason: "epsilon must be positive".into(),
        };
        assert!(e.to_string().contains("epsilon"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AttackError>();
    }
}
