//! Trained models as JSON snapshots.
//!
//! A snapshot contains the full configuration and all three embedding
//! matrices, so a trained model can be reloaded for serving or further
//! analysis without retraining.

use crate::model::HamModel;
use std::fmt;

/// Errors produced when persisting or restoring a model.
#[derive(Debug)]
pub enum SerializeError {
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::Json(e) => write!(f, "json error: {e}"),
        }
    }
}

impl std::error::Error for SerializeError {}

impl From<serde_json::Error> for SerializeError {
    fn from(e: serde_json::Error) -> Self {
        SerializeError::Json(e)
    }
}

/// Serializes a model to a JSON string.
pub fn to_json(model: &HamModel) -> Result<String, SerializeError> {
    Ok(serde_json::to_string(model)?)
}

/// Restores a model from a JSON string.
pub fn from_json(json: &str) -> Result<HamModel, SerializeError> {
    Ok(serde_json::from_str(json)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HamConfig, HamVariant};

    fn model() -> HamModel {
        let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(8, 4, 2, 2, 2);
        HamModel::new(3, 15, config, 7)
    }

    #[test]
    fn json_roundtrip_preserves_scores() {
        let m = model();
        let restored = from_json(&to_json(&m).unwrap()).unwrap();
        let seq = vec![1, 2, 3, 4];
        assert_eq!(m.score_all(1, &seq), restored.score_all(1, &seq));
        assert_eq!(m.config(), restored.config());
    }

    #[test]
    fn invalid_json_is_an_error() {
        assert!(matches!(from_json("not json"), Err(SerializeError::Json(_))));
    }
}
