//! Typed admission errors.
//!
//! Submission used to be infallible: a request whose prompt exceeds every KV pool
//! parked in the waitqueue forever, and a serving layer in front of a dead engine had
//! no way to learn it beyond silence. [`AdmitError`] makes both failure modes a typed,
//! serialisable value the caller can branch on — the cluster router re-routes a
//! [`AdmitError::NeverAdmissible`] request to an engine that *can* hold it (or sheds
//! it with a typed reason), and treats [`AdmitError::EngineDown`] as a failover
//! trigger instead of a wedge.

use serde::{Deserialize, Error, Serialize, Value};

/// Why a request was refused at submission.
///
/// Returned by [`crate::Engine::submit`] and `neo_serve::Server::submit`. Every
/// variant is a *caller* problem or a *fleet* problem — never a transient engine
/// state: a request refused as [`AdmitError::NeverAdmissible`] will be refused by the
/// same engine forever, so retrying locally is useless and the caller must re-route
/// or shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The request's full context (prompt + output tokens) exceeds the engine's
    /// largest KV pool. A sequence's KV lives wholly on one device (swap moves whole
    /// sequences), so a context that fits neither the GPU nor the CPU pool can never
    /// finish: admitting it would wedge the waitqueue.
    NeverAdmissible {
        /// KV tokens the request needs at completion (prompt + output).
        required_tokens: usize,
        /// Largest single-pool capacity of the refusing engine, in tokens.
        capacity_tokens: usize,
    },
    /// The engine is fail-stopped (see [`crate::Engine::fail`]) and accepts nothing
    /// until recovery.
    EngineDown,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::NeverAdmissible { required_tokens, capacity_tokens } => write!(
                f,
                "request needs {required_tokens} KV tokens but the largest pool holds \
                 {capacity_tokens}: never admissible"
            ),
            AdmitError::EngineDown => write!(f, "engine is down"),
        }
    }
}

impl std::error::Error for AdmitError {}

// The serde-shim derives cover named-field structs and unit-variant enums only, so the
// data-carrying variants get hand-written impls: an internally tagged object
// (`{"kind": ..., ...payload}`), the layout `serde(tag = "kind")` would produce.
impl Serialize for AdmitError {
    fn to_value(&self) -> Value {
        let kind = |k: &str| (String::from("kind"), Value::Str(String::from(k)));
        match self {
            AdmitError::NeverAdmissible { required_tokens, capacity_tokens } => {
                Value::Object(vec![
                    kind("never_admissible"),
                    (String::from("required_tokens"), required_tokens.to_value()),
                    (String::from("capacity_tokens"), capacity_tokens.to_value()),
                ])
            }
            AdmitError::EngineDown => Value::Object(vec![kind("engine_down")]),
        }
    }
}

impl Deserialize for AdmitError {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| Error::custom(format!("AdmitError: missing field {name:?}")))
        };
        let kind = String::from_value(field("kind")?).map_err(|e| e.in_field("kind"))?;
        match kind.as_str() {
            "never_admissible" => Ok(AdmitError::NeverAdmissible {
                required_tokens: usize::from_value(field("required_tokens")?)?,
                capacity_tokens: usize::from_value(field("capacity_tokens")?)?,
            }),
            "engine_down" => Ok(AdmitError::EngineDown),
            other => Err(Error::custom(format!("unknown AdmitError kind {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_variant() {
        let e = AdmitError::NeverAdmissible { required_tokens: 9000, capacity_tokens: 3000 };
        assert!(e.to_string().contains("never admissible"));
        assert!(e.to_string().contains("9000"));
        assert!(AdmitError::EngineDown.to_string().contains("down"));
    }

    #[test]
    fn round_trips_through_serde() {
        for e in [
            AdmitError::NeverAdmissible { required_tokens: 10, capacity_tokens: 3 },
            AdmitError::EngineDown,
        ] {
            let json = serde_json::to_string(&e).unwrap();
            let back: AdmitError = serde_json::from_str(&json).unwrap();
            assert_eq!(e, back);
        }
    }
}
