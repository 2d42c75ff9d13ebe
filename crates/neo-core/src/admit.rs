//! Typed admission errors.
//!
//! Submission used to be infallible: a request whose prompt exceeds every KV pool
//! parked in the waitqueue forever, and a serving layer in front of a dead engine had
//! no way to learn it beyond silence. [`AdmitError`] makes both failure modes a typed
//! value the caller can branch on — the cluster router re-routes a
//! [`AdmitError::NeverAdmissible`] request to an engine that *can* hold it (or sheds it
//! with a typed reason), and treats [`AdmitError::EngineDown`] as a failover trigger
//! instead of a wedge. A request id the engine cannot key — [`AdmitError::DuplicateId`],
//! [`AdmitError::IdOutOfWindow`] — is refused the same way, before anything changes.

use neo_kvcache::OutOfWindow;

/// Why a request was refused at submission.
///
/// Returned by [`crate::Engine::submit`] and `neo_serve::Server::submit`. Every
/// variant is a *caller* problem or a *fleet* problem — never a transient engine
/// state: a request refused as [`AdmitError::NeverAdmissible`] will be refused by the
/// same engine forever, so retrying locally is useless and the caller must re-route
/// or shed. `Server::submit` numbers its requests itself and never returns the two
/// id variants.
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
    /// A request with this id is live, or has finished, on the engine.
    DuplicateId(u64),
    /// The id lies so far from the live requests' ids that holding it would stretch the
    /// engine's request table past [`neo_kvcache::MAX_ID_WINDOW`] ids.
    IdOutOfWindow {
        /// The refused id.
        id: u64,
        /// The oldest live request id.
        oldest: u64,
        /// The newest live request id.
        newest: u64,
    },
}

impl From<OutOfWindow> for AdmitError {
    fn from(e: OutOfWindow) -> Self {
        AdmitError::IdOutOfWindow { id: e.id, oldest: e.oldest, newest: e.newest }
    }
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
            AdmitError::DuplicateId(id) => write!(f, "request id {id} was already submitted"),
            AdmitError::IdOutOfWindow { id, oldest, newest } => write!(
                f,
                "request id {id} lies too far from the live request ids {oldest}..={newest}"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_variant() {
        let e = AdmitError::NeverAdmissible { required_tokens: 9000, capacity_tokens: 3000 };
        assert!(e.to_string().contains("never admissible"));
        assert!(e.to_string().contains("9000"));
        assert!(AdmitError::EngineDown.to_string().contains("down"));
        assert!(AdmitError::DuplicateId(17).to_string().contains("17"));
        let far = AdmitError::from(OutOfWindow { id: 99, oldest: 4, newest: 7 });
        assert!(far.to_string().contains("99") && far.to_string().contains("4..=7"));
    }
}
