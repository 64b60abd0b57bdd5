//! Resident clustering service for the `multiclust` workspace.
//!
//! The paper's premise is that one dataset admits many useful clusterings;
//! in production that means clients repeatedly asking for *alternative*
//! views of data that is already resident. This crate turns the
//! fit-from-scratch library into a long-lived process: a line-delimited
//! JSON protocol ([`protocol`], schema `multiclust-serve/v1`) served over
//! a TCP or Unix socket ([`server`]), with fitted solutions kept in a
//! bounded LRU [`registry`] so follow-up `assign`/`compare` requests
//! amortize the fit.
//!
//! The crate is deliberately ignorant of the algorithm families: a
//! [`FitDispatch`] closure (supplied by the harness layer, which knows
//! all eight `AlgorithmFamily`s) executes `fit` requests. That keeps the
//! dependency graph acyclic — the harness's `serve-equivalence` invariant
//! boots this very server in-process and compares its labels against the
//! direct library fit, bit for bit.
//!
//! Determinism contract: a response body is a pure function of the
//! request (plus, for `assign`/`compare`, the registered model it names).
//! Fits run on the deterministic thread pool, so the same request yields
//! byte-identical responses at any `MULTICLUST_THREADS` setting and under
//! any client interleaving. Only `stats` (wall-clock, latency sketches)
//! is exempt.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod registry;
pub mod server;

use std::path::PathBuf;
use std::sync::Arc;

use multiclust_core::Clustering;
use multiclust_data::Dataset;

pub use protocol::{ProtocolError, Request, SCHEMA};
pub use registry::{FittedModel, ModelRegistry};
pub use server::{Server, ServerConfig, ServerSummary};

/// Everything a `fit` request resolves to before dispatch: the named
/// family plus the exact inputs the harness's `FitInput` carries.
#[derive(Clone, Debug)]
pub struct FitSpec {
    /// Family name (one of the harness registry's eight).
    pub family: String,
    /// The objects.
    pub data: Dataset,
    /// Reference clustering for the alternative/orthogonal paradigms.
    pub given: Clustering,
    /// Attribute groups for the multi-view paradigm.
    pub view_groups: Vec<Vec<usize>>,
    /// Cluster count.
    pub k: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Executes a resolved fit request; the harness supplies the real one
/// over its family registry. `Err` strings surface verbatim as protocol
/// error responses.
pub type FitDispatch =
    Arc<dyn Fn(&FitSpec) -> Result<Vec<Clustering>, String> + Send + Sync>;

/// A parsed `--listen` / `MULTICLUST_LISTEN` address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Listen {
    /// `tcp:host:port` or a bare `host:port`.
    Tcp(String),
    /// `unix:/path/to.sock`.
    Unix(PathBuf),
}

impl Listen {
    /// Parses an address: `unix:<path>`, `tcp:<host:port>`, or a bare
    /// `<host:port>`.
    pub fn parse(s: &str) -> Result<Listen, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix: address needs a socket path".to_string());
            }
            return Ok(Listen::Unix(PathBuf::from(path)));
        }
        let addr = s.strip_prefix("tcp:").unwrap_or(s);
        if addr.rsplit_once(':').is_none() {
            return Err(format!(
                "cannot parse listen address {s:?} (expected unix:<path>, tcp:<host:port> or <host:port>)"
            ));
        }
        Ok(Listen::Tcp(addr.to_string()))
    }

    /// Renders the address back in its prefixed form.
    pub fn display(&self) -> String {
        match self {
            Listen::Tcp(a) => format!("tcp:{a}"),
            Listen::Unix(p) => format!("unix:{}", p.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_parse_forms() {
        assert_eq!(
            Listen::parse("unix:/tmp/x.sock"),
            Ok(Listen::Unix(PathBuf::from("/tmp/x.sock")))
        );
        assert_eq!(
            Listen::parse("tcp:127.0.0.1:9000"),
            Ok(Listen::Tcp("127.0.0.1:9000".to_string()))
        );
        assert_eq!(
            Listen::parse("127.0.0.1:0"),
            Ok(Listen::Tcp("127.0.0.1:0".to_string()))
        );
        assert!(Listen::parse("unix:").is_err());
        assert!(Listen::parse("nonsense").is_err());
    }
}
