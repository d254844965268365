//! Shared resolution of the two deployment settings.
//!
//! [`DISK_CACHE_ENV`] (`TAWA_DISK_CACHE`) and [`REMOTE_CACHE_ENV`]
//! (`TAWA_CACHED`) configure the session's local disk and remote daemon
//! tiers. Every consumer — [`CompileSession::new`](crate::CompileSession::new),
//! `tawa-serve run` and `tawa-cache stats --remote` — resolves them
//! through [`CacheEnv`], so the empty-value and `tcp:` conventions are
//! interpreted exactly once. No other library code reads the environment.

use std::path::PathBuf;

use crate::remote::{RemoteAddr, REMOTE_CACHE_ENV};
use crate::session::DISK_CACHE_ENV;

/// The resolved cache configuration from the process environment.
///
/// An unset or empty (after trimming) variable disables that tier —
/// `TAWA_DISK_CACHE= tawa-serve run ...` is a supported way to switch a
/// tier off in a wrapper script without unsetting anything.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheEnv {
    /// Local persistent cache directory ([`DISK_CACHE_ENV`]).
    pub disk: Option<PathBuf>,
    /// Remote `tawa-cached` daemon endpoint ([`REMOTE_CACHE_ENV`]).
    pub remote: Option<RemoteAddr>,
}

impl CacheEnv {
    /// Reads and resolves the variables from the process environment.
    pub fn from_env() -> CacheEnv {
        CacheEnv::from_values(
            std::env::var(DISK_CACHE_ENV).ok(),
            std::env::var(REMOTE_CACHE_ENV).ok(),
        )
    }

    /// Resolves raw variable values (testable without touching the
    /// process environment).
    pub fn from_values(disk: Option<String>, remote: Option<String>) -> CacheEnv {
        fn nonempty(v: Option<String>) -> Option<String> {
            v.filter(|s| !s.trim().is_empty())
        }
        CacheEnv {
            disk: nonempty(disk).map(PathBuf::from),
            remote: nonempty(remote).map(|s| RemoteAddr::parse(&s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_and_empty_values_disable_tiers() {
        assert_eq!(CacheEnv::from_values(None, None), CacheEnv::default());
        let env = CacheEnv::from_values(Some("  ".into()), Some(String::new()));
        assert_eq!(env, CacheEnv::default());
    }

    #[test]
    fn set_values_resolve_paths_and_transports() {
        let env = CacheEnv::from_values(
            Some("/var/cache/tawa".into()),
            Some("tcp:127.0.0.1:7450".into()),
        );
        assert_eq!(
            env.disk.as_deref(),
            Some(std::path::Path::new("/var/cache/tawa"))
        );
        assert_eq!(env.remote, Some(RemoteAddr::Tcp("127.0.0.1:7450".into())));
        let env = CacheEnv::from_values(None, Some("/run/tawa.sock".into()));
        assert_eq!(env.remote, Some(RemoteAddr::Unix("/run/tawa.sock".into())));
    }
}
