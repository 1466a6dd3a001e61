//! The TM registry — fallible, name-driven construction of the whole suite.
//!
//! [`TmRegistry`] is data: one [`TmSpec`] per TM carrying its name, its
//! static [`StmProperties`], and a build function consuming an
//! [`StmConfig`]. Each entry reads the facts its TM's design states once,
//! without building an instance. Lookups return `Result`s whose errors
//! list every valid name, so a CLI typo produces a menu instead of a
//! backtrace.
//!
//! ```
//! use tm_stm::{StmConfig, TmRegistry};
//!
//! let reg = TmRegistry::suite();
//! let stm = reg.build("tl2", 8).unwrap();
//! assert_eq!(stm.name(), "tl2");
//! let err = reg.build("tl3", 8).err().expect("typos are errors, not panics");
//! assert!(err.to_string().contains("tl2"));
//!
//! // Sweep the whole design space from one configuration:
//! for spec in reg.specs() {
//!     assert_eq!(spec.build(&StmConfig::new(2)).name(), spec.name);
//! }
//! ```

use crate::api::{Stm, StmProperties};
use crate::config::StmConfig;
use crate::txn::{Design, Tm};

/// One entry of the registry: everything the harness, CLI, and benches
/// need to know about a TM without instantiating it.
#[derive(Clone, Copy)]
pub struct TmSpec {
    /// The TM's stable name (matches [`Stm::name`]).
    pub name: &'static str,
    /// Do this TM's transactions block all others for their lifetime
    /// (the global lock)?
    pub blocking: bool,
    /// The design-space position (matches [`Stm::properties`]).
    pub properties: StmProperties,
    build: BuildFn,
}

impl TmSpec {
    /// The entry of the TM whose design is `D`.
    const fn of<D: Design<Args = ()> + 'static>() -> TmSpec {
        TmSpec {
            name: D::NAME,
            blocking: D::BLOCKING,
            properties: D::PROPERTIES,
            build: |cfg| Box::new(Tm::<D>::with_config(cfg)),
        }
    }

    /// Builds an instance from a configuration.
    pub fn build(&self, cfg: &StmConfig) -> Box<dyn Stm> {
        (self.build)(cfg)
    }
}

impl std::fmt::Debug for TmSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TmSpec")
            .field("name", &self.name)
            .field("blocking", &self.blocking)
            .finish_non_exhaustive()
    }
}

/// A failed registry lookup, carrying enough context to print a menu.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TmLookupError {
    /// No suite TM has this name.
    UnknownTm {
        /// The name that failed to resolve.
        name: String,
        /// Every valid TM name, in registry order.
        available: Vec<&'static str>,
    },
}

impl std::fmt::Display for TmLookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TmLookupError::UnknownTm { name, available } => write!(
                f,
                "unknown TM '{name}' (available: {})",
                available.join(", ")
            ),
        }
    }
}

impl std::error::Error for TmLookupError {}

/// The registry of suite TMs. Cheap to construct and clone: the spec
/// table is a process-wide static.
#[derive(Clone, Debug)]
pub struct TmRegistry {
    specs: &'static [TmSpec],
}

/// The build-function shape shared by every registry entry.
type BuildFn = fn(&StmConfig) -> Box<dyn Stm>;

/// The entry table, in the registry's canonical TM order (pinned because
/// rendered tables and swept batteries follow it).
static SUITE: [TmSpec; 9] = [
    TmSpec::of::<crate::glock::Glock>(),
    TmSpec::of::<crate::tl2::Tl2>(),
    TmSpec::of::<crate::dstm::Dstm>(),
    TmSpec::of::<crate::astm::Astm>(),
    TmSpec::of::<crate::visible::Visible>(),
    TmSpec::of::<crate::mvstm::Mv>(),
    TmSpec::of::<crate::nonopaque::NonOpaque>(),
    TmSpec::of::<crate::sistm::Si>(),
    TmSpec::of::<crate::tpl::Tpl>(),
];

impl TmRegistry {
    /// The registry of the nine in-tree TMs, in the canonical sweep order.
    pub fn suite() -> Self {
        TmRegistry { specs: &SUITE }
    }

    /// All specs, in registry order.
    pub fn specs(&self) -> &[TmSpec] {
        self.specs
    }

    /// Every TM name, in registry order.
    pub fn names(&self) -> Vec<&'static str> {
        self.specs.iter().map(|s| s.name).collect()
    }

    /// Looks up a TM by bare name.
    pub fn get(&self, name: &str) -> Result<&TmSpec, TmLookupError> {
        self.specs
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| TmLookupError::UnknownTm {
                name: name.to_string(),
                available: self.names(),
            })
    }

    /// Builds the named TM over `k` registers in the default
    /// configuration.
    pub fn build(&self, name: &str, k: usize) -> Result<Box<dyn Stm>, TmLookupError> {
        Ok(self.get(name)?.build(&StmConfig::new(k)))
    }

    /// A `Copy` factory rebuilding the named TM at any register count —
    /// the shape every sweep and conformance battery consumes (and safe to
    /// hand to scoped worker threads).
    pub fn factory(
        &self,
        name: &str,
    ) -> Result<impl Fn(usize) -> Box<dyn Stm> + Send + Sync + Copy + 'static, TmLookupError> {
        let build = self.get(name)?.build;
        Ok(move |k: usize| build(&StmConfig::new(k)))
    }
}

impl Default for TmRegistry {
    fn default() -> Self {
        TmRegistry::suite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::run_tx;

    #[test]
    fn registry_matches_the_historical_suite_order() {
        let reg = TmRegistry::suite();
        assert_eq!(
            reg.names(),
            vec![
                "glock",
                "tl2",
                "dstm",
                "astm",
                "visible",
                "mvstm",
                "nonopaque",
                "sistm",
                "tpl"
            ]
        );
        // Each entry builds the TM it names.
        for spec in reg.specs() {
            assert_eq!(spec.build(&StmConfig::new(1)).name(), spec.name);
        }
    }

    #[test]
    fn lookup_errors_carry_the_menu() {
        let reg = TmRegistry::suite();
        let err = reg.get("tl3").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown TM 'tl3'"), "{msg}");
        assert!(msg.contains("glock") && msg.contains("tpl"), "{msg}");
        // A TM name with a suffix is just another unknown name.
        assert!(matches!(
            reg.get("tl2+x").unwrap_err(),
            TmLookupError::UnknownTm { .. }
        ));
    }

    #[test]
    fn factory_is_copy_and_rebuilds_fresh_instances() {
        let reg = TmRegistry::suite();
        let make = reg.factory("mvstm").unwrap();
        let make2 = make; // Copy
        let a = make(2);
        let b = make2(3);
        assert_eq!(a.k(), 2);
        assert_eq!(b.k(), 3);
        run_tx(a.as_ref(), 0, |tx| tx.write(0, 1));
        let (v, _) = run_tx(b.as_ref(), 0, |tx| tx.read(0));
        assert_eq!(v, 0, "instances must be independent");
    }
}
