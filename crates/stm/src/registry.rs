//! The TM registry — fallible, spec-driven construction of the whole suite.
//!
//! The old shape of the suite was a hardwired `all_stms(k)` plus a name
//! lookup that *panicked* on a typo. [`TmRegistry`] replaces both with
//! data: one [`TmSpec`] per TM carrying its name, its static
//! [`StmProperties`], which configuration axes it honours, and a build
//! function consuming an [`StmConfig`]. Lookups return `Result`s whose
//! errors list every valid name, so a CLI typo produces a menu instead of a
//! backtrace.
//!
//! # Spec strings
//!
//! A *spec* names a TM plus an optional clock scheme, `+`-separated:
//!
//! ```text
//! tl2                 the TL2 TM, default (single) clock
//! tl2+sharded:16      TL2 on a 16-shard GV5-style clock array
//! mvstm+deferred      the multi-version TM on the GV4 pass-on-failure clock
//! ```
//!
//! Clock schemes are rejected for TMs without a global clock
//! ([`TmSpec::clocked`] is false), so `dstm+sharded:4` is an error, not a
//! silent no-op.
//!
//! ```
//! use tm_stm::{ClockScheme, TmRegistry};
//!
//! let reg = TmRegistry::suite();
//! let stm = reg.build("tl2+sharded:4", 8).unwrap();
//! assert_eq!(stm.name(), "tl2");
//! let err = reg.build("tl3", 8).err().expect("typos are errors, not panics");
//! assert!(err.to_string().contains("tl2"));
//!
//! // Sweep the whole design space at every clock scheme it accepts:
//! for spec in reg.specs() {
//!     let schemes = if spec.clocked { ClockScheme::SWEEP.len() } else { 1 };
//!     assert!(schemes >= 1);
//! }
//! ```

use crate::api::{Stm, StmProperties};
use crate::clock::ClockScheme;
use crate::config::StmConfig;

/// One entry of the registry: everything the harness, CLI, and benches
/// need to know about a TM without instantiating it.
#[derive(Clone, Copy)]
pub struct TmSpec {
    /// The TM's stable name (matches [`Stm::name`]).
    pub name: &'static str,
    /// Does this TM consume [`StmConfig::clock`]? (The timestamp-based
    /// TMs: tl2, mvstm, sistm.)
    pub clocked: bool,
    /// Does this TM consume [`StmConfig::contention_manager`]? (dstm,
    /// visible.)
    pub cm_tunable: bool,
    /// Do this TM's transactions block all others for their lifetime
    /// (the global lock)?
    pub blocking: bool,
    /// The design-space position (matches [`Stm::properties`]).
    pub properties: StmProperties,
    build: BuildFn,
}

impl TmSpec {
    /// Builds an instance from a configuration.
    pub fn build(&self, cfg: &StmConfig) -> Box<dyn Stm> {
        (self.build)(cfg)
    }
}

impl std::fmt::Debug for TmSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TmSpec")
            .field("name", &self.name)
            .field("clocked", &self.clocked)
            .field("cm_tunable", &self.cm_tunable)
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
    /// The clock part of the spec did not parse.
    BadClock {
        /// The offending spec.
        spec: String,
        /// The parse error from [`ClockScheme::parse`].
        reason: String,
    },
    /// A clock scheme was given for a TM without a global clock.
    ClocklessTm {
        /// The TM that has no clock.
        name: &'static str,
        /// The scheme that was requested.
        scheme: ClockScheme,
    },
}

impl std::fmt::Display for TmLookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TmLookupError::UnknownTm { name, available } => write!(
                f,
                "unknown TM '{name}' (available: {}; a spec may add a clock, \
                 e.g. tl2+sharded:16)",
                available.join(", ")
            ),
            TmLookupError::BadClock { spec, reason } => {
                write!(f, "bad clock in spec '{spec}': {reason}")
            }
            TmLookupError::ClocklessTm { name, scheme } => write!(
                f,
                "TM '{name}' has no global clock — the '{scheme}' scheme only \
                 applies to tl2, mvstm, and sistm"
            ),
        }
    }
}

impl std::error::Error for TmLookupError {}

/// The registry of suite TMs. Cheap to construct and clone: the spec
/// table is a process-wide static built on first use.
#[derive(Clone, Debug)]
pub struct TmRegistry {
    specs: &'static [TmSpec],
}

/// The build-function shape shared by every registry entry.
type BuildFn = fn(&StmConfig) -> Box<dyn Stm>;

/// The registry entries, computed once per process: the cached properties
/// come from one probe instance per TM, built on first use (the registry
/// test cross-checks them against live instances).
fn suite_specs() -> &'static [TmSpec] {
    static SPECS: std::sync::OnceLock<Vec<TmSpec>> = std::sync::OnceLock::new();
    SPECS.get_or_init(build_suite_specs)
}

/// The entry table, in the registry's canonical TM order (the historical
/// `all_stms` order — pinned because rendered tables and swept batteries
/// follow it).
fn build_suite_specs() -> Vec<TmSpec> {
    fn props_of(build: BuildFn) -> (StmProperties, bool) {
        let probe = build(&StmConfig::new(1).recording(false));
        (probe.properties(), probe.blocking())
    }
    let entries: [(&'static str, bool, bool, BuildFn); 9] = [
        ("glock", false, false, |c| {
            Box::new(crate::glock::GlockStm::with_config(c))
        }),
        ("tl2", true, false, |c| {
            Box::new(crate::tl2::Tl2Stm::with_config(c))
        }),
        ("dstm", false, true, |c| {
            Box::new(crate::dstm::DstmStm::with_config(c))
        }),
        ("astm", false, false, |c| {
            Box::new(crate::astm::AstmStm::with_config(c))
        }),
        ("visible", false, true, |c| {
            Box::new(crate::visible::VisibleStm::with_config(c))
        }),
        ("mvstm", true, false, |c| {
            Box::new(crate::mvstm::MvStm::with_config(c))
        }),
        ("nonopaque", false, false, |c| {
            Box::new(crate::nonopaque::NonOpaqueStm::with_config(c))
        }),
        ("sistm", true, false, |c| {
            Box::new(crate::sistm::SiStm::with_config(c))
        }),
        ("tpl", false, false, |c| {
            Box::new(crate::tpl::TplStm::with_config(c))
        }),
    ];
    entries
        .into_iter()
        .map(|(name, clocked, cm_tunable, build)| {
            let (properties, blocking) = props_of(build);
            TmSpec {
                name,
                clocked,
                cm_tunable,
                blocking,
                properties,
                build,
            }
        })
        .collect()
}

impl TmRegistry {
    /// The registry of the nine in-tree TMs, in the canonical sweep order.
    pub fn suite() -> Self {
        TmRegistry {
            specs: suite_specs(),
        }
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

    /// Parses a spec string (`"tl2"`, `"tl2+sharded:16"`) into its TM and
    /// clock scheme, validating that the TM accepts the scheme.
    pub fn parse_spec(&self, spec: &str) -> Result<(&TmSpec, ClockScheme), TmLookupError> {
        let (name, scheme) = match spec.split_once('+') {
            None => (spec, ClockScheme::Single),
            Some((name, clock)) => (
                name,
                ClockScheme::parse(clock).map_err(|reason| TmLookupError::BadClock {
                    spec: spec.to_string(),
                    reason,
                })?,
            ),
        };
        let tm = self.get(name.trim())?;
        if !scheme.is_single() && !tm.clocked {
            return Err(TmLookupError::ClocklessTm {
                name: tm.name,
                scheme,
            });
        }
        Ok((tm, scheme))
    }

    /// Builds the TM a spec names over `k` registers (default configuration
    /// except for the spec's clock scheme).
    pub fn build(&self, spec: &str, k: usize) -> Result<Box<dyn Stm>, TmLookupError> {
        let (tm, scheme) = self.parse_spec(spec)?;
        Ok(tm.build(&StmConfig::new(k).clock(scheme)))
    }

    /// Builds the TM a spec names from an explicit configuration; the
    /// spec's clock scheme (when present) overrides the configuration's.
    pub fn build_with(&self, spec: &str, cfg: &StmConfig) -> Result<Box<dyn Stm>, TmLookupError> {
        let (tm, scheme) = self.parse_spec(spec)?;
        let cfg = if spec.contains('+') {
            cfg.clone().clock(scheme)
        } else {
            cfg.clone()
        };
        Ok(tm.build(&cfg))
    }

    /// A `Copy` factory rebuilding the spec'd TM at any register count —
    /// the shape every sweep and conformance battery consumes (and safe to
    /// hand to scoped worker threads).
    pub fn factory(
        &self,
        spec: &str,
    ) -> Result<impl Fn(usize) -> Box<dyn Stm> + Send + Sync + Copy + 'static, TmLookupError> {
        let (tm, scheme) = self.parse_spec(spec)?;
        let build = tm.build;
        Ok(move |k: usize| build(&StmConfig::new(k).clock(scheme)))
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
        // The cached spec properties agree with the live instances.
        for spec in reg.specs() {
            let stm = spec.build(&StmConfig::new(1));
            assert_eq!(stm.name(), spec.name);
            assert_eq!(stm.properties(), spec.properties, "{}", spec.name);
            assert_eq!(stm.blocking(), spec.blocking, "{}", spec.name);
        }
        // Exactly the timestamp-based TMs are clocked.
        let clocked: Vec<&str> = reg
            .specs()
            .iter()
            .filter(|s| s.clocked)
            .map(|s| s.name)
            .collect();
        assert_eq!(clocked, vec!["tl2", "mvstm", "sistm"]);
    }

    #[test]
    fn lookup_errors_carry_the_menu() {
        let reg = TmRegistry::suite();
        let err = reg.get("tl3").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown TM 'tl3'"), "{msg}");
        assert!(msg.contains("glock") && msg.contains("tpl"), "{msg}");
        assert_eq!(
            reg.parse_spec("dstm+sharded:4").unwrap_err(),
            TmLookupError::ClocklessTm {
                name: "dstm",
                scheme: ClockScheme::Sharded(4)
            }
        );
        assert!(matches!(
            reg.parse_spec("tl2+gv9").unwrap_err(),
            TmLookupError::BadClock { .. }
        ));
        assert!(matches!(
            reg.parse_spec("nope+sharded:4").unwrap_err(),
            TmLookupError::UnknownTm { .. }
        ));
    }

    #[test]
    fn specs_build_working_tms_at_every_scheme() {
        let reg = TmRegistry::suite();
        for base in ["tl2", "mvstm", "sistm"] {
            for scheme in ClockScheme::SWEEP {
                let spec = if scheme.is_single() {
                    base.to_string()
                } else {
                    format!("{base}+{scheme}")
                };
                let stm = reg.build(&spec, 2).unwrap();
                let (v, _) = run_tx(stm.as_ref(), 0, |tx| {
                    tx.write(0, 7)?;
                    tx.read(0)
                });
                assert_eq!(v, 7, "{spec}");
                let (v2, _) = run_tx(stm.as_ref(), 1, |tx| tx.read(0));
                assert_eq!(v2, 7, "{spec}");
            }
        }
    }

    #[test]
    fn factory_is_copy_and_rebuilds_fresh_instances() {
        let reg = TmRegistry::suite();
        let make = reg.factory("mvstm+sharded:2").unwrap();
        let make2 = make; // Copy
        let a = make(2);
        let b = make2(3);
        assert_eq!(a.k(), 2);
        assert_eq!(b.k(), 3);
        run_tx(a.as_ref(), 0, |tx| tx.write(0, 1));
        let (v, _) = run_tx(b.as_ref(), 0, |tx| tx.read(0));
        assert_eq!(v, 0, "instances must be independent");
    }

    #[test]
    fn build_with_spec_clock_overrides_config_clock() {
        let reg = TmRegistry::suite();
        let cfg = StmConfig::new(2)
            .clock(ClockScheme::Deferred)
            .recording(false);
        // Spec without a clock keeps the config's scheme; with one, the
        // spec wins. Both must produce working TMs with recording off.
        for spec in ["tl2", "tl2+sharded:2"] {
            let stm = reg.build_with(spec, &cfg).unwrap();
            run_tx(stm.as_ref(), 0, |tx| tx.write(0, 3));
            assert!(stm.recorder().is_empty(), "{spec}: recording leaked");
        }
    }
}
