//! Sequential specifications of shared objects (Section 4).
//!
//! A sequential specification `Seq(ob)` is a prefix-closed set of
//! object-local histories describing which operation sequences are correct
//! outside any transactional context. The paper treats the specification as
//! an *input parameter* of the correctness criterion — this module provides
//! the trait and a per-object registry; concrete objects live in
//! [`crate::objects`].
//!
//! For deterministic objects a specification is most naturally given as a
//! state machine: [`SeqSpec::step`] computes the unique next state and return
//! value of an operation. Non-deterministic objects override
//! [`SeqSpec::accepts`], which validates an observed return value and yields
//! the (chosen) successor state.

use crate::event::{ObjId, OpName};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A sequential specification of one shared object.
pub trait SeqSpec: Send + Sync + fmt::Debug {
    /// The object's initial state.
    fn initial(&self) -> Value;

    /// Deterministic transition: applies `op(args)` to `state`, returning the
    /// successor state and the operation's return value, or `None` if the
    /// operation/arguments are not part of the object's interface.
    fn step(&self, state: &Value, op: &OpName, args: &[Value]) -> Option<(Value, Value)>;

    /// Validation: does `op(args) → ret` belong to `Seq(ob)` after `state`?
    /// Returns the successor state if so.
    ///
    /// The default implementation delegates to [`SeqSpec::step`] and compares
    /// return values; non-deterministic objects should override this.
    fn accepts(&self, state: &Value, op: &OpName, args: &[Value], ret: &Value) -> Option<Value> {
        let (next, expected) = self.step(state, op, args)?;
        if &expected == ret {
            Some(next)
        } else {
            None
        }
    }

    /// A short human-readable name for diagnostics.
    fn name(&self) -> &'static str {
        "object"
    }
}

/// Maps shared objects to their sequential specifications.
///
/// A registry may carry a *default* specification applied to objects with no
/// explicit entry — convenient for the ubiquitous "every object is a
/// register" histories of the paper.
#[derive(Clone, Debug, Default)]
pub struct SpecRegistry {
    specs: BTreeMap<ObjId, Arc<dyn SeqSpec>>,
    default: Option<Arc<dyn SeqSpec>>,
}

impl SpecRegistry {
    /// An empty registry with no default: every object must be registered.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry whose default object is an integer register initialized to
    /// 0 — the model used by all of the paper's register examples.
    pub fn registers() -> Self {
        SpecRegistry {
            specs: BTreeMap::new(),
            default: Some(Arc::new(crate::objects::register::Register::new(0))),
        }
    }

    /// Sets the default specification for unregistered objects.
    pub fn with_default(mut self, spec: Arc<dyn SeqSpec>) -> Self {
        self.default = Some(spec);
        self
    }

    /// Registers `spec` for object `obj` (overriding any previous entry).
    pub fn insert(&mut self, obj: ObjId, spec: Arc<dyn SeqSpec>) {
        self.specs.insert(obj, spec);
    }

    /// Builder-style [`SpecRegistry::insert`].
    pub fn with(mut self, obj: &str, spec: Arc<dyn SeqSpec>) -> Self {
        self.insert(ObjId::new(obj), spec);
        self
    }

    /// The specification governing `obj`, if any.
    pub fn spec_for(&self, obj: &ObjId) -> Option<&Arc<dyn SeqSpec>> {
        self.specs.get(obj).or(self.default.as_ref())
    }

    /// The initial state of `obj` under this registry.
    pub fn initial_of(&self, obj: &ObjId) -> Option<Value> {
        self.spec_for(obj).map(|s| s.initial())
    }
}

/// The states of all touched objects during a legality replay.
///
/// Untouched objects are implicitly in their initial state. The map is
/// ordered so that snapshots render deterministically; [`ObjStates::canonical`]
/// drops entries equal to an object's initial state, so canonical snapshots
/// are equal exactly when every object is in the same state.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ObjStates {
    states: BTreeMap<ObjId, Value>,
}

impl ObjStates {
    /// All objects in their initial states.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current state of `obj`, materializing the initial state from the
    /// registry on first access. Returns `None` if `obj` has no spec.
    pub fn get(&self, obj: &ObjId, specs: &SpecRegistry) -> Option<Value> {
        match self.states.get(obj) {
            Some(v) => Some(v.clone()),
            None => specs.initial_of(obj),
        }
    }

    /// Overwrites the state of `obj`.
    pub fn set(&mut self, obj: ObjId, state: Value) {
        self.states.insert(obj, state);
    }

    /// Canonicalizes by dropping entries equal to the object's initial state,
    /// so memoization keys do not distinguish "never touched" from "restored
    /// to initial".
    pub fn canonical(mut self, specs: &SpecRegistry) -> Self {
        self.states
            .retain(|obj, v| specs.initial_of(obj).as_ref() != Some(v));
        self
    }

    /// Iterates over explicitly materialized (touched) object states.
    pub fn iter(&self) -> impl Iterator<Item = (&ObjId, &Value)> {
        self.states.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::counter::Counter;
    use crate::objects::register::Register;

    #[test]
    fn default_register_registry() {
        let reg = SpecRegistry::registers();
        let x = ObjId::new("x");
        assert_eq!(reg.initial_of(&x), Some(Value::int(0)));
        let spec = reg.spec_for(&x).unwrap();
        let (s1, r) = spec
            .step(&Value::int(0), &OpName::Write, &[Value::int(5)])
            .unwrap();
        assert_eq!(r, Value::Ok);
        assert_eq!(s1, Value::int(5));
    }

    #[test]
    fn explicit_entry_overrides_default() {
        let reg = SpecRegistry::registers().with("c", Arc::new(Counter));
        let c = ObjId::new("c");
        let spec = reg.spec_for(&c).unwrap();
        assert_eq!(spec.name(), "counter");
        // Unregistered objects still fall back to the register default.
        assert_eq!(reg.spec_for(&ObjId::new("x")).unwrap().name(), "register");
    }

    #[test]
    fn empty_registry_knows_nothing() {
        let reg = SpecRegistry::new();
        assert!(reg.spec_for(&ObjId::new("x")).is_none());
        assert!(reg.initial_of(&ObjId::new("x")).is_none());
    }

    #[test]
    fn default_accepts_checks_return_value() {
        let r = Register::new(0);
        let st = Value::int(0);
        assert!(r.accepts(&st, &OpName::Read, &[], &Value::int(0)).is_some());
        assert!(r.accepts(&st, &OpName::Read, &[], &Value::int(1)).is_none());
        assert!(r
            .accepts(&st, &OpName::Write, &[Value::int(3)], &Value::Ok)
            .is_some());
    }

    #[test]
    fn obj_states_materialize_and_canonicalize() {
        let reg = SpecRegistry::registers();
        let mut st = ObjStates::new();
        let x = ObjId::new("x");
        assert_eq!(st.get(&x, &reg), Some(Value::int(0)));
        st.set(x.clone(), Value::int(7));
        assert_eq!(st.get(&x, &reg), Some(Value::int(7)));
        // Restoring the initial value canonicalizes away.
        st.set(x.clone(), Value::int(0));
        let canon = st.clone().canonical(&reg);
        assert_eq!(canon, ObjStates::new());
        assert_eq!(canon.get(&x, &reg), Some(Value::int(0)));
    }

    #[test]
    fn obj_states_hashable_and_ordered() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        let mut a = ObjStates::new();
        a.set(ObjId::new("x"), Value::int(1));
        let mut b = ObjStates::new();
        b.set(ObjId::new("x"), Value::int(1));
        set.insert(a);
        assert!(set.contains(&b));
    }
}
