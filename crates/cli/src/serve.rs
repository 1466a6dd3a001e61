//! `serve`: the streaming monitoring daemon of the `tm-serve` crate.

use std::io::Write;

use tm_obs::ObsHandle;
use tm_serve::{FaultPlan, ServeConfig, Transport};

use crate::Error;

/// Runs the daemon with `config`, the fault plan `fault_plan` names, and
/// the observability handle `obs`.
pub(crate) fn serve(
    transport: &Transport,
    config: &ServeConfig,
    fault_plan: Option<&str>,
    obs: ObsHandle,
    out: &mut dyn Write,
) -> Result<i32, Error> {
    let fault_plan = match fault_plan {
        Some(arg) => {
            FaultPlan::parse(&plan_text(arg)?).map_err(|e| format!("serve: --fault-plan: {e}"))?
        }
        None => FaultPlan::new(),
    };
    let config = ServeConfig {
        fault_plan,
        obs,
        ..config.clone()
    };
    Ok(tm_serve::run(transport.clone(), config, out))
}

/// The fault-plan text `--fault-plan arg` names. A readable file wins; a
/// file holds the same `kind@frame[:args],...` grammar as an inline spec.
/// When no such file exists, an argument with a spec's `@` is the spec
/// itself (a malformed one then reports its grammar error); any other
/// argument is reported as the unreadable file it names.
fn plan_text(arg: &str) -> Result<String, Error> {
    match std::fs::read_to_string(arg) {
        Ok(text) => Ok(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && arg.contains('@') => {
            Ok(arg.to_string())
        }
        Err(e) => Err(format!("serve: --fault-plan: cannot read {arg}: {e}").into()),
    }
}
