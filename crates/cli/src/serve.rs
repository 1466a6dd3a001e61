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
        // A path wins when it exists; otherwise the argument is an inline
        // `kind@frame[:args],...` spec. A file holds the same spec grammar.
        Some(arg) => {
            let text = std::fs::read_to_string(arg).unwrap_or_else(|_| arg.to_string());
            FaultPlan::parse(&text).map_err(|e| format!("serve: --fault-plan: {e}"))?
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
