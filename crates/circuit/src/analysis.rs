//! Analyses: DC operating point, DC sweep, AC sweep and transient.

pub mod ac;
pub mod dc;
pub mod sweep;
pub mod transient;

mod backend;

pub(crate) use backend::{LinearBackend, NewtonLimits};

use crate::netlist::Netlist;
use crate::stamp::Mode;
use crate::Result;

/// Newton–Raphson on a fresh dense backend, starting from `x0`: the DC
/// entry point to [`LinearBackend::newton`].
pub(crate) fn newton_solve(
    nl: &Netlist,
    x0: &[f64],
    mode: &Mode<'_>,
    lim: &NewtonLimits,
    at: f64,
) -> Result<Vec<f64>> {
    let mut x = x0.to_vec();
    LinearBackend::dense(nl.unknown_count()).newton(nl, &mut x, mode, lim, at, false)?;
    Ok(x)
}
