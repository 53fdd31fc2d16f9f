//! Set-up: elaborate a SoC preset into a flat, levelized netlist with its
//! clock and reset conventions resolved — everything a user waits for
//! before the first analysis can start.

use ssresf::Dut;
use ssresf_netlist::FlatNetlist;
use ssresf_socgen::{build_soc, BuiltSoc, SocConfig};
use std::time::Instant;

/// A set-up netlist.
pub struct Prepared {
    /// The generated SoC (its memory scale factor feeds the analysis).
    pub built: BuiltSoc,
    /// The flattened netlist.
    pub flat: FlatNetlist,
}

/// Seconds spent in each set-up layer.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// `build_soc`.
    pub build: f64,
    /// `Design::flatten`.
    pub flatten: f64,
    /// `FlatNetlist::levelize`.
    pub levelize: f64,
    /// `Dut::from_conventions` (builds the netlist's name lookup).
    pub dut: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.build + self.flatten + self.levelize + self.dut
    }
}

/// `build_soc` + `flatten` + `levelize` + `Dut::from_conventions`.
///
/// # Errors
///
/// Describes the failing step.
pub fn prepare(config: &SocConfig) -> Result<(Prepared, SetupTimes), String> {
    let started = Instant::now();
    let built = build_soc(config).map_err(|e| format!("build_soc {}: {e}", config.name))?;
    let build = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let flat = built
        .design
        .flatten()
        .map_err(|e| format!("flatten {}: {e}", config.name))?;
    let flatten = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let levels = flat
        .levelize()
        .map_err(|e| format!("levelize {}: {e}", config.name))?;
    std::hint::black_box(&levels);
    let levelize = started.elapsed().as_secs_f64();
    drop(levels);

    let started = Instant::now();
    Dut::from_conventions(&flat).map_err(|e| format!("no DUT conventions: {e}"))?;
    let dut = started.elapsed().as_secs_f64();

    Ok((
        Prepared { built, flat },
        SetupTimes {
            build,
            flatten,
            levelize,
            dut,
        },
    ))
}
