//! Job specifications and content-addressed cache keys.
//!
//! A [`JobSpec`] is everything a worker process needs to reproduce a
//! campaign from nothing: a netlist *recipe* (a SoC preset name or a
//! [`CircuitSpec`]), the injection cell list and the campaign config. The
//! spec deliberately ships recipes rather than netlists — both sides
//! elaborate locally, and the netlist [`ContentHash`] proves they agree.
//!
//! Cache keys chain that netlist hash with the canonical JSON of exactly
//! the config fields that influence the artifact, so any campaign-visible
//! change — one gate, one seed bit, one workload cycle — moves the key,
//! while irrelevant knobs (thread count) leave it alone.

#![deny(clippy::cast_possible_truncation)]

use crate::codec::{
    campaign_config_from_json, campaign_config_to_json, circuit_spec_from_json,
    circuit_spec_to_json,
};
use ssresf::CampaignConfig;
use ssresf_json::Value;
use ssresf_netlist::generate::CircuitSpec;
use ssresf_netlist::{CellId, ContentHash, FlatNetlist, StableHasher};
use ssresf_socgen::{build_soc, SocConfig};

/// The netlist recipe of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistSpec {
    /// A named SoC preset: one of the paper's Table-1 configurations,
    /// `PULP SoC_RH` or `PULP SoC_Mega`.
    Soc {
        /// The preset's [`SocConfig::name`].
        preset: String,
    },
    /// A spec-built random circuit (conformance fuzzing, tests).
    Circuit(CircuitSpec),
}

/// Every SoC preset addressable by name.
pub fn soc_presets() -> Vec<SocConfig> {
    let mut presets = SocConfig::table1();
    presets.push(SocConfig::rad_hard());
    presets.push(SocConfig::mega());
    presets
}

impl NetlistSpec {
    /// Elaborates the recipe into a flat netlist.
    ///
    /// # Errors
    ///
    /// Returns a description for unknown presets and elaboration
    /// failures.
    pub fn build(&self) -> Result<FlatNetlist, String> {
        match self {
            NetlistSpec::Soc { preset } => {
                let config = soc_presets()
                    .into_iter()
                    .find(|c| c.name == *preset)
                    .ok_or_else(|| format!("unknown SoC preset {preset:?}"))?;
                let built = build_soc(&config).map_err(|e| e.to_string())?;
                built.design.flatten().map_err(|e| e.to_string())
            }
            NetlistSpec::Circuit(spec) => spec.build_design().flatten().map_err(|e| e.to_string()),
        }
    }

    /// Encodes the recipe.
    pub fn to_json(&self) -> Value {
        match self {
            NetlistSpec::Soc { preset } => ssresf_json::object([
                ("type", Value::from("soc")),
                ("preset", Value::from(preset.as_str())),
            ]),
            NetlistSpec::Circuit(spec) => ssresf_json::object([
                ("type", Value::from("circuit")),
                ("spec", circuit_spec_to_json(spec)),
            ]),
        }
    }

    /// Decodes a recipe.
    ///
    /// # Errors
    ///
    /// Returns a description when the value is structurally invalid.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        match value.str_field("type")? {
            "soc" => Ok(NetlistSpec::Soc {
                preset: value.str_field("preset")?.to_owned(),
            }),
            "circuit" => Ok(NetlistSpec::Circuit(circuit_spec_from_json(
                value.field("spec")?,
            )?)),
            other => Err(format!("unknown netlist spec type {other:?}")),
        }
    }
}

/// A self-contained campaign job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The netlist recipe.
    pub netlist: NetlistSpec,
    /// Cells to inject into, in campaign order.
    pub cells: Vec<CellId>,
    /// The campaign configuration.
    pub config: CampaignConfig,
}

impl JobSpec {
    /// Encodes the job.
    pub fn to_json(&self) -> Value {
        ssresf_json::object([
            ("netlist", self.netlist.to_json()),
            (
                "cells",
                Value::Array(self.cells.iter().map(|c| Value::from(c.0)).collect()),
            ),
            ("config", campaign_config_to_json(&self.config)),
        ])
    }

    /// Decodes a job.
    ///
    /// # Errors
    ///
    /// Returns a description when the value is structurally invalid.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        Ok(JobSpec {
            netlist: NetlistSpec::from_json(value.field("netlist")?)?,
            cells: value.ints_field("cells")?.into_iter().map(CellId).collect(),
            config: campaign_config_from_json(value.field("config")?)?,
        })
    }
}

/// Hashes the high then the low half of `hash`, each little-endian.
fn hash_content_hash(hasher: &mut StableHasher, hash: ContentHash) {
    let bytes = hash.0.to_le_bytes();
    hasher.update(&bytes[8..]);
    hasher.update(&bytes[..8]);
}

/// Key of a cached golden run: the netlist content plus exactly the
/// config fields the golden run depends on (engine, workload, checkpoint
/// interval). Seeds, environments and cell lists do not move it — every
/// campaign over the same DUT and workload shares one golden artifact.
pub fn golden_key(netlist: ContentHash, config: &CampaignConfig) -> ContentHash {
    let mut hasher = StableHasher::new();
    hasher.update_str("ssresf-serve-golden-v1");
    hash_content_hash(&mut hasher, netlist);
    hasher.update_str(config.engine.name());
    hasher.update_u64(config.workload.reset_cycles);
    hasher.update_u64(config.workload.run_cycles);
    hasher.update_u64(config.checkpoint_interval);
    hasher.finish()
}

/// Key of a cached campaign outcome: the netlist content, the injection
/// cell list and the canonical JSON of the full config — minus the knobs
/// that provably cannot change any outcome byte (thread count, and batch
/// shape in scalar mode).
pub fn campaign_key(
    netlist: ContentHash,
    cells: &[CellId],
    config: &CampaignConfig,
) -> ContentHash {
    // Records are independent of thread count by the determinism contract,
    // so equal campaigns on differently sized machines share an artifact.
    // Batch shape only matters when batching is on (work totals depend on
    // packing); zero it otherwise so scalar runs ignore it too.
    let mut canonical = *config;
    canonical.threads = 0;
    if !canonical.batching {
        canonical.batch_lanes = 0;
        canonical.collapse_faults = false;
        canonical.lane_refill = false;
    }
    let mut hasher = StableHasher::new();
    hasher.update_str("ssresf-serve-campaign-v1");
    hash_content_hash(&mut hasher, netlist);
    hasher.update_str(&campaign_config_to_json(&canonical).to_string_compact());
    hasher.update_u64(cells.len() as u64);
    for cell in cells {
        hasher.update_u64(u64::from(cell.0));
    }
    hasher.finish()
}

/// Key of a derived artifact (trained model, SER table) produced from a
/// campaign: the campaign key plus a stage tag and the stage's canonical
/// parameter JSON.
pub fn derived_key(campaign: ContentHash, stage: &str, params: &Value) -> ContentHash {
    let mut hasher = StableHasher::new();
    hasher.update_str("ssresf-serve-derived-v1");
    hash_content_hash(&mut hasher, campaign);
    hasher.update_str(stage);
    hasher.update_str(&params.to_string_compact());
    hasher.finish()
}

/// A tiny fixed circuit spec for tests and smoke benches.
pub fn smoke_circuit(name: &str) -> CircuitSpec {
    use ssresf_netlist::generate::GateSpec;
    use ssresf_netlist::CellKind;
    CircuitSpec {
        name: name.to_owned(),
        inputs: 2,
        gates: vec![
            GateSpec {
                kind: CellKind::Xor2,
                operands: vec![0, 2],
            },
            GateSpec {
                kind: CellKind::And2,
                operands: vec![1, 3],
            },
            GateSpec {
                kind: CellKind::Nor2,
                operands: vec![4, 5],
            },
            GateSpec {
                kind: CellKind::Inv,
                operands: vec![6],
            },
        ],
        ff_d: vec![6, 7, 4],
        outputs: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_round_trips() {
        let spec = JobSpec {
            netlist: NetlistSpec::Circuit(smoke_circuit("k")),
            cells: vec![CellId(0), CellId(3), CellId(1)],
            config: CampaignConfig {
                seed: 99,
                ..CampaignConfig::default()
            },
        };
        let text = spec.to_json().to_string_compact();
        let back = JobSpec::from_json(&ssresf_json::parse(&text).unwrap()).unwrap();
        assert_eq!(spec, back);
        let soc = NetlistSpec::Soc {
            preset: "PULP SoC_1".into(),
        };
        let text = soc.to_json().to_string_compact();
        assert_eq!(
            NetlistSpec::from_json(&ssresf_json::parse(&text).unwrap()).unwrap(),
            soc
        );
    }

    #[test]
    fn keys_ignore_execution_knobs_but_track_content() {
        let flat = NetlistSpec::Circuit(smoke_circuit("k")).build().unwrap();
        let hash = flat.content_hash();
        let cells = vec![CellId(0), CellId(1)];
        let base = CampaignConfig::default();
        let threads = CampaignConfig { threads: 8, ..base };
        assert_eq!(
            campaign_key(hash, &cells, &base),
            campaign_key(hash, &cells, &threads),
            "thread count is not campaign-observable"
        );
        let reseeded = CampaignConfig { seed: 4, ..base };
        assert_ne!(
            campaign_key(hash, &cells, &base),
            campaign_key(hash, &cells, &reseeded)
        );
        assert_ne!(
            campaign_key(hash, &cells, &base),
            campaign_key(hash, &[CellId(1), CellId(0)], &base),
            "cell order determines record order"
        );
        // Golden keys ignore seed entirely.
        assert_eq!(golden_key(hash, &base), golden_key(hash, &reseeded));
        let longer = CampaignConfig {
            workload: ssresf::Workload {
                reset_cycles: 3,
                run_cycles: 121,
            },
            ..base
        };
        assert_ne!(golden_key(hash, &base), golden_key(hash, &longer));
    }

    #[test]
    fn content_hashes_feed_the_hasher_high_half_first() {
        let hash = ContentHash(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
        let mut split = StableHasher::new();
        hash_content_hash(&mut split, hash);
        let mut halves = StableHasher::new();
        halves.update_u64(0x0123_4567_89ab_cdef);
        halves.update_u64(0xfedc_ba98_7654_3210);
        assert_eq!(split.finish(), halves.finish());
    }

    #[test]
    fn unknown_presets_are_rejected() {
        let bad = NetlistSpec::Soc {
            preset: "PULP SoC_404".into(),
        };
        assert!(bad.build().is_err());
        assert!(NetlistSpec::Soc {
            preset: "PULP SoC_1".into()
        }
        .build()
        .is_ok());
    }
}
