//! Cross-engine validation on full SoCs: the event-driven (VCS stand-in)
//! and levelized (CVC stand-in) engines must agree on golden workloads and
//! on SEU verdicts, mirroring the paper's dual-simulator methodology.

use ssresf::{run_campaign_with, CampaignConfig, Dut, EngineKind, Instrument, Workload};
use ssresf_netlist::CellId;
use ssresf_sim::{Fault, SeuFault};
use ssresf_socgen::{build_soc, SocConfig};

fn workload() -> Workload {
    Workload {
        reset_cycles: 3,
        run_cycles: 50,
    }
}

#[test]
fn engines_agree_on_soc_golden_runs() {
    for index in [0usize, 2] {
        let config = SocConfig::table1()[index].clone();
        let soc = build_soc(&config).unwrap();
        let netlist = soc.design.flatten().unwrap();
        let dut = Dut::from_conventions(&netlist).unwrap();
        let ev = dut.run(EngineKind::EventDriven, &workload(), &[]).unwrap();
        let lv = dut.run(EngineKind::Levelized, &workload(), &[]).unwrap();
        assert!(
            ev.trace.matches(&lv.trace),
            "{}: engines diverge: {:?}",
            config.name,
            ev.trace
                .diff(&lv.trace)
                .into_iter()
                .take(3)
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn engines_agree_on_seu_campaign_verdicts() {
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let netlist = soc.design.flatten().unwrap();
    let dut = Dut::from_conventions(&netlist).unwrap();

    // SEU semantics are cycle-exact in both engines, so verdicts match.
    let ffs: Vec<CellId> = netlist
        .iter_cells()
        .filter(|(_, c)| c.kind.is_sequential())
        .map(|(id, _)| id)
        .step_by(7)
        .take(24)
        .collect();

    let base = CampaignConfig {
        workload: workload(),
        ..CampaignConfig::default()
    };
    let ev = run_campaign_with(
        &dut,
        &ffs,
        &CampaignConfig {
            engine: EngineKind::EventDriven,
            ..base
        },
        &Instrument::default(),
    )
    .unwrap();
    let lv = run_campaign_with(
        &dut,
        &ffs,
        &CampaignConfig {
            engine: EngineKind::Levelized,
            ..base
        },
        &Instrument::default(),
    )
    .unwrap();
    for (a, b) in ev.records.iter().zip(&lv.records) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(
            a.soft_error,
            b.soft_error,
            "verdict differs for {}",
            netlist.cell_full_name(a.cell)
        );
    }
}

#[test]
fn checkpoint_restored_runs_match_from_scratch_on_both_engines() {
    // A run restored from any golden checkpoint must produce a trace
    // bit-identical to a from-scratch run with the same fault — including a
    // fault scheduled exactly on a checkpoint boundary.
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let netlist = soc.design.flatten().unwrap();
    let dut = Dut::from_conventions(&netlist).unwrap();
    let wl = workload();
    let interval = 10u64;
    let ff = netlist
        .iter_cells()
        .filter(|(_, c)| c.kind.is_sequential())
        .map(|(id, _)| id)
        .nth(5)
        .unwrap();

    for kind in [EngineKind::EventDriven, EngineKind::Levelized] {
        let golden = dut
            .run_golden_with_checkpoints(kind, &wl, interval)
            .unwrap();
        assert_eq!(golden.checkpoints.len(), 5, "0, 10, 20, 30, 40");
        // Fault cycles covering every checkpoint window plus both kinds of
        // boundary: exactly on a checkpoint (10, 20) and just around one.
        for cycle in [0, 3, 9, 10, 11, 19, 20, 35, 49] {
            let fault = Fault::Seu(SeuFault {
                cell: ff,
                cycle,
                offset: 0.5,
            });
            let scratch = dut.run(kind, &wl, &[fault]).unwrap();
            let resumed = dut.resume(kind, &wl, &[fault], &golden, false).unwrap();
            assert!(
                scratch.trace.matches(&resumed.trace),
                "{} fault at cycle {cycle}: restored trace diverges: {:?}",
                kind.name(),
                scratch
                    .trace
                    .diff(&resumed.trace)
                    .into_iter()
                    .take(3)
                    .collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn checkpointed_campaign_records_are_bit_identical_and_cheaper() {
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let netlist = soc.design.flatten().unwrap();
    let dut = Dut::from_conventions(&netlist).unwrap();
    let cells: Vec<CellId> = netlist
        .iter_cells()
        .map(|(id, _)| id)
        .step_by(9)
        .take(20)
        .collect();
    let base = CampaignConfig {
        workload: workload(),
        ..CampaignConfig::default()
    };
    let scratch = run_campaign_with(
        &dut,
        &cells,
        &CampaignConfig {
            checkpoint_interval: 0,
            ..base
        },
        &Instrument::default(),
    )
    .unwrap();
    let fast = run_campaign_with(
        &dut,
        &cells,
        &CampaignConfig {
            checkpoint_interval: 10,
            early_stop: true,
            ..base
        },
        &Instrument::default(),
    )
    .unwrap();
    assert_eq!(scratch.records, fast.records);
    assert!(
        fast.total_work < scratch.total_work,
        "fast-forward saved nothing: {} vs {}",
        fast.total_work,
        scratch.total_work
    );
}

#[test]
fn levelized_set_verdicts_are_pessimistic_relative_to_event_driven() {
    // The levelized engine widens SET pulses to a full cycle, so any SET the
    // event-driven engine catches must also be caught by the levelized one
    // when the pulse spans the capturing edge. We check the aggregate: the
    // levelized engine never reports *fewer* SET-induced soft errors.
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let netlist = soc.design.flatten().unwrap();
    let dut = Dut::from_conventions(&netlist).unwrap();
    let combs: Vec<CellId> = netlist
        .iter_cells()
        .filter(|(_, c)| c.kind.is_combinational())
        .map(|(id, _)| id)
        .step_by(11)
        .take(30)
        .collect();
    let base = CampaignConfig {
        workload: workload(),
        ..CampaignConfig::default()
    };
    let ev = run_campaign_with(
        &dut,
        &combs,
        &CampaignConfig {
            engine: EngineKind::EventDriven,
            ..base
        },
        &Instrument::default(),
    )
    .unwrap();
    let lv = run_campaign_with(
        &dut,
        &combs,
        &CampaignConfig {
            engine: EngineKind::Levelized,
            ..base
        },
        &Instrument::default(),
    )
    .unwrap();
    assert!(
        lv.soft_errors() >= ev.soft_errors(),
        "levelized {} < event {}",
        lv.soft_errors(),
        ev.soft_errors()
    );
}
