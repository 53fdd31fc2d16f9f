//! Workspace-level hardening tests: TMR preserves golden behavior and masks
//! upsets in hardened flip-flops; SVM-guided selective hardening reduces
//! the measured SER; differential mission campaigns quantify what each
//! mitigation buys at an exactly-accounted area cost.

use ssresf::{
    run_campaign_with, run_differential_campaign, selective_harden, CampaignConfig, Dut,
    EngineKind, HardeningStrategy, Instrument, MitigationKind, MitigationPlan, Ssresf,
    SsresfConfig, Workload,
};
use ssresf_netlist::harden::sequential_only;
use ssresf_netlist::{CellId, CellKind, Design, ModuleBuilder, PortDir};
use ssresf_radiation::MissionProfile;
use ssresf_sim::{Fault, SeuFault};
use ssresf_socgen::{build_soc, SocConfig};

fn workload() -> Workload {
    Workload {
        reset_cycles: 3,
        run_cycles: 50,
    }
}

#[test]
fn tmr_preserves_golden_behavior_on_the_soc() {
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let original = soc.design.flatten().unwrap();
    let mut hardened = original.clone();
    let all: Vec<CellId> = hardened.iter_cells().map(|(id, _)| id).collect();
    let ffs = sequential_only(&hardened, &all);
    hardened.tmr_harden(&ffs).unwrap();

    let golden_orig = Dut::from_conventions(&original)
        .unwrap()
        .run(EngineKind::EventDriven, &workload(), &[])
        .unwrap();
    let golden_hard = Dut::from_conventions(&hardened)
        .unwrap()
        .run(EngineKind::EventDriven, &workload(), &[])
        .unwrap();
    assert!(
        golden_orig.trace.matches(&golden_hard.trace),
        "TMR changed functional behavior: {:?}",
        golden_orig
            .trace
            .diff(&golden_hard.trace)
            .into_iter()
            .take(3)
            .collect::<Vec<_>>()
    );
}

#[test]
fn seu_in_hardened_ff_is_masked_by_the_voter() {
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let mut netlist = soc.design.flatten().unwrap();
    // Harden one observable counter-like flip-flop in the CPU.
    let target = netlist
        .iter_cells()
        .find(|(_, c)| c.kind.is_sequential())
        .map(|(id, _)| id)
        .unwrap();
    netlist.tmr_harden(&[target]).unwrap();
    let dut = Dut::from_conventions(&netlist).unwrap();

    let golden = dut.run(EngineKind::EventDriven, &workload(), &[]).unwrap();
    // Flip the (hardened) original replica: the voter must mask it.
    let faulty = dut
        .run(
            EngineKind::EventDriven,
            &workload(),
            &[Fault::Seu(SeuFault {
                cell: target,
                cycle: 10,
                offset: 0.25,
            })],
        )
        .unwrap();
    assert!(
        golden.trace.matches(&faulty.trace),
        "voter failed to mask the SEU"
    );

    // Control: the same flip on the un-hardened netlist is observable.
    let plain = soc.design.flatten().unwrap();
    let dut_plain = Dut::from_conventions(&plain).unwrap();
    let golden_plain = dut_plain
        .run(EngineKind::EventDriven, &workload(), &[])
        .unwrap();
    let faulty_plain = dut_plain
        .run(
            EngineKind::EventDriven,
            &workload(),
            &[Fault::Seu(SeuFault {
                cell: target,
                cycle: 10,
                offset: 0.25,
            })],
        )
        .unwrap();
    assert!(
        !golden_plain.trace.matches(&faulty_plain.trace),
        "control flip should be observable on the plain netlist"
    );
}

#[test]
fn tmr_netlist_levelizes_and_engines_agree_fault_free() {
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let mut hardened = soc.design.flatten().unwrap();
    let all: Vec<CellId> = hardened.iter_cells().map(|(id, _)| id).collect();
    let ffs = sequential_only(&hardened, &all);
    hardened.tmr_harden(&ffs).unwrap();
    // The voter insertion must keep the netlist acyclic through the
    // combinational view.
    hardened.levelize().unwrap();
    // Conformance-style engine equivalence on the fault-free trace.
    let dut = Dut::from_conventions(&hardened).unwrap();
    let event = dut.run(EngineKind::EventDriven, &workload(), &[]).unwrap();
    let lev = dut.run(EngineKind::Levelized, &workload(), &[]).unwrap();
    assert!(
        event.trace.matches(&lev.trace),
        "engines disagree on the TMR netlist: {:?}",
        event
            .trace
            .diff(&lev.trace)
            .into_iter()
            .take(3)
            .collect::<Vec<_>>()
    );
}

#[test]
fn differential_campaign_never_hurts_on_the_rad_hard_preset() {
    let built = build_soc(&SocConfig::rad_hard()).unwrap();
    let flat = built.design.flatten().unwrap();
    let all: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
    let flops = sequential_only(&flat, &all);
    // A small mixed injection sample keeps the three campaigns fast.
    let cells: Vec<CellId> = all.iter().copied().step_by(all.len() / 24).collect();
    let config = CampaignConfig {
        workload: Workload {
            reset_cycles: 2,
            run_cycles: 30,
        },
        injections_per_cell: 2,
        engine: EngineKind::Levelized,
        threads: 2,
        ..CampaignConfig::default()
    };
    let mission = MissionProfile::orbit_with_flare(20, 10).unwrap();
    let plans = vec![
        MitigationPlan {
            kind: MitigationKind::Tmr,
            targets: flops.clone(),
        },
        MitigationPlan {
            kind: MitigationKind::FfHardening,
            targets: flops,
        },
    ];
    let outcome = run_differential_campaign(
        &flat,
        &cells,
        &config,
        &mission,
        &plans,
        &Instrument::default(),
    )
    .unwrap();
    for m in &outcome.mitigations {
        assert!(
            m.ser_delta >= 0.0,
            "{}: SER(mitigated) {} > SER(baseline) {}",
            m.kind.name(),
            m.mission.ser(),
            outcome.baseline.ser()
        );
        assert_eq!(
            m.mission.campaign.records.len(),
            outcome.baseline.campaign.records.len(),
            "{}: shared schedule lost records",
            m.kind.name()
        );
    }
}

#[test]
fn mitigation_area_cost_is_exact_on_a_toy_netlist() {
    // Toy: two Dffr (24T each), one Inv (2T), one Xor2 (8T) = 58T.
    let mut design = Design::new();
    let mut mb = ModuleBuilder::new("toy");
    let clk = mb.port("clk", PortDir::Input);
    let rst_n = mb.port("rst_n", PortDir::Input);
    let q0 = mb.port("q0", PortDir::Output);
    let q1 = mb.port("q1", PortDir::Output);
    let d0 = mb.net("d0");
    let d1 = mb.net("d1");
    mb.cell("u_inv", CellKind::Inv, &[q0], &[d0]).unwrap();
    mb.cell("u_xor", CellKind::Xor2, &[q0, q1], &[d1]).unwrap();
    mb.cell("u_ff0", CellKind::Dffr, &[clk, d0, rst_n], &[q0])
        .unwrap();
    mb.cell("u_ff1", CellKind::Dffr, &[clk, d1, rst_n], &[q1])
        .unwrap();
    let id = design.add_module(mb.finish()).unwrap();
    design.set_top(id).unwrap();
    let flat = design.flatten().unwrap();
    let flops = sequential_only(
        &flat,
        &flat.iter_cells().map(|(id, _)| id).collect::<Vec<_>>(),
    );
    assert_eq!(flops.len(), 2);

    // TMR per target: 2 replica Dffr (2×24T) + 3 And2 (3×6T) + 1 Or3 (8T)
    // = 6 cells, 74 transistors.
    let mut tmr = flat.clone();
    let report = tmr.tmr_harden(&flops).unwrap();
    assert_eq!(report.added_cells, 12);
    assert_eq!(report.transistors_before, 58);
    assert_eq!(report.transistors_after, 58 + 2 * 74);
    assert_eq!(tmr.cells().len(), flat.cells().len() + 12);

    // FF hardening: in-place Dffr → HardDffr (24T → 48T), no new cells.
    let mut ff = flat.clone();
    let report = ff.ff_harden(&flops);
    assert_eq!(report.added_cells, 0);
    assert_eq!(report.transistors_before, 58);
    assert_eq!(report.transistors_after, 58 + 2 * 24);
    assert_eq!(ff.cells().len(), flat.cells().len());
}

#[test]
fn guided_hardening_reduces_measured_ser() {
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let netlist = soc.design.flatten().unwrap();
    let mut config = SsresfConfig::default();
    config.sampling.fraction = 0.1;
    config.campaign.workload = workload();
    let framework = Ssresf::new(config);
    let analysis = framework.analyze(&netlist).unwrap();
    let baseline_errors = analysis.campaign.soft_errors();
    assert!(baseline_errors > 0, "need observable errors for this test");

    let result = selective_harden(&netlist, &analysis, 0.5, HardeningStrategy::SvmGuided).unwrap();
    let dut = Dut::from_conventions(&result.netlist).unwrap();
    let campaign = CampaignConfig {
        workload: workload(),
        ..framework.config().campaign
    };
    let outcome = run_campaign_with(
        &dut,
        &analysis.sample.all_cells(),
        &campaign,
        &Instrument::default(),
    )
    .unwrap();
    assert!(
        outcome.soft_errors() < baseline_errors,
        "hardening did not reduce soft errors: {} -> {}",
        baseline_errors,
        outcome.soft_errors()
    );
}
