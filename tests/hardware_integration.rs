//! Cross-crate integration: ISC mapping → analog crossbar programming →
//! hardware-in-the-loop recall.

use autoncs::hw::{EvaluationMode, HardwareModel};
use autoncs::AutoNcs;
use ncs_cluster::{CrossbarSizeSet, IscOptions};
use ncs_net::{Testbench, TestbenchSpec};
use ncs_xbar::{program_write_verify, DeviceModel, ProgrammingScheme};

fn framework() -> AutoNcs {
    AutoNcs::builder()
        .isc_options(IscOptions {
            sizes: CrossbarSizeSet::new([8, 12, 16, 24, 32]).expect("non-empty size set"),
            seed: 13,
            ..IscOptions::default()
        })
        .implement_options(ncs_phys::ImplementOptions::fast())
        .build()
}

fn mini_testbench() -> Testbench {
    let spec = TestbenchSpec {
        id: 70,
        patterns: 4,
        neurons: 100,
        sparsity: 0.88,
    };
    Testbench::from_spec(spec, 19).expect("mini testbench")
}

#[test]
fn ideal_hardware_reproduces_software_behaviour_end_to_end() {
    let tb = mini_testbench();
    let (mapping, _) = framework().map(tb.network()).unwrap();
    let hw = HardwareModel::build(
        tb.hopfield(),
        &mapping,
        &DeviceModel::default(),
        EvaluationMode::Ideal,
    )
    .unwrap();
    assert_eq!(hw.crossbar_count(), mapping.crossbars().len());
    let sw = tb.recognition_rate(0.02, 101).unwrap();
    let hw_rep = hw.recognition_rate(tb.patterns(), 0.02, 0.9, 101).unwrap();
    assert_eq!(sw.recognized, hw_rep.recognized);
}

#[test]
fn ir_drop_mode_recalls_on_a_small_mapping() {
    // Small crossbars keep the nodal solves quick; IR drop on 8-32-row
    // arrays barely perturbs the fields, so recall should still work.
    let tb = mini_testbench();
    let (mapping, _) = framework().map(tb.network()).unwrap();
    let hw = HardwareModel::build(
        tb.hopfield(),
        &mapping,
        &DeviceModel::default(),
        EvaluationMode::IrDrop,
    )
    .unwrap();
    let rep = hw.recognition_rate(tb.patterns(), 0.02, 0.9, 55).unwrap();
    assert!(
        rep.recognized >= rep.total.saturating_sub(1),
        "IR drop should cost at most one pattern: {}/{}",
        rep.recognized,
        rep.total
    );
}

#[test]
fn write_verify_programming_supports_whole_mapping() {
    // Program every crossbar of a mapping through the pulse loop and
    // check the residuals stay inside tolerance.
    let tb = mini_testbench();
    let (mapping, _) = framework().map(tb.network()).unwrap();
    let device = DeviceModel::default();
    let scheme = ProgrammingScheme::default();
    let weights = tb.hopfield().weights();
    let w_max = (0..tb.network().neurons())
        .flat_map(|i| (0..tb.network().neurons()).map(move |j| (i, j)))
        .map(|(i, j)| weights[(i, j)].abs())
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    for (ci, xbar) in mapping.crossbars().iter().enumerate().take(5) {
        let mut sub = vec![vec![0.0; xbar.outputs.len()]; xbar.inputs.len()];
        for &(f, t) in &xbar.connections {
            let r = xbar.inputs.iter().position(|&x| x == f).unwrap();
            let c = xbar.outputs.iter().position(|&x| x == t).unwrap();
            // Positive magnitudes for the single-array programming check.
            sub[r][c] = (weights[(f, t)] / w_max).abs();
        }
        let (_, report) = program_write_verify(&sub, &device, &scheme, ci as u64).unwrap();
        assert!(
            report.converged,
            "crossbar {ci} residual {}",
            report.max_residual
        );
    }
}
