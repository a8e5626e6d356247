//! Whole-stack integration: generators -> sequential core -> Grid runs on
//! the paper's testbeds, answers cross-checked three ways.

use gridsat::{experiment, GridConfig, GridOutcome};
use gridsat_cnf::Formula;
use gridsat_grid::Testbed;
use gridsat_satgen as satgen;
use gridsat_solver::SolveStatus;
use gridsat_tests::sequential_status;

fn grid_status(f: &Formula, testbed: Testbed, config: GridConfig) -> (GridOutcome, f64) {
    let r = experiment::run(f, testbed, config);
    (r.outcome, r.seconds)
}

fn check_agreement(f: &Formula, config: GridConfig) {
    let seq = sequential_status(f);
    let (grid, _) = grid_status(f, Testbed::grads(), config);
    match (seq, grid) {
        (SolveStatus::Sat, GridOutcome::Sat(model)) => {
            assert!(f.is_satisfied_by(&model), "{f:?}");
        }
        (SolveStatus::Unsat, GridOutcome::Unsat) => {}
        (s, g) => panic!("{f:?}: sequential {s:?} vs grid {g:?}"),
    }
}

#[test]
fn families_agree_on_the_grads_testbed() {
    let instances: Vec<Formula> = vec![
        satgen::php::php(8, 7),
        satgen::xor::urquhart(10, 3),
        satgen::xor::parity(40, 34, 4, true, 5),
        satgen::xor::parity(40, 34, 4, false, 5),
        satgen::random_ksat::planted_ksat(80, 340, 3, 9),
        satgen::qg::qg_unsat(6, 5, 2),
        satgen::factoring::factoring(1517, 6, 11),
        satgen::coloring::grid_coloring(5, 6, 2),
        satgen::hanoi::hanoi(3, 7),
        satgen::counter::counter(6, 40, 25),
    ];
    for f in &instances {
        check_agreement(f, GridConfig::default());
    }
}

#[test]
fn share_limits_preserve_answers() {
    let f = satgen::xor::parity(36, 30, 4, false, 3);
    for limit in [None, Some(3), Some(10), Some(100)] {
        let config = GridConfig {
            share_len_limit: limit,
            min_split_timeout: 2.0,
            ..GridConfig::default()
        };
        let (outcome, _) = grid_status(&f, Testbed::grads(), config);
        assert_eq!(outcome, GridOutcome::Unsat, "limit {limit:?}");
    }
}

#[test]
fn set2_testbed_with_batch_nodes_works() {
    // batch nodes join at t=50 and speed the drain-phase up
    let f = satgen::php::php(9, 8);
    let testbed = Testbed::set2().with_blue_horizon(10, 50.0, 4000.0);
    let config = GridConfig {
        share_len_limit: Some(3),
        min_split_timeout: 5.0,
        ..GridConfig::default()
    };
    let (outcome, secs) = grid_status(&f, testbed, config);
    assert_eq!(outcome, GridOutcome::Unsat);
    assert!(secs < 6000.0);
}

#[test]
fn grads_run_is_deterministic() {
    let f = satgen::xor::urquhart(11, 4);
    let run = || {
        let r = experiment::run(&f, Testbed::grads(), GridConfig::default());
        (
            r.seconds,
            r.master.splits,
            r.clients.work,
            r.sim.messages_delivered,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn verification_failures_never_happen() {
    for seed in 0..4 {
        let f = satgen::random_ksat::planted_ksat(60, 255, 3, seed);
        let r = experiment::run(
            &f,
            Testbed::uniform(5, 1000.0, 3 << 20),
            GridConfig {
                min_split_timeout: 1.0,
                ..GridConfig::default()
            },
        );
        assert!(matches!(r.outcome, GridOutcome::Sat(_)));
        assert_eq!(r.master.verification_failures, 0);
    }
}

#[test]
fn dimacs_files_roundtrip_through_the_whole_stack() {
    let f = satgen::php::php(6, 5);
    let dir = std::env::temp_dir().join("gridsat-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("php65.cnf");
    let mut out = std::fs::File::create(&path).unwrap();
    gridsat_cnf::write_dimacs(&mut out, &f).unwrap();
    drop(out);

    let g = gridsat_cnf::parse_dimacs_file(&path).unwrap();
    assert_eq!(sequential_status(&g), SolveStatus::Unsat);
    let (outcome, _) = grid_status(
        &g,
        Testbed::uniform(3, 1000.0, 3 << 20),
        GridConfig::default(),
    );
    assert_eq!(outcome, GridOutcome::Unsat);
}
