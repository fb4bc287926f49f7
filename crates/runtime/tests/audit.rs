//! Consistency-audit storms: randomized fault schedules over recorded
//! histories, judged offline by `deceit_core::audit`.
//!
//! Three layers:
//!
//! * seeded **sim storms** — deterministic, replayable bit-for-bit, run
//!   across many seeds (plus a proptest sweep);
//! * **live storms** — real threads racing real faults;
//! * the **mutation test**: flipping the `danger_skip_safety_currency`
//!   knob must make the auditor catch a durability violation and produce
//!   a shrunk, replayable failure report. If the auditor can't see a
//!   deliberately broken protocol, its green runs mean nothing.

use proptest::prelude::*;

use deceit_core::{audit, Contract, FaultEvent, FileParams, WriteAvailability};
use deceit_net::NodeId;
use deceit_runtime::nemesis::{audit_storm, run_sim_storm};
use deceit_runtime::{ClusterRuntime, HistoryRecorder, RuntimeConfig, StormConfig};

#[test]
fn sim_storms_are_green_across_seeds() {
    let rcfg = RuntimeConfig::new(3);
    for seed in 0..12u64 {
        let cfg = StormConfig::quick(seed);
        match audit_storm(&cfg, &rcfg, false) {
            Ok(report) => {
                assert!(report.writes_acked > 0, "seed {seed}: no writes acked");
                assert!(report.faults_seen > 0, "seed {seed}: no faults injected");
            }
            Err(failure) => panic!("{}", failure.render()),
        }
    }
}

#[test]
fn sim_storm_histories_are_deterministic_per_seed() {
    let rcfg = RuntimeConfig::new(3);
    let cfg = StormConfig::quick(33);
    let a = run_sim_storm(&cfg, &rcfg);
    let b = run_sim_storm(&cfg, &rcfg);
    assert_eq!(a.history.to_json(), b.history.to_json(), "same seed must replay the same history");
    assert_eq!(a.flight, b.flight, "same seed must replay the same protocol events");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any seed must survive the audit — the auditor's checks are
    /// contract-level, not schedule-level.
    #[test]
    fn sim_storm_audit_green_for_any_seed(seed in 0u64..10_000) {
        let rcfg = RuntimeConfig::new(3);
        let cfg = StormConfig::quick(seed);
        if let Err(failure) = audit_storm(&cfg, &rcfg, false) {
            panic!("{}", failure.render());
        }
    }
}

#[test]
fn live_storms_are_green() {
    let rcfg = RuntimeConfig::new(3);
    for seed in [1u64, 7, 21] {
        let cfg = StormConfig::quick(seed);
        match audit_storm(&cfg, &rcfg, true) {
            Ok(report) => {
                assert!(report.writes_acked > 0, "seed {seed}: no writes acked");
            }
            Err(failure) => panic!("{}", failure.render()),
        }
    }
}

/// The acceptance mutation: disable the safety-lane version-currency
/// check (a deliberate protocol bug — a lagging replica's ack then
/// counts toward `write_safety`, so an acked write can sit on one
/// current copy). Some storm schedule must expose it as a durability /
/// final-state violation, and the failure must carry a shrunk config
/// plus a one-line replay command.
#[test]
fn auditor_detects_disabled_safety_currency_check() {
    let mut rcfg = RuntimeConfig::new(3);
    rcfg.cluster.danger_skip_safety_currency = true;

    let mut detected = None;
    for seed in 0..120u64 {
        let cfg = StormConfig {
            writes_per_file: 30,
            faults: 12,
            files: 1,
            readers: 1,
            ..StormConfig::quick(seed)
        };
        if let Err(failure) = audit_storm(&cfg, &rcfg, false) {
            detected = Some(failure);
            break;
        }
    }
    let failure = detected.expect(
        "no storm seed in 0..120 exposed the disabled safety-currency check; \
         the auditor (or the nemesis) is too weak to catch a planted bug",
    );

    let rendered = failure.render();
    assert!(rendered.contains("--seed"), "failure report must carry a replay command: {rendered}");
    assert!(
        rendered.contains("audit_storm"),
        "replay command must name the repro binary: {rendered}"
    );
    assert!(
        rendered.contains("--mutate"),
        "a failure found with the check disabled must replay with it disabled: {rendered}"
    );
    assert!(!failure.report.violations.is_empty());
    // The report names the protocol events behind the failure: the sim
    // storm's flight ring holds at least one retained event.
    let (_, flight) = rendered.split_once("-- protocol flight recorder").expect("flight section");
    assert!(
        flight.lines().any(|l| l.starts_with("  [")),
        "a red sim storm must carry its flight ring: {rendered}"
    );
    // The shrunk config must still fail when replayed directly — that is
    // what makes the printed seed a genuine repro.
    let replayed = run_sim_storm(&failure.config, &rcfg);
    let verdict = audit(&replayed.history, &failure.config.contract());
    assert!(!verdict.is_green(), "shrunk config did not reproduce: {:?}", failure.config);
}

/// With the knob at its default (off), the exact seeds that exposed the
/// mutation must be green — the detection above is the protocol's bug,
/// not the auditor crying wolf.
#[test]
fn mutation_seeds_are_green_without_the_mutation() {
    let rcfg = RuntimeConfig::new(3);
    for seed in 0..120u64 {
        let cfg = StormConfig {
            writes_per_file: 30,
            faults: 12,
            files: 1,
            readers: 1,
            ..StormConfig::quick(seed)
        };
        if let Err(failure) = audit_storm(&cfg, &rcfg, false) {
            panic!("seed {seed} red with the mutation off:\n{}", failure.render());
        }
    }
}

/// Regression: a reader whose session forwards reads across the cell
/// must never observe a shrinking acked prefix while split and heal
/// faults flap the partition around in-flight requests (a
/// `ClusterRuntime::fault` racing a forwarded read).
#[test]
fn forwarded_reads_stay_monotone_across_split_heal_flaps() {
    let rcfg = RuntimeConfig::new(3);
    let rt = ClusterRuntime::start(rcfg);
    let ids: Vec<NodeId> = rt.server_ids().to_vec();
    let recorder = HistoryRecorder::new();

    // File held on server 0 with 2 replicas; the reader homes on the
    // last server, which is the likeliest to hold no replica — its
    // reads forward across exactly the link the splits keep cutting.
    let mut setup = rt.client_homed(ids[0]);
    let root = setup.root();
    let attr = setup.create(root, "epoch-race", 0o644).expect("create");
    let fh = attr.handle;
    let params = FileParams {
        min_replicas: 2,
        write_safety: 2,
        availability: WriteAvailability::Medium,
        ..FileParams::default()
    };
    setup.set_file_params(fh, params).expect("set params");
    rt.settle();

    std::thread::scope(|s| {
        let mut writer = rt.client_homed(ids[0]);
        writer.record_into(recorder.journal(1));
        let writer_handle = s.spawn(move || {
            let mut offset = 0usize;
            for i in 0..60usize {
                let chunk = format!("[w{i:03}]").into_bytes();
                let mut tries = 0;
                while writer.write(fh, offset, &chunk).is_err() {
                    tries += 1;
                    assert!(tries < 4000, "writer wedged at chunk {i}");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                offset += chunk.len();
            }
        });

        let mut reader = rt.client_homed(*ids.last().unwrap());
        reader.record_into(recorder.journal(2));
        let stop = std::sync::Arc::new(deceit_sim::atomic::PublishedBool::new(false));
        let reader_stop = std::sync::Arc::clone(&stop);
        s.spawn(move || {
            while !reader_stop.load() {
                let _ = reader.read(fh, 0, 1 << 20);
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });

        // Flap the partition under the traffic: server 2 (the
        // reader's home) repeatedly isolated and healed.
        let minority = ids.last().unwrap().0;
        let split = FaultEvent::Split { groups: vec![(0..minority).collect(), vec![minority]] };
        for _ in 0..30 {
            rt.fault(&split);
            std::thread::sleep(std::time::Duration::from_millis(2));
            rt.fault(&FaultEvent::Heal);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }

        writer_handle.join().expect("writer thread");
        stop.store(true);
    });

    rt.settle();
    let history = recorder.merge();
    rt.shutdown();

    // No crashes happened, so the audit runs in strict mode: any
    // non-monotone acked read, torn read, or future read fails here.
    let contract = Contract { write_safety: 2, min_replicas: 2, servers: 3 };
    let report = audit(&history, &contract);
    assert!(report.reads_checked > 0, "reader never got a checked ack");
    assert!(
        report.is_green(),
        "forwarded reads regressed under split/heal flapping:\n{}",
        report.render()
    );
}
