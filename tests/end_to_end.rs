//! Cross-crate integration tests: the full stack wired together the way
//! the paper's Figure 1/Figure 3 composes it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use configerator::canary::{CanarySpec, SyntheticFleet};
use configerator::mutator::Mutator;
use configerator::review::ReviewPolicy;
use configerator::stack::{ShipError, Stack};
use gatekeeper::prelude::*;
use simnet::prelude::*;
use zeus::deploy::{DeployConfig, ZeusDeployment};

fn ch(pairs: &[(&str, &str)]) -> BTreeMap<String, Option<String>> {
    pairs
        .iter()
        .map(|(p, s)| (p.to_string(), Some(s.to_string())))
        .collect()
}

fn no_review() -> ReviewPolicy {
    ReviewPolicy {
        mandatory_review: false,
        mandatory_tests: true,
    }
}

/// Authoring → compile → ship → distribution over the simulated fleet →
/// application read at a proxy: the complete Figure 3 path.
#[test]
fn config_change_reaches_simulated_fleet() {
    // Control plane.
    let mut stack = Stack::new(2);
    stack.set_policy(no_review());
    let id = stack.propose(
        "alice",
        "add store config",
        ch(&[(
            "store/cache.cconf",
            "export_if_last({\"prefetch_kb\": 64, \"write_batch\": 16})",
        )]),
    );
    let out = stack.ship(id, None).expect("ship");
    assert_eq!(out.distributed, vec!["store/cache"]);
    let json = stack.master().artifact("store/cache").unwrap().json.clone();

    // Data plane: push the tailer output through a simulated Zeus fleet.
    let topo = Topology::symmetric(2, 2, 30);
    let mut sim = Sim::new(topo, NetConfig::datacenter(), 77);
    let cfg = DeployConfig {
        ensemble_size: 3,
        observers_per_cluster: 2,
        subscriptions: vec!["store/cache".to_string()],
    };
    let zeus = ZeusDeployment::install(&mut sim, &cfg);
    sim.run_for(SimDuration::from_secs(1));
    let now = sim.now();
    zeus.write_at(&mut sim, now, "store/cache", Bytes::from(json.clone()));
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(zeus.coverage(&sim, "store/cache", json.as_bytes()), 1.0);
}

/// Gatekeeper consumes its project config from Configerator, live.
#[test]
fn gatekeeper_project_updates_flow_from_configerator() {
    let mut stack = Stack::new(1);
    stack.set_policy(no_review());
    let runtime: Rc<RefCell<Runtime>> = Rc::new(RefCell::new(Runtime::new(laser::Laser::new(8))));
    let rt = runtime.clone();
    stack.subscribe("gk/launch", move |u| {
        rt.borrow_mut()
            .update_project_json(&String::from_utf8_lossy(&u.data))
            .expect("valid project json");
    });

    let project_src = |prob: f64| {
        ch(&[(
            "gk/launch.cconf",
            &format!(
                "export_if_last({{\"name\": \"launch\", \"rules\": [{{\"restraints\": [{{\"kind\": \"Always\", \"negate\": false}}], \"pass_prob\": {prob}}}]}})"
            ),
        )])
    };
    let id = stack.propose("tool", "launch at 0%", project_src(0.0));
    stack.ship(id, None).expect("ship");
    let user = UserContext::with_id(5);
    assert!(!runtime.borrow_mut().check("launch", &user));

    let id = stack.propose("tool", "launch at 100%", project_src(1.0));
    stack.ship(id, None).expect("ship");
    assert!(runtime.borrow_mut().check("launch", &user));
}

/// The full error-prevention gauntlet in one place: validator rejection,
/// Sandcastle rejection, canary rejection — each leaves production intact.
#[test]
fn defense_in_depth_layers() {
    let mut stack = Stack::new(1);
    stack.set_policy(no_review());
    stack.set_default_canary(CanarySpec::standard(1000));
    stack.sandcastle.register_check("no_ghost_cluster", |cfg| {
        if cfg.json.contains("ghost") {
            Err("unknown cluster".into())
        } else {
            Ok(())
        }
    });
    // Seed a guarded config.
    let id = stack.propose(
        "alice",
        "seed",
        ch(&[
            (
                "schemas/svc.schema",
                "struct Svc { 1: string cluster 2: i64 mem = 256 }",
            ),
            (
                "schemas/svc.cvalidator",
                "def validate(cfg):\n    require(cfg.mem >= 64, \"mem\")",
            ),
            (
                "svc.cconf",
                "schema \"schemas/svc.schema\"\nexport_if_last(Svc { cluster: \"c1\" })",
            ),
        ]),
    );
    let mut fleet = SyntheticFleet::new(4000, 3);
    stack.ship(id, Some(&mut fleet)).expect("seed ships");
    let good = stack.master().artifact("svc").unwrap().json.clone();

    // Layer 1: the validator (runs inside compilation at ship time).
    let id = stack.propose(
        "bob",
        "bad mem",
        ch(&[(
            "svc.cconf",
            "schema \"schemas/svc.schema\"\nexport_if_last(Svc { cluster: \"c1\", mem: 8 })",
        )]),
    );
    // The validator fails during Sandcastle's dry-run compile, so the
    // mandatory-tests policy blocks the ship at the review stage.
    let report = stack.phab.review(id).unwrap().report.clone().unwrap();
    assert!(!report.passed);
    assert!(report.failures[0].contains("mem"));
    assert!(matches!(stack.ship(id, None), Err(ShipError::Review(_))));

    // Layer 2: Sandcastle (integration knowledge the validator lacks).
    let id = stack.propose(
        "bob",
        "ghost cluster",
        ch(&[(
            "svc.cconf",
            "schema \"schemas/svc.schema\"\nexport_if_last(Svc { cluster: \"ghost\" })",
        )]),
    );
    assert!(
        !stack
            .phab
            .review(id)
            .unwrap()
            .report
            .as_ref()
            .unwrap()
            .passed
    );

    // Layer 3: the canary.
    let id = stack.propose(
        "bob",
        "slow path",
        ch(&[(
            "svc.cconf",
            "schema \"schemas/svc.schema\"\nexport_if_last(Svc { cluster: \"slow\" })",
        )]),
    );
    let mut fleet = SyntheticFleet::new(4000, 4);
    fleet.add_effect(|cfg, metric, _| {
        if metric == "error_rate" && cfg.contains("slow") {
            0.05
        } else {
            0.0
        }
    });
    assert!(matches!(
        stack.ship(id, Some(&mut fleet)),
        Err(ShipError::Canary(_))
    ));

    // Production config untouched through all three failures.
    assert_eq!(stack.master().artifact("svc").unwrap().json, good);
}

/// Region failure mid-stream: commits continue, the recovered region
/// catches up, and automation writes keep flowing.
#[test]
fn multi_region_failover_with_automation_traffic() {
    let mut stack = Stack::new(3);
    stack.set_policy(no_review());
    let shifter = Mutator::new("shifter");
    for i in 0..5 {
        shifter
            .update_raw(stack.master_mut(), "weights.json", "shift", |_| {
                format!("{{\"w\": {i}}}")
            })
            .expect("mutator write");
        stack.pump();
        if i == 2 {
            stack.fail_region(0);
            assert_eq!(stack.master_region(), 1);
        }
    }
    assert!(stack
        .master()
        .artifact("weights.json")
        .unwrap()
        .json
        .contains('4'));
    stack.recover_region(0);
    assert!(stack
        .region(0)
        .artifact("weights.json")
        .unwrap()
        .json
        .contains('4'));
}

/// Sitevars and CDSL interop: a sitevar value produced by the expression
/// evaluator serializes canonically and round-trips through serde_json.
#[test]
fn sitevars_values_are_valid_json() {
    let mut store = sitevars::SitevarStore::new();
    store
        .set(
            "feed_params",
            "{\"ranking\": [1.5, 2.0], \"flags\": {\"x\": true, \"y\": null}}",
        )
        .expect("set");
    let json = store.get("feed_params").unwrap().to_json();
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(parsed["ranking"][1], serde_json::json!(2.0));
    assert_eq!(parsed["flags"]["y"], serde_json::Value::Null);
}

/// The dependency ripple works through the whole stack: one shared module
/// edit distributes every dependent config in one ship.
#[test]
fn shared_module_ripple_distributes_all_dependents() {
    let mut stack = Stack::new(1);
    stack.set_policy(no_review());
    let count = Rc::new(RefCell::new(0));
    let (c1, c2) = (count.clone(), count.clone());
    stack.subscribe("app", move |_| *c1.borrow_mut() += 1);
    stack.subscribe("firewall", move |_| *c2.borrow_mut() += 1);
    let id = stack.propose(
        "alice",
        "seed",
        ch(&[
            ("shared/port.cinc", "PORT = 8089"),
            (
                "app.cconf",
                "import \"shared/port.cinc\"\nexport_if_last({\"port\": PORT})",
            ),
            (
                "firewall.cconf",
                "import \"shared/port.cinc\"\nexport_if_last({\"allow\": [PORT]})",
            ),
        ]),
    );
    stack.ship(id, None).expect("seed");
    assert_eq!(*count.borrow(), 2);
    let id = stack.propose("bob", "bump", ch(&[("shared/port.cinc", "PORT = 9090")]));
    let out = stack.ship(id, None).expect("bump");
    assert_eq!(out.report.ripple_recompiles.len(), 2);
    assert_eq!(*count.borrow(), 4, "both dependents redistributed");
    assert!(stack
        .master()
        .artifact("firewall")
        .unwrap()
        .json
        .contains("9090"));
}

/// The §8 future-work feature: a dormant config changed in an unusual way
/// by a stranger gets flagged at review time.
#[test]
fn high_risk_updates_are_flagged() {
    let mut stack = Stack::new(1);
    stack.set_policy(no_review());
    // An actively-maintained config with a small circle of authors.
    for (i, author) in ["ann", "bo", "cy", "ann", "bo", "cy", "ann", "bo"]
        .iter()
        .enumerate()
    {
        let id = stack.propose(
            author,
            "tweak",
            ch(&[("hot/knob.cconf", &format!("export_if_last({{\"v\": {i}}})"))]),
        );
        stack.ship(id, None).expect("ship");
    }
    // Routine change by a known author: low risk.
    let id = stack.propose(
        "ann",
        "tweak",
        ch(&[("hot/knob.cconf", "export_if_last({\"v\": 99})")]),
    );
    assert!(!stack.risk_of(id).unwrap().is_high_risk());
    stack.ship(id, None).expect("ship");

    // Dormant + huge + stranger: flagged. (Dormancy is measured on the
    // landed-commit clock, so land unrelated traffic first.)
    for i in 0..300 {
        let id = stack.propose(
            "other-team",
            "unrelated",
            ch(&[("elsewhere/cfg.cconf", &format!("export_if_last({i})"))]),
        );
        stack.ship(id, None).expect("ship");
    }
    let big_change: String = (0..400)
        .map(|i| format!("x{i} = {i}\n"))
        .chain(std::iter::once("export_if_last(x399)".to_string()))
        .collect();
    let id = stack.propose(
        "stranger",
        "big sweep",
        ch(&[("hot/knob.cconf", &big_change)]),
    );
    let risk = stack.risk_of(id).unwrap();
    assert!(
        risk.is_high_risk(),
        "score {}: {:?}",
        risk.score,
        risk.signals
    );
    let names: Vec<&str> = risk.signals.iter().map(|s| s.name).collect();
    assert!(names.contains(&"dormancy"), "{names:?}");
    assert!(names.contains(&"unusual-size"), "{names:?}");
    assert!(names.contains(&"stranger"), "{names:?}");
}

/// Sitevars as a shim on Configerator (§3.2): the sitevar's expression is
/// stored as a raw config; evaluation and checker run at the shim layer.
#[test]
fn sitevars_compose_with_the_stack() {
    let mut stack = Stack::new(1);
    let mut shim = sitevars::SitevarStore::new();

    // Setting a sitevar = validating at the shim + committing the raw
    // expression through Configerator.
    let set = |stack: &mut Stack,
               shim: &mut sitevars::SitevarStore,
               name: &str,
               expr: &str|
     -> Result<(), String> {
        let out = shim.set(name, expr).map_err(|e| e.to_string())?;
        for w in &out.warnings {
            // The UI would display these (§3.2); surfaced, not fatal.
            eprintln!("warning: {w}");
        }
        stack
            .master_mut()
            .commit_raw(
                "sitevar-ui",
                "update",
                &format!("sitevars/{name}"),
                expr.as_bytes().to_vec(),
            )
            .map_err(|e| e.to_string())?;
        stack.pump();
        Ok(())
    };

    set(&mut stack, &mut shim, "upload_limit", "10 * 1024").unwrap();
    shim.set_checker(
        "upload_limit",
        "def check(value):\n    require(value > 0, \"limit must be positive\")",
    )
    .unwrap();
    // A checker-violating update never reaches the repository.
    let heads_before = stack.master().repo().heads();
    assert!(set(&mut stack, &mut shim, "upload_limit", "-1").is_err());
    assert_eq!(stack.master().repo().heads(), heads_before);
    // A good update lands; the stored artifact is the raw expression.
    set(&mut stack, &mut shim, "upload_limit", "20 * 1024").unwrap();
    assert_eq!(
        stack
            .master()
            .artifact("sitevars/upload_limit")
            .unwrap()
            .json,
        "20 * 1024"
    );
    assert_eq!(shim.get("upload_limit").unwrap().to_json(), "20480");
}
