//! Heap allocations on the read path, counted exactly.
//!
//! A poll that finds nothing changed is almost every poll (§5: the server
//! "sends back only the configs that have changed"), so it must cost only
//! the work of evaluating the fields: no heap allocation from the client's
//! request, through the server's resolve walk and the Gatekeeper checks it
//! runs, down to the Laser read behind a `laser()` restraint. Allocation
//! counts are deterministic, so unlike a wall-clock number this one can be
//! asserted exactly.
//!
//! The counter is per thread: the test harness runs each test on its own
//! thread, so parallel tests do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use gatekeeper::prelude::*;
use laser::{Laser, LaserBackend, ResolvedBackend};
use mobileconfig::{
    Binding, FieldType, MobileConfigClient, MobileConfigServer, MobileSchema, TranslationLayer,
};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count touches only a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap allocations (including reallocations) `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

const DATASET: &str = "trending";

/// A user whose `laser()` key is present (and above the threshold) and one
/// whose key is absent.
const PRESENT: u64 = 10;
const ABSENT: u64 = 11;

fn laser() -> Laser {
    let mut l = Laser::new(64);
    l.load_dataset(DATASET, vec![(format!("LaserProj-{PRESENT}"), 0.9)]);
    l
}

fn server() -> (MobileConfigServer, MobileSchema) {
    let mut rt = Runtime::new(laser());
    rt.update_project(Project::fraction_launch("Plain", 0.5));
    rt.update_project(Project::new(
        "LaserProj",
        vec![Rule::new(
            vec![RestraintSpec::of(RestraintKind::Laser {
                dataset: DATASET.into(),
                project: "LaserProj".into(),
                threshold: 0.5,
            })],
            1.0,
        )],
    ));
    let schema = MobileSchema::new(
        "App",
        &[
            ("gated", FieldType::Bool),
            ("laser_gated", FieldType::Bool),
            ("limit", FieldType::Int),
            ("ratio", FieldType::Float),
            ("echo", FieldType::Float),
        ],
    );
    let mut t = TranslationLayer::new();
    t.bind(
        "App",
        "gated",
        Binding::Gatekeeper {
            project: "Plain".into(),
        },
    );
    t.bind(
        "App",
        "laser_gated",
        Binding::Gatekeeper {
            project: "LaserProj".into(),
        },
    );
    t.bind("App", "limit", Binding::Constant(ParamValue::Int(10)));
    t.bind("App", "ratio", Binding::Constant(ParamValue::Float(0.25)));
    t.bind(
        "App",
        "echo",
        Binding::Experiment {
            name: "echo".into(),
            param: "level".into(),
        },
    );
    let mut server = MobileConfigServer::new(t, rt);
    server.update_experiment(Experiment::new(
        "echo",
        vec![Group {
            name: "loud".into(),
            fraction: 0.5,
            params: BTreeMap::from([("level".to_string(), ParamValue::Float(0.9))]),
        }],
        BTreeMap::from([("level".to_string(), ParamValue::Float(0.1))]),
    ));
    server.register_schema(schema.clone());
    (server, schema)
}

#[test]
fn a_not_modified_poll_allocates_nothing() {
    let (mut server, schema) = server();
    for user in [PRESENT, ABSENT] {
        let mut client = MobileConfigClient::new(UserContext::with_id(user), schema.clone());
        // Warm-up: the first poll carries values (and promotes the Laser key
        // into the memory tier); everything after is a hash check.
        assert!(client.poll(&mut server).changed);
        assert_eq!(client.get_bool("laser_gated"), user == PRESENT);
        let laser_before = server.gatekeeper_mut().laser_mut().stats();
        let (n, out) = allocations(|| client.poll(&mut server));
        assert!(!out.changed);
        assert_eq!(n, 0, "a NotModified poll for user {user} allocated");
        // The poll really did read Laser: a memory hit for the present key,
        // a miss for the absent one.
        let laser_after = server.gatekeeper_mut().laser_mut().stats();
        let hits = laser_after.memory_hits - laser_before.memory_hits;
        let misses = laser_after.misses - laser_before.misses;
        assert_eq!(
            (hits, misses),
            if user == PRESENT { (1, 0) } else { (0, 1) }
        );
    }
    assert_eq!(server.stats().not_modified, 2);
}

#[test]
fn laser_memory_hits_and_misses_allocate_nothing() {
    let mut l = laser();
    // Warm-up: the flash read promotes the key.
    assert_eq!(l.get_project_user(DATASET, "LaserProj", PRESENT), Some(0.9));
    let (n, hit) = allocations(|| l.get_project_user(DATASET, "LaserProj", PRESENT));
    assert_eq!((n, hit), (0, Some(0.9)), "memory hit");
    let (n, miss) = allocations(|| l.get_project_user(DATASET, "LaserProj", ABSENT));
    assert_eq!((n, miss), (0, None), "miss");
    let backend: &mut dyn LaserBackend = &mut l;
    let (n, hit) = allocations(|| backend.get_project_user(DATASET, "LaserProj", PRESENT));
    assert_eq!((n, hit), (0, Some(0.9)), "memory hit through the trait");
    let s = l.stats();
    assert_eq!((s.flash_reads, s.memory_hits, s.misses), (1, 2, 1));
}

#[test]
fn resolved_backend_reads_allocate_nothing() {
    let mut b = ResolvedBackend::new();
    b.set(DATASET, &format!("LaserProj-{PRESENT}"), Some(0.9));
    b.set(DATASET, &format!("LaserProj-{ABSENT}"), None);
    let (n, v) = allocations(|| b.get_project_user(DATASET, "LaserProj", PRESENT));
    assert_eq!((n, v), (0, Some(0.9)));
    let (n, v) = allocations(|| b.get_project_user(DATASET, "LaserProj", ABSENT));
    assert_eq!((n, v), (0, None));
    let (n, v) = allocations(|| b.get_project_user(DATASET, "Nobody", PRESENT));
    assert_eq!((n, v), (0, None));
    assert_eq!(b.unresolved, 1);
}

#[test]
fn gatekeeper_checks_allocate_nothing() {
    let mut rt = Runtime::new(laser());
    rt.update_project(Project::new(
        "P",
        vec![
            Rule::new(
                vec![
                    RestraintSpec::of(RestraintKind::Country(vec!["US".into(), "BR".into()])),
                    RestraintSpec::of(RestraintKind::MinFriends(10)),
                ],
                0.5,
            ),
            Rule::new(vec![RestraintSpec::of(RestraintKind::Always)], 0.1),
        ],
    ));
    let users: Vec<UserContext> = (0..100u64)
        .map(|u| {
            let mut ctx = UserContext::with_id(u).country(if u % 3 == 0 { "US" } else { "IN" });
            ctx.friend_count = u as u32;
            ctx
        })
        .collect();
    // 1,000 checks stay below the optimizer's 4,096-check refresh, which
    // does allocate (a new evaluation order).
    let (n, passes) = allocations(|| {
        (0..1000)
            .filter(|&i| rt.check("P", &users[i % users.len()]))
            .count()
    });
    assert_eq!(n, 0);
    assert!(passes > 0 && passes < 1000);
    assert_eq!(rt.stats().checks, 1000);
}
