//! §5 experiments: MobileConfig bandwidth accounting and the canary
//! timing note from §6.3.

use gatekeeper::context::UserContext;
use gatekeeper::experiment::ParamValue;
use gatekeeper::project::Project;
use gatekeeper::runtime::Runtime;
use mobileconfig::{
    Binding, FieldType, MobileConfigClient, MobileConfigServer, MobileSchema, TranslationLayer,
};

/// A MobileConfig server with the one schema `app`: a Bool field `gated`
/// bound to Gatekeeper project `X` (launched to `launch` of users), then
/// one field per constant, typed by its value. Returns the server and the
/// schema.
pub fn server(
    app: &str,
    gated: &str,
    constants: &[(&str, ParamValue)],
    launch: f64,
) -> (MobileConfigServer, MobileSchema) {
    let mut fields = vec![(gated, FieldType::Bool)];
    let mut t = TranslationLayer::new();
    let project = "X".to_string();
    t.bind(app, gated, Binding::Gatekeeper { project });
    for (name, v) in constants {
        let ty = match v {
            ParamValue::Bool(_) => FieldType::Bool,
            ParamValue::Int(_) => FieldType::Int,
            ParamValue::Float(_) => FieldType::Float,
            ParamValue::Str(_) => FieldType::Str,
        };
        fields.push((*name, ty));
        t.bind(app, name, Binding::Constant(v.clone()));
    }
    let schema = MobileSchema::new(app, &fields);
    let mut gk = Runtime::new(laser::Laser::new(16));
    gk.update_project(Project::fraction_launch("X", launch));
    let mut server = MobileConfigServer::new(t, gk);
    server.register_schema(schema.clone());
    (server, schema)
}

/// §5 ablation: hash-based delta sync vs resending values on every poll.
pub fn bandwidth(clients: usize, polls_per_client: usize, change_every: usize) -> String {
    let (mut server, schema) = server(
        "MainApp",
        "feature_x",
        &[
            ("feed_batch", ParamValue::Int(20)),
            ("greeting", ParamValue::Str("hello there".into())),
            ("upload_quality", ParamValue::Float(0.8)),
        ],
        0.0,
    );

    let mut devices: Vec<MobileConfigClient> = (0..clients)
        .map(|i| MobileConfigClient::new(UserContext::with_id(i as u64), schema.clone()))
        .collect();

    let mut with_hash = 0u64;
    let mut changed_polls = 0u64;
    let mut launched = 0.0;
    for round in 0..polls_per_client {
        if round > 0 && round % change_every == 0 {
            // A config change between polls (expanding a rollout).
            launched = (launched + 0.25f64).min(1.0);
            server
                .gatekeeper_mut()
                .update_project(Project::fraction_launch("X", launched));
        }
        for d in &mut devices {
            let o = d.poll(&mut server);
            with_hash += o.bytes;
            changed_polls += o.changed as u64;
        }
    }
    // Without hash suppression, every poll would pay the full-values reply:
    // compute that size once from a fresh client (its first poll is full).
    let mut probe = MobileConfigClient::new(UserContext::with_id(999_999), schema.clone());
    let full = probe.poll(&mut server).bytes;
    let naive = full * (clients * polls_per_client) as u64;
    let total_polls = (clients * polls_per_client) as u64;
    format!(
        "§5 ablation: hash-based delta sync vs full transfer\n\
         ({clients} devices × {polls_per_client} polls, config changes every {change_every} polls)\n\
         polls with changes     : {changed_polls}/{total_polls}\n\
         bytes with hash sync   : {with_hash}\n\
         bytes resending always : {naive}\n\
         savings                : ×{:.1}\n\
         paper: \"To minimize the bandwidth consumption, the client sends\n\
         ... the hash of the config schema and the hash of the config\n\
         values ... the server sends back only the configs that have\n\
         changed.\"\n",
        naive as f64 / with_hash.max(1) as f64
    )
}

/// §6.3 note: canary phases dominate end-to-end config change time.
pub fn canary_timing() -> String {
    use configerator::canary::{CanaryService, CanarySpec, SyntheticFleet};
    // The paper budgets ~10 minutes of canary observation. Our phases model
    // observation windows; we report the spec's implied wall time.
    let spec = CanarySpec::standard(2000);
    let mut fleet = SyntheticFleet::new(5000, 5);
    let start = std::time::Instant::now();
    let outcome = CanaryService.run(&spec, "{\"ok\":1}", &mut fleet);
    let sim_cost = start.elapsed().as_secs_f64();
    // Production observation windows (the paper's ~10 minutes total).
    let prod_minutes = [5.0, 5.0];
    format!(
        "§6.3: canary timing\n\
         phases: {} (all passed: {})\n\
         production observation windows: {:?} min ≈ 10 min total (paper)\n\
         harness compute cost: {sim_cost:.2}s — the 10 minutes is waiting\n\
         for trustworthy health data, not computation; this is why commit\n\
         latency (Fig 14) is \"less critical for Configerator\".\n",
        outcome.phases.len(),
        outcome.passed,
        prod_minutes,
    )
}
