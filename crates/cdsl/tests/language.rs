//! Black-box tests of the CDSL language through the public compiler API:
//! realistic config programs, error reporting, and the paper's authoring
//! patterns (Figure 2, §3.1).

use std::collections::BTreeMap;

use cdsl::compile::Compiler;
use cdsl::{CdslError, ErrorKind};

fn files(entries: &[(&str, &str)]) -> BTreeMap<String, String> {
    entries
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

fn compile(fs: &BTreeMap<String, String>, entry: &str) -> Result<String, CdslError> {
    Compiler::new(fs).compile(entry).map(|o| o.json)
}

#[test]
fn three_team_config_composition() {
    // §3.1: "Hypothetically, three different teams may be involved":
    // scheduler (schema + module + validator), cache, and security.
    let fs = files(&[
        (
            "scheduler/job.schema",
            "enum Tier { BRONZE, SILVER, GOLD }\n\
             struct Job {\n  1: string name\n  2: i64 memory_mb = 1024\n\
             \x20 3: list<string> tags\n  4: Tier tier = BRONZE\n  5: map<string, string> env\n}",
        ),
        (
            "scheduler/job.cvalidator",
            "def validate(cfg):\n\
             \x20   require(len(cfg.name) > 0, \"name required\")\n\
             \x20   require(cfg.memory_mb >= 128 and cfg.memory_mb <= 65536, \"memory out of range\")\n\
             \x20   require(\"team\" in cfg.env, \"env.team required\")\n",
        ),
        (
            "scheduler/create_job.cinc",
            "schema \"scheduler/job.schema\"\n\
             def create_job(name, team, memory_mb=1024, tags=[]):\n\
             \x20   return Job {\n\
             \x20       name: name,\n\
             \x20       memory_mb: memory_mb,\n\
             \x20       tags: tags + [\"managed\"],\n\
             \x20       env: {\"team\": team},\n\
             \x20   }\n",
        ),
        (
            "cache/job.cconf",
            "import \"scheduler/create_job.cinc\"\n\
             export_if_last(create_job(\"cache\", \"cache-team\", memory_mb=4096, tags=[\"hot\"]))",
        ),
        (
            "security/job.cconf",
            "import \"scheduler/create_job.cinc\"\n\
             export_if_last(create_job(\"security\", \"sec-team\"))",
        ),
    ]);
    let cache = compile(&fs, "cache/job.cconf").unwrap();
    assert!(cache.contains("\"memory_mb\": 4096"));
    assert!(cache.contains("\"hot\""));
    assert!(cache.contains("\"managed\""));
    assert!(cache.contains("\"tier\": \"BRONZE\""));
    let security = compile(&fs, "security/job.cconf").unwrap();
    assert!(security.contains("\"memory_mb\": 1024"));

    // The shared validator protects every team's config.
    let mut broken = fs.clone();
    broken.insert(
        "cache/job.cconf".to_string(),
        "import \"scheduler/create_job.cinc\"\nexport_if_last(create_job(\"cache\", \"t\", memory_mb=1))"
            .to_string(),
    );
    let err = compile(&broken, "cache/job.cconf").unwrap_err();
    assert!(err.is_validation());
    assert!(err.message().contains("memory out of range"));
}

#[test]
fn computed_configs_with_loops_and_conditionals() {
    let fs = files(&[(
        "shards.cconf",
        "num_shards = 8\n\
         shards = []\n\
         for i in range(num_shards):\n\
         \x20   weight = 2 if i < 2 else 1\n\
         \x20   shards = append(shards, {\"id\": i, \"host\": \"shard-\" + str(i), \"weight\": weight})\n\
         export_if_last({\"shards\": shards, \"total_weight\": 2 * 2 + (num_shards - 2)})",
    )]);
    let json = compile(&fs, "shards.cconf").unwrap();
    let v: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(v["shards"].as_array().unwrap().len(), 8);
    assert_eq!(v["shards"][0]["weight"], serde_json::json!(2));
    assert_eq!(v["shards"][7]["host"], serde_json::json!("shard-7"));
    assert_eq!(v["total_weight"], serde_json::json!(10));
}

#[test]
fn diamond_imports_evaluate_once() {
    // a imports b and c; both import base. base must execute once (its
    // bindings are shared), and the dependency list contains each file
    // once.
    let fs = files(&[
        ("base.cinc", "COUNTER = [1]\nVALUE = 10"),
        ("b.cinc", "import \"base.cinc\"\nB = VALUE + 1"),
        ("c.cinc", "import \"base.cinc\"\nC = VALUE + 2"),
        (
            "a.cconf",
            "import \"b.cinc\"\nimport \"c.cinc\"\nexport_if_last(B + C)",
        ),
    ]);
    let out = Compiler::new(&fs).compile("a.cconf").unwrap();
    assert_eq!(out.value.to_json(), "23");
    assert_eq!(out.deps, vec!["b.cinc", "base.cinc", "c.cinc"]);
}

#[test]
fn error_locations_point_at_the_right_file() {
    let fs = files(&[
        ("lib.cinc", "def helper(x):\n    return x + missing_name"),
        (
            "main.cconf",
            "import \"lib.cinc\"\nexport_if_last(helper(1))",
        ),
    ]);
    let err = compile(&fs, "main.cconf").unwrap_err();
    assert_eq!(err.location.path, "lib.cinc");
    assert_eq!(err.location.line, 2);
    assert!(matches!(err.kind, ErrorKind::Eval(_)));
}

#[test]
fn schema_type_errors_name_the_field() {
    let fs = files(&[
        ("t.schema", "struct T { 1: list<i64> xs }"),
        (
            "t.cconf",
            "schema \"t.schema\"\nexport_if_last(T { xs: [1, \"two\", 3] })",
        ),
    ]);
    let err = compile(&fs, "t.cconf").unwrap_err();
    assert!(matches!(err.kind, ErrorKind::Type(_)));
    assert!(err.message().contains("T.xs"), "{}", err.message());
}

#[test]
fn nested_structs_compose() {
    let fs = files(&[
        (
            "net.schema",
            "struct Endpoint { 1: string host 2: i64 port }\n\
             struct Service { 1: string name 2: Endpoint primary 3: optional Endpoint backup }",
        ),
        (
            "svc.cconf",
            "schema \"net.schema\"\n\
             def ep(host, port=443):\n\
             \x20   return Endpoint { host: host, port: port }\n\
             export_if_last(Service { name: \"api\", primary: ep(\"a.example\"), backup: ep(\"b.example\", port=8443) })",
        ),
    ]);
    let json = compile(&fs, "svc.cconf").unwrap();
    let v: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(v["primary"]["port"], serde_json::json!(443));
    assert_eq!(v["backup"]["port"], serde_json::json!(8443));
    // Wrong nested type is rejected.
    let fs2 = files(&[
        (
            "net.schema",
            "struct Endpoint { 1: string host 2: i64 port }\n\
             struct Service { 1: string name 2: Endpoint primary }",
        ),
        (
            "svc.cconf",
            "schema \"net.schema\"\nexport_if_last(Service { name: \"api\", primary: {\"host\": \"x\"} })",
        ),
    ]);
    assert!(matches!(
        compile(&fs2, "svc.cconf").unwrap_err().kind,
        ErrorKind::Type(_)
    ));
}

#[test]
fn string_builtins_compose_for_config_generation() {
    let fs = files(&[(
        "hosts.cconf",
        "regions = [\"atn\", \"prn\", \"frc\"]\n\
         hosts = []\n\
         for r in regions:\n\
         \x20   if startswith(r, \"a\") or startswith(r, \"p\"):\n\
         \x20       hosts = append(hosts, upper(r) + \".example.com\")\n\
         export_if_last({\"hosts\": hosts, \"csv\": join(hosts, \",\")})",
    )]);
    let json = compile(&fs, "hosts.cconf").unwrap();
    assert!(json.contains("ATN.example.com"));
    assert!(json.contains("PRN.example.com"));
    assert!(!json.contains("FRC"));
    assert!(json.contains("ATN.example.com,PRN.example.com"));
}

#[test]
fn export_from_helper_function_in_entry_module_counts() {
    // export_if_last inside a function defined in the entry module fires;
    // the same call in an imported module does not.
    let fs = files(&[(
        "main.cconf",
        "def emit(v):\n    export_if_last(v)\nemit({\"ok\": true})",
    )]);
    assert_eq!(
        compile(&fs, "main.cconf").unwrap().trim(),
        "{\n  \"ok\": true\n}"
    );
    let fs = files(&[
        ("lib.cinc", "def emit(v):\n    export_if_last(v)"),
        (
            "main.cconf",
            "import \"lib.cinc\"\nemit({\"nope\": 1})\nexport_if_last({\"yes\": 1})",
        ),
    ]);
    let out = compile(&fs, "main.cconf").unwrap();
    assert!(
        out.contains("yes"),
        "imported module's export must not fire: {out}"
    );
}

#[test]
fn cross_repository_style_deep_imports() {
    // §3.6's example: a config importing from different partitions
    // ("feed/A.cinc", "tao/B.cinc") — paths are opaque to the compiler.
    let fs = files(&[
        ("feed/A.cinc", "A = {\"feed_weight\": 3}"),
        ("tao/B.cinc", "B = {\"tao_replicas\": 5}"),
        (
            "combined.cconf",
            "import \"feed/A.cinc\"\nimport \"tao/B.cinc\"\nexport_if_last(merge(A, B))",
        ),
    ]);
    let json = compile(&fs, "combined.cconf").unwrap();
    assert!(json.contains("feed_weight"));
    assert!(json.contains("tao_replicas"));
}

#[test]
fn the_builtin_list_and_the_builtin_dispatch_agree() {
    // `interp::BUILTINS` (what a name may resolve to) and the arms of the
    // interpreter's dispatch are two hand-kept lists.
    use cdsl::interp::{eval_expression, BUILTINS};
    use cdsl::Value;
    for name in BUILTINS {
        // A listed name evaluates to the builtin of that name and no other…
        let value = eval_expression(name).unwrap();
        assert!(
            matches!(value, Value::Builtin(n) if BUILTINS.contains(&n) && n == *name),
            "{name} evaluates to {value}"
        );
        // …which dispatches: whatever it makes of no arguments, it is not
        // news to the interpreter.
        if let Err(e) = eval_expression(&format!("{name}()")) {
            assert!(!e.message().contains("unknown builtin"), "{name}(): {e}");
        }
    }
    // A name off the list is not a builtin, even if it sounds like one.
    assert!(eval_expression("length").is_err());
}

#[test]
fn negative_zero_divides_like_zero() {
    use cdsl::interp::eval_expression;
    for expr in ["1 / -0.0", "1 % -0.0", "1.5 / (0 * -1.0)"] {
        let e = eval_expression(expr).unwrap_err();
        assert!(e.message().ends_with("by zero"), "{expr}: {e}");
    }
}
