//! End-to-end tests of the `jetty-repro` binary's argument handling.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jetty-repro"))
        .args(args)
        .output()
        .expect("failed to spawn jetty-repro")
}

#[test]
fn rejects_cpu_counts_below_two() {
    for cpus in ["0", "1"] {
        let out = repro(&["table2", "--cpus", cpus, "--scale", "0.001"]);
        assert!(!out.status.success(), "--cpus {cpus} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--cpus must be at least 2"),
            "unhelpful error for --cpus {cpus}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "no tables before the error");
    }
}

#[test]
fn rejects_non_numeric_cpus() {
    let out = repro(&["table2", "--cpus", "four"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad cpu count"));
}

#[test]
fn rejects_zero_threads() {
    let out = repro(&["table1", "--threads", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads must be at least 1"));
}

#[test]
fn help_documents_threads_flag() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--threads"));
    assert!(stdout.contains("JETTY_THREADS"));
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    // Both spellings take the dedicated help path: usage on stdout,
    // nothing on stderr, success — NOT the unknown-flag error path
    // (stderr + nonzero).
    for flag in ["--help", "-h"] {
        let out = repro(&[flag]);
        assert!(out.status.success(), "{flag} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("jetty-repro [COMMANDS...]"), "{flag} usage: {stdout}");
        assert!(stdout.contains("commands:"), "{flag} must list the commands");
        assert!(stdout.contains("protocols"), "{flag} must mention the protocols suite");
        assert!(out.stderr.is_empty(), "{flag} must not write to stderr");
    }
    // The error path stays distinct: unknown flags report on stderr.
    let out = repro(&["--halp"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
    assert!(out.stdout.is_empty());
}

#[test]
fn help_wins_even_after_other_arguments() {
    let out = repro(&["table1", "--scale", "0.5", "--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("commands:"));
    assert!(!stdout.contains("Table 1"), "help must short-circuit the run");
}

#[test]
fn protocols_suite_renders_all_three_protocols() {
    let out = repro(&["protocols", "--scale", "0.002", "--threads", "2"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Protocol sweep"), "missing table: {stdout}");
    for col in ["MOESI cov", "MESI cov", "MSI cov"] {
        assert!(stdout.contains(col), "missing column {col}: {stdout}");
    }
}

#[test]
fn all_does_not_include_the_protocols_extension() {
    // `jetty-repro all` output is kept byte-comparable across versions;
    // the protocols sweep must only render when requested by name.
    let out = repro(&["all", "--scale", "0.002", "--threads", "2"]);
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("Protocol sweep"));
}

#[test]
fn timings_flag_reports_on_stderr_and_leaves_stdout_untouched() {
    let without = repro(&["table2", "--scale", "0.002", "--threads", "1"]);
    let with = repro(&["table2", "--scale", "0.002", "--threads", "1", "--timings"]);
    assert!(without.status.success() && with.status.success());
    // stdout is byte-identical: --timings must never break the golden
    // output contract.
    assert_eq!(with.stdout, without.stdout, "--timings changed stdout");
    let stderr = String::from_utf8_lossy(&with.stderr);
    assert!(stderr.contains("[timing] suite"), "missing timing lines: {stderr}");
    assert!(stderr.contains("cpus=4"), "timing line lacks suite description: {stderr}");
    assert!(stderr.contains("across 10 jobs"), "timing line lacks job count: {stderr}");
    // Each suite line splits its wall-clock into trace generation and
    // simulation time.
    assert!(stderr.contains("(gen "), "timing line lacks generation split: {stderr}");
    assert!(stderr.contains(", sim "), "timing line lacks simulation split: {stderr}");
    // Without the flag, no timing lines appear.
    assert!(!String::from_utf8_lossy(&without.stderr).contains("[timing]"));
}

#[test]
fn help_documents_timings_flag() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("--timings"));
}

/// Every subcommand the binary must accept, in usage order — the single
/// list the usage/error-agreement test checks against, so help output,
/// error output and the parser can never drift apart again (the historical
/// failure mode: a subcommand wired into the parser but missing from the
/// advertised list, or vice versa).
const EXPECTED_COMMANDS: &[&str] = &[
    "all",
    "table1",
    "fig2",
    "table2",
    "table3",
    "table4",
    "fig4a",
    "fig4b",
    "fig5a",
    "fig5b",
    "fig6",
    "smp8",
    "nsb",
    "calibrate",
    "ablation",
    "protocols",
    "sweep",
    "runs",
    "diff",
];

#[test]
fn usage_and_error_list_every_accepted_subcommand() {
    // The `commands:` line of the usage text.
    let help = repro(&["--help"]);
    assert!(help.status.success());
    let stdout = String::from_utf8_lossy(&help.stdout);
    let usage_line =
        stdout.lines().find(|l| l.starts_with("commands:")).expect("usage has a commands: line");
    let usage_list: Vec<&str> =
        usage_line.trim_start_matches("commands:").split_whitespace().collect();
    assert_eq!(usage_list, EXPECTED_COMMANDS, "usage text must list every accepted subcommand");

    // The unknown-command error repeats the same list.
    let err = repro(&["definitely-not-a-command"]);
    assert!(!err.status.success());
    let stderr = String::from_utf8_lossy(&err.stderr);
    let (_, rest) =
        stderr.split_once("(commands: ").expect("unknown-command error lists the commands");
    let error_list: Vec<&str> = rest.trim_end().trim_end_matches(')').split_whitespace().collect();
    assert_eq!(error_list, EXPECTED_COMMANDS, "error text must list every accepted subcommand");

    // And every advertised command really parses: `--help` short-circuits
    // after command validation, so this probes acceptance without
    // simulating anything.
    for cmd in EXPECTED_COMMANDS {
        let out = repro(&[cmd, "--help"]);
        assert!(out.status.success(), "advertised command {cmd} must be accepted");
    }
}

#[test]
fn format_flag_is_validated_and_documented() {
    let out = repro(&["table1", "--format", "yaml"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown format"), "{stderr}");
    assert!(stderr.contains("text json csv"), "error must list the formats: {stderr}");

    let help = repro(&["--help"]);
    let stdout = String::from_utf8_lossy(&help.stdout);
    assert!(stdout.contains("--format"), "help must document --format");
    assert!(stdout.contains("text json csv"), "help must list the formats");
}

#[test]
fn axis_flag_requires_the_sweep_command() {
    let out = repro(&["table1", "--axis", "cpus=4,8"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sweep"), "error must point at the sweep command: {stderr}");
    assert!(out.stdout.is_empty(), "no tables before the error");
}

#[test]
fn axis_flag_validates_names_and_values() {
    for (args, needle) in [
        (vec!["sweep", "--axis", "bank=4"], "unknown sweep axis"),
        (vec!["sweep", "--axis", "cpus"], "NAME=V1,V2"),
        (vec!["sweep", "--axis", "cpus=1"], "at least 2"),
        (vec!["sweep", "--axis", "cpus=3"], "supports 4 to 64 CPUs"),
        (vec!["sweep", "--axis", "cpus=4,65"], "supports 4 to 64 CPUs"),
        (vec!["sweep", "--axis", "protocol=mosi"], "unknown protocol"),
        (vec!["sweep", "--axis", "filter=what"], "unknown filter id"),
        (vec!["sweep", "--axis", "scale=0"], "positive"),
        (vec!["sweep", "--axis", "scale=nan"], "at most 100"),
        (vec!["sweep", "--axis", "scale=inf"], "at most 100"),
        (vec!["sweep", "--axis", "scale=0.02,1e308"], "at most 100"),
        (vec!["sweep", "--axis", "cpus=4,4"], "duplicate"),
    ] {
        let out = repro(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn sweep_runs_a_two_axis_grid_with_observable_cache_reuse() {
    let out = repro(&["sweep", "--scale", "0.002", "--threads", "2", "--timings"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== Sweep: coverage and energy across cpus x protocol"), "{stdout}");
    assert!(stdout.contains("== Sweep marginals:"), "{stdout}");
    // Default grid: protocol (3) x cpus (2) = 6 points over 6 suites.
    assert!(stdout.contains("(6 points over 6 suites"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Every point renders from the prefetched suite cache: 6 hits against
    // 6 executions.
    assert!(stderr.contains("[sweep] grid"), "{stderr}");
    assert!(stderr.contains("6 hits / 12 requests (hit rate 50.0%)"), "{stderr}");
    // --timings attributes wall-clock to exactly the 6 executed suites.
    assert_eq!(stderr.matches("[timing] suite").count(), 6, "{stderr}");
}

#[test]
fn sweep_axes_reshape_the_grid() {
    let out = repro(&[
        "sweep",
        "--scale",
        "0.002",
        "--threads",
        "2",
        "--axis",
        "protocol=moesi",
        "--axis",
        "cpus=4",
        "--axis",
        "filter=hj-ij10x4x7-ej32x4,ej-32x4,none",
        "--axis",
        "nsb=sb,nsb",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // filter (3) x nsb (2) = 6 points, but the filter axis is free: only
    // the two L2 variants simulate.
    assert!(stdout.contains("filter x nsb"), "{stdout}");
    assert!(stdout.contains("(6 points over 2 suites"), "{stdout}");
    for id in ["hj-ij10x4x7-ej32x4", "ej-32x4", "none"] {
        assert!(stdout.contains(id), "missing filter id {id}: {stdout}");
    }
}

#[test]
fn sweep_is_not_part_of_all() {
    let out = repro(&["all", "--scale", "0.002", "--threads", "2"]);
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("== Sweep"));
}

#[test]
fn store_commands_validate_their_arguments() {
    for (args, needle) in [
        // `diff` needs exactly two run refs.
        (vec!["diff"], "diff needs two run refs"),
        (vec!["diff", "1"], "diff needs two run refs"),
        // A bad run ref names the accepted shapes.
        (vec!["diff", "one", "two", "--store", "/tmp/x.store"], "bad run ref"),
        // Refs without an embedded path need --store.
        (vec!["diff", "1", "2"], "pass --store PATH"),
        // `runs` always needs a store.
        (vec!["runs"], "runs needs --store PATH"),
        // Store commands are exclusive with simulation commands.
        (vec!["runs", "table1", "--store", "/tmp/x.store"], "cannot be combined"),
        (vec!["diff", "1", "2", "all", "--store", "/tmp/x.store"], "cannot be combined"),
        // --timing-band and --store argument validation.
        (vec!["table1", "--timing-band", "10"], "--timing-band only applies to diff"),
        (vec!["diff", "1", "2", "--store", "/tmp/x.store", "--timing-band", "-3"], "non-negative"),
        (
            vec!["diff", "1", "2", "--store", "/tmp/x.store", "--timing-band", "ten"],
            "bad timing band",
        ),
        (vec!["table1", "--store"], "--store needs a file path"),
    ] {
        let out = repro(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no output before the error");
    }
}

#[test]
fn help_documents_the_store_surfaces() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["--store", "--timing-band", "diff RUN_A RUN_B", "PATH:REF"] {
        assert!(stdout.contains(needle), "help must document {needle}: {stdout}");
    }
}

#[test]
fn diff_on_a_missing_store_reports_not_found() {
    let out = repro(&["diff", "1", "2", "--store", "/nonexistent/dir/x.store"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("run 1 not found"), "{stderr}");
}

#[test]
fn static_tables_run_with_explicit_threads() {
    let out = repro(&["table1", "table4", "--threads", "2"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 1"), "table1 missing: {stdout}");
    assert!(stdout.contains("Table 4"), "table4 missing: {stdout}");
}

fn repro_with_env(env: &[(&str, &str)], args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_jetty-repro"));
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.args(args).output().expect("failed to spawn jetty-repro")
}

#[test]
fn garbage_env_overrides_warn_once_and_name_the_fallback() {
    // Each resolve-once env knob must survive garbage: one stderr warning
    // naming the rejected value AND the fallback chosen, clean exit, and
    // stdout identical to the unconfigured run.
    let clean = repro(&["table2", "--scale", "0.002"]);
    assert!(clean.status.success());

    for (var, value, fallback_hint) in [
        ("JETTY_THREADS", "banana", "worker thread(s)"),
        ("JETTY_DEADLINE_MS", "soon", "running without a job deadline"),
        ("JETTY_SHARDS", "many", "replaying snoop work in 1 shard(s)"),
    ] {
        let out = repro_with_env(&[(var, value)], &["table2", "--scale", "0.002"]);
        assert!(out.status.success(), "{var}={value} must not fail the run");
        assert_eq!(out.stdout, clean.stdout, "{var}={value} changed stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let warning: Vec<&str> =
            stderr.lines().filter(|l| l.contains(&format!("invalid {var}"))).collect();
        assert_eq!(warning.len(), 1, "{var}={value}: want exactly one warning, got: {stderr}");
        assert!(warning[0].starts_with("warning: ignoring"), "{var}: {}", warning[0]);
        assert!(warning[0].contains(&format!("{value:?}")), "{var} warning must name the value");
        assert!(warning[0].contains(fallback_hint), "{var} warning must name the fallback");
    }
}

#[test]
fn explicit_flags_suppress_the_env_lookup() {
    // An explicit --threads / --shards / --deadline-ms wins silently: the
    // garbage env value is never even inspected.
    let out = repro_with_env(
        &[("JETTY_THREADS", "banana"), ("JETTY_DEADLINE_MS", "soon"), ("JETTY_SHARDS", "many")],
        &[
            "table2",
            "--scale",
            "0.002",
            "--threads",
            "2",
            "--deadline-ms",
            "60000",
            "--shards",
            "2",
        ],
    );
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("invalid JETTY_THREADS"), "{stderr}");
    assert!(!stderr.contains("invalid JETTY_DEADLINE_MS"), "{stderr}");
    assert!(!stderr.contains("invalid JETTY_SHARDS"), "{stderr}");
}

#[test]
fn shards_flag_is_validated_and_documented() {
    for (args, needle) in [
        (vec!["table2", "--shards", "0"], "--shards must be at least 1"),
        (vec!["table2", "--shards", "many"], "bad shard count"),
        (vec!["table2", "--shards"], "--shards needs a value"),
    ] {
        let out = repro(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no output before the error");
    }
    let help = repro(&["--help"]);
    assert!(help.status.success());
    let stdout = String::from_utf8_lossy(&help.stdout);
    assert!(stdout.contains("--shards"), "help must document --shards");
    assert!(stdout.contains("JETTY_SHARDS"), "help must name the env override");
}

#[test]
fn timings_report_the_shard_count() {
    // The shards= tag reflects the effective count: --threads 1 leaves the
    // whole host to one job, so a 2-shard request survives the
    // oversubscription cap on any multi-core machine (and clamps to 1 on a
    // single-core one — accept either, but the tag must be present).
    let out =
        repro(&["table2", "--scale", "0.002", "--threads", "1", "--shards", "2", "--timings"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("shards=2") || stderr.contains("shards=1"),
        "timing line lacks shards tag: {stderr}"
    );
    // Serial runs report the tag too, pinned at 1 (the explicit flag also
    // shields this from any JETTY_SHARDS in the ambient environment —
    // CI's sharded test leg exports one).
    let serial =
        repro(&["table2", "--scale", "0.002", "--threads", "1", "--shards", "1", "--timings"]);
    assert!(serial.status.success());
    assert!(
        String::from_utf8_lossy(&serial.stderr).contains("shards=1"),
        "serial timing line must say shards=1"
    );
}

#[test]
fn scale_flag_is_validated() {
    // Every bad scale is a usage error (exit 1, message, no output):
    // past the CLI, a NaN trips the trace generator's assert (an abort in
    // release builds) and an infinite or astronomically large scale never
    // finishes generating.
    for (args, needle) in [
        (vec!["table2", "--scale", "0"], "scale must be positive"),
        (vec!["table2", "--scale", "-1"], "scale must be positive"),
        (vec!["table2", "--scale", "nan"], "at most 100"),
        (vec!["table2", "--scale", "inf"], "at most 100"),
        (vec!["table2", "--scale", "1e308"], "at most 100"),
        (vec!["table2", "--scale", "banana"], "bad scale"),
        (vec!["table2", "--scale"], "--scale needs a value"),
    ] {
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no output before the error");
    }
}

#[test]
fn cpus_flag_is_validated() {
    // Every unsupported CPU count is a usage error (exit 1, message, no
    // output): past the CLI, the trace generator asserts on counts its
    // producer/consumer and migratory patterns cannot serve (an abort in
    // release builds).
    for (args, needle) in [
        (vec!["table2", "--cpus", "0"], "--cpus must be at least 2"),
        (vec!["table2", "--cpus", "3"], "supports 4 to 64 CPUs; got 3"),
        (vec!["table2", "--cpus", "65"], "supports 4 to 64 CPUs; got 65"),
        (vec!["table2", "--cpus", "100"], "supports 4 to 64 CPUs; got 100"),
        (vec!["table2", "--cpus", "9999"], "supports 4 to 64 CPUs; got 9999"),
        (vec!["table2", "--cpus", "four"], "bad cpu count"),
        (vec!["table2", "--cpus"], "--cpus needs a value"),
    ] {
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no output before the error");
    }
}

#[test]
fn deadline_flag_is_validated() {
    for (args, needle) in [
        (vec!["table2", "--deadline-ms", "0"], "--deadline-ms must be at least 1"),
        (vec!["table2", "--deadline-ms", "soon"], "bad deadline"),
        (vec!["table2", "--deadline-ms"], "--deadline-ms needs a value"),
    ] {
        let out = repro(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no output before the error");
    }
}

#[test]
fn strict_flag_requires_the_runs_command() {
    let out = repro(&["table1", "--strict"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--strict only applies to runs"));
}

#[test]
fn help_documents_the_failure_surfaces() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["--deadline-ms", "JETTY_DEADLINE_MS", "--strict", "exit codes:"] {
        assert!(stdout.contains(needle), "help must document {needle}: {stdout}");
    }
}

#[test]
fn strict_runs_fails_on_a_damaged_tail() {
    let dir = std::env::temp_dir().join(format!("jetty-strict-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("runs.store");
    let store_arg = store.to_str().unwrap();

    let write = repro(&["table1", "--store", store_arg]);
    assert!(write.status.success(), "stderr: {}", String::from_utf8_lossy(&write.stderr));

    // Crash debris: a truncated frame after the intact record.
    let mut bytes = std::fs::read(&store).unwrap();
    bytes.extend_from_slice(b"JREC 000000ff");
    std::fs::write(&store, &bytes).unwrap();

    // Default: warn on stderr, list the intact prefix, exit 0.
    let lenient = repro(&["runs", "--store", store_arg]);
    assert!(lenient.status.success(), "damage alone must not fail a lenient listing");
    assert!(String::from_utf8_lossy(&lenient.stderr).contains("damaged tail"));
    assert!(String::from_utf8_lossy(&lenient.stdout).contains("table1"));

    // --strict: same listing, nonzero exit.
    let strict = repro(&["runs", "--strict", "--store", store_arg]);
    assert_eq!(strict.status.code(), Some(1), "--strict must fail on tail damage");
    assert_eq!(strict.stdout, lenient.stdout, "--strict must not change the listing");

    // An intact store passes --strict.
    std::fs::write(&store, &bytes[..bytes.len() - 13]).unwrap();
    let intact = repro(&["runs", "--strict", "--store", store_arg]);
    assert!(intact.status.success(), "intact store must pass --strict");
    std::fs::remove_dir_all(&dir).ok();
}
