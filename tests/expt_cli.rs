//! The `expt`, `gluefl-client` and `gluefl-server` command lines, run as
//! processes: every case here exits before any experiment starts, any
//! socket connects or any listener binds.

use std::process::{Command, Output};

fn run(binary: &str, args: &[&str]) -> Output {
    let out = Command::new(binary).args(args).output();
    out.unwrap_or_else(|e| panic!("{binary} starts: {e}"))
}

fn expt(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_expt"), args)
}

/// Each command line of `binary` exits 2 and names its offender in its
/// `error:` line.
fn assert_refused(binary: &str, cases: &[(&[&str], &str)]) {
    for (args, offender) in cases {
        let out = run(binary, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let error = stderr.lines().next().unwrap_or_default();
        assert!(
            error.starts_with("error: ") && error.contains(offender),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn help_prints_the_usage_and_succeeds() {
    for args in [&["--help"][..], &["-h"], &["table2", "--help"]] {
        let out = expt(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: expt "), "{args:?}: {stdout}");
    }
    let out = expt(&["prop12", "--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[--seed N]"), "{stdout}");
    assert!(!stdout.contains("--rounds"), "{stdout}");
}

/// Each command line exits 2 and names `offender` in its `error:` line.
#[test]
fn bad_command_lines_exit_2_naming_the_argument() {
    let cases: &[(&[&str], &str)] = &[
        (&[], "no experiment"),
        (&["tabel2"], "'tabel2'"),
        // A flag the experiment never reads is refused like an unknown one.
        (&["prop12", "--rounds", "3"], "'--rounds'"),
        (&["scale", "--quick", "--rounds", "5"], "'--rounds'"),
        (&["wire", "--wire", "entropy-f16"], "'--wire'"),
        (&["fig9", "--paper-scale"], "'--paper-scale'"),
        (&["table2", "--scale", "0.1"], "'--scale'"),
        (&["table2", "--quick", "5"], "'5'"),
        (
            &["table2", "--seed", "1", "--seed", "2"],
            "--seed given more than once",
        ),
        (&["table2", "--out", "--quick"], "--out needs a value"),
        (&["table2", "--rounds", "0"], "--rounds must be positive"),
        (&["table2", "--rounds", "many"], "'many' for --rounds"),
        (&["table2", "--wire", "f32"], "--wire 'f32'"),
    ];
    assert_refused(env!("CARGO_BIN_EXE_expt"), cases);
}

/// The client refuses a command line it cannot run before it connects:
/// a connection attempt to port 1 would fail with exit 1 instead.
#[test]
fn client_refuses_a_missing_flag_or_an_id_outside_the_population() {
    let cases: &[(&[&str], &str)] = &[
        (&[], "--addr"),
        (&["--addr", "127.0.0.1:1"], "--id"),
        (
            &["--addr", "127.0.0.1:1", "--id", "9", "--clients", "8"],
            "population of 8",
        ),
    ];
    assert_refused(env!("CARGO_BIN_EXE_gluefl-client"), cases);
}

/// The server refuses a timeout longer than a day before it binds: a
/// deadline past what an `Instant` can hold would panic in round 0.
#[test]
fn server_refuses_a_timeout_longer_than_a_day() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["--offer-timeout-secs", "18446744073709551615"],
            "--offer-timeout-secs",
        ),
        (&["--upload-timeout-secs", "86401"], "--upload-timeout-secs"),
    ];
    assert_refused(env!("CARGO_BIN_EXE_gluefl-server"), cases);
}
