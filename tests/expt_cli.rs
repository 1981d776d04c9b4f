//! The `expt` command line, run as a process: every case here exits
//! before any experiment starts.

use std::process::{Command, Output};

fn expt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_expt"))
        .args(args)
        .output()
        .expect("expt starts")
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
    for (args, offender) in cases {
        let out = expt(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let error = stderr.lines().next().unwrap_or_default();
        assert!(
            error.starts_with("error: ") && error.contains(offender),
            "{args:?}: {stderr}"
        );
    }
}
