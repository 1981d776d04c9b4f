//! One module per paper artifact (`fig*`, `table*`, `prop12`), plus the
//! wire-policy sweep (`wire`) and the control-plane scale run (`scale`).

pub mod common;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod prop12;
pub mod scale;
pub mod table2;
pub mod table3;
pub mod wire;

use crate::ExptOpts;

/// All experiment ids, in the paper's order.
pub const ALL: &[&str] = &[
    "fig1", "fig2", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table3a",
    "table3b", "prop12", "wire", "scale",
];

/// Dispatches an experiment by id.
///
/// # Errors
/// Returns an error for unknown ids.
pub fn run(id: &str, opts: &ExptOpts) -> Result<(), String> {
    match id {
        "fig1" => fig1::run(opts),
        "fig2" => fig2::run(opts),
        "table2" => table2::run(opts),
        "fig5" => fig5::run(opts),
        "fig6" => fig6::run(opts),
        "fig7" => fig7::run(opts),
        "fig8" => fig8::run(opts),
        "fig9" => fig9::run(opts),
        "fig10" => fig10::run(opts),
        "fig11" => fig11::run(opts),
        "table3a" => table3::run_3a(opts),
        "table3b" => table3::run_3b(opts),
        "prop12" => prop12::run(opts),
        "wire" => wire::run(opts),
        "scale" => scale::run(opts),
        "all" => {
            for id in ALL {
                println!("\n================ {id} ================");
                run(id, opts)?;
            }
            Ok(())
        }
        other => Err(format!(
            "unknown experiment '{other}' (expected one of {ALL:?} or 'all')"
        )),
    }
}
