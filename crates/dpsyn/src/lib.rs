//! Facade crate for the dpsyn workspace.
//!
//! This crate re-exports every layer of the datapath-synthesis stack so that the
//! repository-level integration tests (`tests/`) and examples (`examples/`) have a
//! single dependency root, and so that downstream users can depend on one crate:
//!
//! ```
//! use dpsyn::core::{Objective, Synthesizer};
//! use dpsyn::ir::{parse_expr, InputSpec};
//!
//! let expr = parse_expr("a + b").expect("parse");
//! let spec = dpsyn::ir::InputSpec::builder()
//!     .var("a", 4)
//!     .var("b", 4)
//!     .build()
//!     .expect("spec");
//! let design = Synthesizer::new(&expr, &spec)
//!     .objective(Objective::Timing)
//!     .output_width(5)
//!     .run()
//!     .expect("synthesis");
//! assert!(design.netlist().cell_count() > 0);
//! ```
//!
//! The layering (each crate only depends on crates above it):
//!
//! | Layer | Crate | Role |
//! |---|---|---|
//! | IR | [`ir`] | expressions, polynomials, addend matrices |
//! | Structure | [`netlist`] | gate-level netlist graph + Verilog emission |
//! | Technology | [`tech`] | cell delay/energy libraries |
//! | Validation | [`sim`] | logic simulation + equivalence checking |
//! | Generators | [`modules`] | word-level adder/multiplier builders |
//! | Analysis | [`power`], [`timing`] | probability & static timing analysis |
//! | Engine | [`core`] | the FA-tree allocation synthesizer |
//! | Evaluation | [`designs`], [`baselines`], [`bench`](mod@bench) | workloads, rival flows, tables |
//! | Exploration | [`explore`] | multi-threaded design-space sweeps + Pareto reduction |

pub use dpsyn_baselines as baselines;
pub use dpsyn_bench as bench;
pub use dpsyn_core as core;
pub use dpsyn_designs as designs;
pub use dpsyn_explore as explore;
pub use dpsyn_ir as ir;
pub use dpsyn_modules as modules;
pub use dpsyn_netlist as netlist;
pub use dpsyn_power as power;
pub use dpsyn_sim as sim;
pub use dpsyn_tech as tech;
pub use dpsyn_timing as timing;
