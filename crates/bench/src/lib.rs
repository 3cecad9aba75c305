//! # fingrav-bench — the paper's evaluation, regenerated
//!
//! One experiment function per table/figure of the FinGraV paper
//! (ISPASS 2025), shared by the `src/bin` regeneration binaries. Every
//! experiment is deterministic given its built-in seed and returns plain
//! data that the binaries render to stdout + CSV.
//!
//! | Artifact | Function | Paper content |
//! |---|---|---|
//! | Table I  | [`experiments::table1`]  | profiling guidance + empirical LOI yields |
//! | Fig. 3   | [`experiments::fig3`]    | challenge demonstrations C1–C4 |
//! | Fig. 5   | [`experiments::fig5`]    | sync benefit, binning benefit, #runs resiliency |
//! | Fig. 6   | [`experiments::fig6`]    | CB-8K-GEMM total+XCD power vs run time |
//! | Fig. 7   | [`experiments::fig7`]    | component analysis, CB GEMMs vs MB GEMVs |
//! | Fig. 8   | [`experiments::fig8`]    | CB-2K-GEMM total+XCD power vs run time |
//! | Fig. 9   | [`experiments::fig9`]    | interleaved-kernel power contamination |
//! | Fig. 10  | [`experiments::fig10`]   | collectives vs CB-8K-GEMM, per component |
//! | Table II | [`experiments::table2`]  | takeaway/recommendation verification |

// No unsafe anywhere in this crate; `fgrv-lint`'s unsafe-audit keeps it so.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod harness;
pub mod render;

pub use harness::{RunContext, Scale};
