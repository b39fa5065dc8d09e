//! # prognosis-synth
//!
//! Synthesis of *extended Mealy machines* — Mealy machines enriched with
//! integer registers, numerical input fields and numerical output fields —
//! from concrete traces, the paper's Oracle Table entries (§4.3 of the paper).
//!
//! The paper phrases the problem as constraint solving over a finite term
//! grammar (each unknown update/output term ranges over roughly eight
//! candidate terms such as `r`, `r+1`, `pr`, `pi+1`, an input field, or a
//! constant) and discharges the constraints to Z3.  Because the per-unknown
//! domains are small and the constraints are purely conjunctive implications
//! over concrete trace values, an enumerative finite-domain solver with
//! propagation and backtracking ([`solver`]) is complete for the same
//! problem, so no external SMT solver is required.
//!
//! The crate is organised as:
//!
//! * [`term`] — the term grammar and its evaluation semantics;
//! * [`machine`] — extended Mealy machines and their concrete simulation;
//! * [`trace`] — concrete traces (abstract symbols plus numeric fields), the
//!   synthesis counterpart of the Oracle Table entries;
//! * [`solver`] — the finite-domain constraint solver;
//! * [`synthesis`] — the outer synthesis loop: sketch the machine from a
//!   learned Mealy skeleton, solve, validate, and report per-unknown
//!   candidate sets (used by the Issue-4 "constant 0" analysis).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod machine;
pub mod solver;
pub mod synthesis;
pub mod term;
pub mod trace;

pub use machine::{ExtendedMealyMachine, ExtendedTransition};
pub use solver::{SolverConfig, SolverError};
pub use synthesis::{SynthesisOutcome, SynthesisReport, Synthesizer};
pub use term::{Term, TermDomain};
pub use trace::{ConcreteStep, ConcreteTrace};
