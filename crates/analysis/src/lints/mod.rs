//! The lint catalog. Each lint is a token-stream pass implementing
//! [`crate::Lint`]; see DESIGN.md § "Static analysis" for the contracts
//! they enforce and how to add a new one.

pub mod lock_discipline;
pub mod telemetry_names;
