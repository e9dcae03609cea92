//! The lint catalog. Each lint is a token-stream pass implementing
//! [`crate::Lint`]; see DESIGN.md § "Static analysis" for the contracts
//! they enforce and how to add a new one. Workspace-aware lints
//! (`lock_discipline`, `wire_protocol`, the interprocedural half of
//! `alloc_bounds`) additionally walk the [`crate::graph::SymbolGraph`]
//! built by the index pass.

pub mod alloc_bounds;
pub mod lock_discipline;
pub mod telemetry_names;
pub mod wire_protocol;
