//! Telemetry name inventory for the archive crate.

use fxrz_telemetry::Name;

/// By-name index lookups (binary search over the sorted name index).
pub const INDEX_LOOKUPS: Name = Name::new("archive.index.lookups");
