//! # translator — model-layer ↔ runtime-layer translation
//!
//! The final component of the adaptation framework is *a translator that
//! interprets the actions of the repair scripts at the model layer as
//! operations on the actual system at the runtime layer* (§3.3, Figure 1 item
//! 5). This crate provides:
//!
//! * [`runtime_ops`] — the Table 1 environment-manager operators and queries
//!   (`createReqQueue`, `findServer`, `moveClient`, `connectServer`,
//!   `activateServer`, `deactivateServer`, `remos_get_flow`) plus the gauge
//!   churn a reconfiguration entails,
//! * [`mapping`] — translation of committed model change-sets into runtime
//!   operation sequences,
//! * [`cost`] — the repair execution cost model reproducing the paper's
//!   ~30 s repair time, with gauge-caching and Remos-pre-query ablations.

#![warn(missing_docs)]

pub mod cost;
pub mod mapping;
pub mod runtime_ops;

pub use cost::RepairCostModel;
pub use mapping::translate;
pub use runtime_ops::{
    EnvironmentManager, GaugeRef, RecordingEnvironmentManager, RuntimeOp, TranslationError,
};
