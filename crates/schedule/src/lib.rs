//! Schedule configuration spaces for DNN kernel auto-tuning.
//!
//! This crate rebuilds AutoTVM's per-node *design space* layer: for every
//! tuning task it defines the deployment-configuration space the paper
//! searches (Definition 1), provides an index↔configuration codec, feature
//! vectors for the evaluation function and for TED's kernel matrix, radius
//! `R` neighborhoods for BAO's adaptive search scope, and a lowering pass
//! that turns a configuration into a concrete GPU kernel launch
//! ([`kernel::KernelSpec`]) with its resource footprint.
//!
//! The templates mirror TVM v0.6's CUDA schedules: the direct conv2d
//! template splits each output axis four ways (block / virtual-thread /
//! thread / inner) and each reduction axis two ways, plus two unrolling
//! knobs — which is exactly why the first VGG-16 node has ≈0.2 billion
//! points, the figure the paper quotes.
//!
//! # Example
//!
//! ```
//! use dnn_graph::{models, task::extract_tasks};
//! use schedule::template::space_for_task;
//!
//! let task = extract_tasks(&models::vgg16(1)).remove(0);
//! let space = space_for_task(&task);
//! assert!(space.len() > 200_000_000); // "approximately 0.2 billion"
//! ```

pub mod error;
pub mod factorization;
pub mod feature;
pub mod index;
pub mod kernel;
pub mod knob;
pub mod neighborhood;
pub mod space;
pub mod template;

pub use error::ScheduleError;
pub use index::{IndexMap, IndexSet};
pub use kernel::KernelSpec;
pub use knob::{Knob, KnobValue};
pub use space::{Config, ConfigSpace};
pub use template::space_for_task;
