//! # palc-scene — mobile objects, tags, and environments
//!
//! The paper's transmitter is the *environment itself*: mobile objects
//! “wear” strips of reflective materials and the receiver decodes the
//! disturbance they cause in the ambient reflected light. This crate
//! models everything that moves or sits on the ground plane:
//!
//! * [`tag`] — the physical ‘packet’: an ordered run of material strips
//!   compiled from a [`palc_phy::Packet`] at a symbol width, plus the
//!   dirt distortion of Sec. 3 and the LCD-shutter dynamic tag the paper
//!   suggests as future work (Sec. 6, item 1).
//! * [`trajectory`] — motion profiles: constant speed, the mid-packet
//!   speed change of Fig. 8, ramps, and jittered human hand motion.
//! * [`car`] — per-segment optical profiles of the two evaluation cars
//!   (Volvo V40 and BMW 3) whose metal/glass contrast yields the
//!   signatures of Figs. 13–14, with a roof mount for tags.
//! * [`object`] — a mobile object = surface × trajectory × lane, sampled
//!   by the channel simulator in world coordinates.
//! * [`environment`] — ground material, fog (Beer–Lambert), and the
//!   ambient source; the paper's dark room, lit office, and parking lot
//!   as presets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod car;
pub mod environment;
pub mod object;
pub mod tag;
pub mod trajectory;

pub use car::CarModel;
pub use environment::{Environment, Fog};
pub use object::{MobileObject, PieceCursor, ProfilePiece, SurfaceProfile, SurfaceSample};
pub use tag::{LcdShutterTag, Tag};
pub use trajectory::Trajectory;
