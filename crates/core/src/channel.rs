//! The end-to-end passive channel simulator.
//!
//! This is the replacement for the paper's physical testbed (see
//! DESIGN.md §2). The receiver looks straight down from its
//! [`ReceiverPose`] (the channel's own pose sits over the origin at
//! `receiver_z_m`; array layers pass offset poses); at every ADC tick the
//! simulator integrates the reflected light over the receiver's ground
//! footprint:
//!
//! ```text
//! E_rx(t) = stray(t) + Σ_patches  K(φ) · T_fog · ρ_eff · E(patch, t)
//!                       · A · cos²φ / (π d²)
//! ```
//!
//! where `K` is the FoV angular kernel, `ρ_eff` the material's effective
//! reflectance towards the receiver (diffuse + mirror-geometry specular
//! lobe), and `stray` the unmodulated ambient pedestal entering the
//! aperture directly. The result feeds the [`palc_frontend::Frontend`]
//! chain (noise → detector → amp → ADC) to produce the RSS [`Trace`].
//!
//! ## Where spatial resolution comes from
//!
//! Three regimes, all emerging from the same integral, explain the paper's
//! seemingly contradictory FoV observations:
//!
//! * **Indoor bench (Figs. 5–6):** the LED lamp is *narrow-beam* and rides
//!   with the receiver, so only a small ground spot is lit — the lamp, not
//!   the wide photodiode, sets the resolution (like a barcode scanner's
//!   illumination spot). Raising lamp+receiver grows the spot linearly,
//!   giving the linear decodable boundary of Fig. 6(a).
//! * **Ceiling lights (Fig. 7):** ground illuminance is near-uniform, but
//!   the fixture is a *discrete* overhead source: the aluminium strips
//!   return a specular lobe only where the mirror geometry lines up with
//!   the receiver, which re-localises the kernel (noisier than the bench,
//!   exactly as the figure shows).
//! * **Overcast outdoors (Sec. 5):** skylight is fully diffuse — no
//!   mirror geometry at all — so the *receiver's* FoV is the only focusing
//!   element. The wide-FoV PD therefore fails until capped (Fig. 16) while
//!   the narrow-FoV RX-LED decodes (Fig. 17).
//!
//! ## Pipeline stages
//!
//! The simulator is a staged, streaming pipeline. The static part of the
//! footprint integral is hoisted out of the per-tick loop, the frontend is
//! a stateful per-sample processor, and whole sweeps fan out across cores:
//!
//! ```text
//!  scene (tags, cars, trajectories)      optics (sources, materials, FoV)
//!        │ surface_at(x, y, t)                │ illuminance / envelope
//!        ▼                                    ▼
//!  ┌───────────────────────────────────────────────────────────────────┐
//!  │ channel — four-tier integrator                                    │
//!  │          (full → staged → incremental → kernel)                   │
//!  │   StaticField: background footprint integral (ground + stray      │
//!  │   pedestal), integrated ONCE per scene, valid whenever the source │
//!  │   factorises as profile(p) × envelope(t)                          │
//!  │   staged tick: static_total × envelope(t)                         │
//!  │           + Σ over patches covered by objects (x_extent_at /      │
//!  │             lane_band bounds) of (object patch − background patch)│
//!  │   DeltaField tick: cached per-column deltas; re-integrates ONLY   │
//!  │           the patches a surface breakpoint swept since the last   │
//!  │           tick — O(boundary), with exact staged/full fallbacks    │
//!  │   FootprintKernel tick: per-(height, material)-bin prefix rows    │
//!  │           over the columns, precomputed at build; a tick is one   │
//!  │           subtraction per surface piece — no acos/powf/exp/sqrt,  │
//!  │           no surface scans, no column loop                        │
//!  └───────────────────────────────┬───────────────────────────────────┘
//!                                  │ E_rx(t), one sample at a time
//!                                  ▼
//!  frontend::FrontendState — noise RNG → detector → low-pass → amp → ADC
//!                                  │
//!                                  ▼
//!  ChannelSampler: Iterator<Item = f64> — bounded-memory traces, online
//!                                  │       decoding
//!                                  ▼
//!  stream::StreamingDecoder / StreamingTwoPhase — push-based decode,
//!                                  │  packets emitted mid-pass
//!                                  │  (or: collect into Trace → batch decoders,
//!                                  │   which drain the same state machines)
//!                                  ▼
//!  fusion::FusionStream — online multi-receiver voting
//!                   │ sweep::SweepRunner / Scenario::run_batch /
//!                   │ Scenario::run_streaming fan seeds and scenario
//!                   │ grids across cores; Scenario::run_array_streaming
//!                   │ shards one scene across ReceiverPose arrays
//! ```
//!
//! See `docs/ARCHITECTURE.md` for the repository-wide walk of this
//! pipeline.
//!
//! The unstaged reference path ([`PassiveChannel::illuminance_at`],
//! [`PassiveChannel::run_illuminance`]) re-integrates the full footprint
//! every tick; golden-equivalence tests pin the staged sampler to it.

use crate::impair::ImpairmentStack;
use crate::sweep::SweepRunner;
use crate::trace::Trace;
use palc_frontend::{Frontend, FrontendState, OpticalReceiver, PdGain};
use palc_optics::source::{CeilingPanel, PointLamp, Sun};
use palc_optics::Material;
use palc_optics::{LightSource, Vec3};
use palc_phy::Packet;
use palc_scene::{CarModel, Environment, MobileObject, Tag, Trajectory};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A receiver's position in the scene: lateral offset from the world
/// origin plus aperture height. Every geometry query of the channel —
/// footprint grid placement, patch contributions, the specular mirror
/// test, stray-light pedestal — is relative to a pose; a pose at the
/// origin reproduces the historical origin-pinned receiver bit for bit.
///
/// Multi-receiver deployments give each receiver its own pose and shard
/// one shared scene across them (see `Scenario::run_array_streaming` in
/// [`crate::sweep`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceiverPose {
    /// Along-track offset of the receiver's nadir, metres.
    pub x_m: f64,
    /// Cross-track offset of the receiver's nadir, metres.
    pub y_m: f64,
    /// Aperture height above the ground plane, metres.
    pub z_m: f64,
}

impl ReceiverPose {
    /// A pose at an explicit position.
    pub const fn new(x_m: f64, y_m: f64, z_m: f64) -> Self {
        ReceiverPose { x_m, y_m, z_m }
    }

    /// The historical receiver position: straight down from `z_m` over
    /// the world origin.
    pub const fn origin(z_m: f64) -> Self {
        ReceiverPose::new(0.0, 0.0, z_m)
    }

    /// The aperture position as a vector.
    pub fn vec3(&self) -> Vec3 {
        Vec3::new(self.x_m, self.y_m, self.z_m)
    }
}

/// Spatial integration settings.
#[derive(Debug, Clone, Copy)]
pub struct Resolution {
    /// Along-track patch size, metres.
    pub along_m: f64,
    /// Number of cross-track slices across the footprint (odd).
    pub lateral_slices: usize,
}

impl Default for Resolution {
    fn default() -> Self {
        Resolution { along_m: 0.01, lateral_slices: 5 }
    }
}

/// The footprint integration grid: one definition of the patch lattice
/// both the full per-tick integral and [`StaticField`] walk. Keeping it
/// in one place guarantees the staged path's patch indices can never
/// desynchronise from the reference path's grid.
#[derive(Debug, Clone, Copy)]
struct FootprintGrid {
    r_max: f64,
    dx: f64,
    dy: f64,
    steps: usize,
    slices: usize,
}

impl FootprintGrid {
    /// Patch-centre x of column `ix`.
    #[inline]
    fn x(&self, ix: usize) -> f64 {
        -self.r_max + (ix as f64 + 0.5) * self.dx
    }

    /// Patch-centre y of slice `iy`.
    #[inline]
    fn y(&self, iy: usize) -> f64 {
        -self.r_max + (iy as f64 + 0.5) * self.dy
    }
}

/// One object's footprint coverage at a given instant: its patch-index
/// interval plus the exact world-coordinate bounds the centre-inclusion
/// test uses.
#[derive(Debug, Clone, Copy)]
struct ObjectSpan {
    lo: usize,
    hi: usize,
    x_lo: f64,
    x_hi: f64,
    y_lo: f64,
    y_hi: f64,
}

impl ObjectSpan {
    const EMPTY: ObjectSpan =
        ObjectSpan { lo: 0, hi: 0, x_lo: 0.0, x_hi: 0.0, y_lo: 0.0, y_hi: 0.0 };
}

/// Per-slice object membership, CSR-flattened: slice `iy`'s members are
/// `members[offsets[iy]..offsets[iy + 1]]`, each an index into the
/// channel's object list whose lane band covers that slice's y. Built
/// once per tick by [`PassiveChannel::slice_members`]; replaces the old
/// 64-bit lane mask (and its silent per-patch fallback past the 64th
/// object) with a structure that holds at any object count.
#[derive(Debug, Clone)]
struct SliceMembers {
    offsets: Vec<u32>,
    members: Vec<u32>,
}

impl SliceMembers {
    /// The object indices whose lane band covers slice `iy`.
    #[inline]
    fn of(&self, iy: usize) -> &[u32] {
        &self.members[self.offsets[iy] as usize..self.offsets[iy + 1] as usize]
    }
}

/// A complete passive-communication scene.
pub struct PassiveChannel {
    /// Static surroundings (ground material, fog, stray-light fraction).
    pub environment: Environment,
    /// The ambient light source.
    pub source: Box<dyn LightSource + Send + Sync>,
    /// Mobile objects carrying reflective surfaces.
    pub objects: Vec<MobileObject>,
    /// Receiver aperture height above the ground plane, metres.
    pub receiver_z_m: f64,
    /// The receiver chain (detector + amp + ADC).
    pub frontend: Frontend,
    /// Integration resolution.
    pub resolution: Resolution,
}

impl PassiveChannel {
    /// The receiver pose of this channel's own (single-receiver) setup:
    /// straight down from [`PassiveChannel::receiver_z_m`] over the world
    /// origin. Array layers pass explicit offset poses to the `_at_pose`
    /// geometry entry points instead.
    pub fn pose(&self) -> ReceiverPose {
        ReceiverPose::origin(self.receiver_z_m)
    }

    /// The footprint grid for an explicit receiver pose/resolution. The
    /// grid's patch lattice is receiver-local (centred on the pose's
    /// nadir); world coordinates are `pose.{x,y}_m + grid coordinate`.
    fn grid_for(&self, pose: ReceiverPose) -> FootprintGrid {
        let h = pose.z_m;
        let fov = self.frontend.receiver.fov();
        let r_max = fov.footprint_radius(h).max(self.resolution.along_m);
        let dx = self.resolution.along_m;
        let slices = self.resolution.lateral_slices.max(1) | 1; // force odd
        let dy = 2.0 * r_max / slices as f64;
        let steps = (2.0 * r_max / dx).ceil() as usize;
        FootprintGrid { r_max, dx, dy, steps, slices }
    }

    /// Noise-free illuminance (lux) at the receiver aperture at time `t`.
    pub fn illuminance_at(&self, t: f64) -> f64 {
        self.illuminance_at_pose(self.pose(), t)
    }

    /// Noise-free illuminance (lux) at time `t` for a receiver at an
    /// explicit [`ReceiverPose`], via the full per-tick footprint
    /// integral. The footprint is centred on the pose's nadir; surface
    /// and source queries use world coordinates.
    pub fn illuminance_at_pose(&self, pose: ReceiverPose, t: f64) -> f64 {
        let fov = self.frontend.receiver.fov();
        let rx_pos = pose.vec3();

        // Unmodulated pedestal: skylight / room scatter leaking into the
        // aperture. Scales with the acceptance solid angle — a narrow
        // receiver pointed at the ground geometrically cannot collect
        // much sky.
        let omega_frac = fov.effective_solid_angle() / (2.0 * std::f64::consts::PI);
        let mut total = self.environment.stray_fraction
            * omega_frac
            * self.source.illuminance_at(rx_pos, t).max(0.0);

        // Footprint bounds on the ground plane.
        let g = self.grid_for(pose);
        let env = self.source.flicker_envelope(t);
        // Lane coverage per slice, hoisted out of the per-patch surface
        // scan: each object's band test runs once per tick per slice,
        // not once per patch, and off-lane objects are never touched.
        let members = self.slice_members(&g, pose);
        for ix in 0..g.steps {
            let x = pose.x_m + g.x(ix);
            for iy in 0..g.slices {
                let y = pose.y_m + g.y(iy);
                total += self.patch_contribution(x, y, g.dx, g.dy, t, rx_pos, env, members.of(iy));
            }
        }
        total
    }

    /// Which objects' lane bands cover each cross-track slice of grid
    /// `g`: slice `iy`'s member list holds exactly the object indices
    /// passing the `(y - lane_y).abs() <= lateral/2` test at slice `iy`'s
    /// y — the exact test [`PassiveChannel::surface_at`] used to run per
    /// *patch*. Lane bands are time-invariant, so one computation per
    /// tick serves every patch of that tick, and — unlike the 64-bit
    /// lane mask this replaces, which silently fell back to the
    /// per-patch test beyond its 64th object — the member lists hold for
    /// any object count: a thousand-car scene pays per patch only for
    /// the objects whose band actually covers the patch's slice.
    fn slice_members(&self, g: &FootprintGrid, pose: ReceiverPose) -> SliceMembers {
        let mut offsets = Vec::with_capacity(g.slices + 1);
        let mut members = Vec::new();
        offsets.push(0u32);
        for iy in 0..g.slices {
            let y = pose.y_m + g.y(iy);
            for (i, obj) in self.objects.iter().enumerate() {
                if (y - obj.lane_y_m()).abs() <= obj.lateral_m() / 2.0 {
                    members.push(i as u32);
                }
            }
            offsets.push(members.len() as u32);
        }
        SliceMembers { offsets, members }
    }

    /// Contribution of the ground/object patch at `(x, y)` (size dx×dy).
    /// `env` is the source's flicker envelope at `t` and `members` the
    /// slice's precomputed object-coverage list
    /// ([`PassiveChannel::slice_members`]) — both hoisted out of the
    /// per-patch loop by the callers; this is the hot path.
    #[allow(clippy::too_many_arguments)]
    fn patch_contribution(
        &self,
        x: f64,
        y: f64,
        dx: f64,
        dy: f64,
        t: f64,
        rx_pos: Vec3,
        env: Option<f64>,
        members: &[u32],
    ) -> f64 {
        // Fast reject: a patch that receives (almost) no light contributes
        // nothing regardless of its material. Under a narrow bench lamp
        // this skips the vast majority of the wide-FoV footprint. For
        // envelope-separable sources the gate is applied to the
        // *unit-envelope* probe `probe(t) / env(t)` — a time-invariant
        // quantity — so the accept/reject decision for a given patch never
        // flips across ticks and stays bit-consistent with the decision
        // [`PassiveChannel::static_field`] froze at `t = 0`.
        let probe = self.source.illuminance_at(Vec3::new(x, y, 0.0), t).max(0.0);
        let gate = match env {
            Some(e) if e > 1e-12 => probe / e,
            _ => probe,
        };
        if gate < 1e-7 {
            return 0.0;
        }
        let (material, surf_z) = self.surface_at(x, y, t, members);
        self.patch_from_surface(x, y, dx, dy, t, rx_pos, material, surf_z)
    }

    /// Top-most surface at `(x, y)` at time `t`: objects occlude the
    /// ground and lower objects. `members` carries the slice's
    /// precomputed lane-band decisions
    /// ([`PassiveChannel::slice_members`]): only objects whose band
    /// covers the patch's slice are scanned, however many objects the
    /// scene holds.
    fn surface_at(&self, x: f64, y: f64, t: f64, members: &[u32]) -> (Material, f64) {
        let mut material = self.environment.ground;
        let mut surf_z = 0.0;
        for &i in members {
            let obj = &self.objects[i as usize];
            debug_assert!(
                (y - obj.lane_y_m()).abs() <= obj.lateral_m() / 2.0,
                "slice member {i} fails its own lane-band test at y={y}"
            );
            if let Some(s) = obj.sample_at(x, t) {
                if s.height_m >= surf_z {
                    material = s.material;
                    surf_z = s.height_m;
                }
            }
        }
        (material, surf_z)
    }

    /// Contribution of a patch given an already-resolved surface.
    #[allow(clippy::too_many_arguments)]
    fn patch_from_surface(
        &self,
        x: f64,
        y: f64,
        dx: f64,
        dy: f64,
        t: f64,
        rx_pos: Vec3,
        material: Material,
        surf_z: f64,
    ) -> f64 {
        let dz = rx_pos.z - surf_z;
        if dz <= 1e-6 {
            return 0.0; // surface at or above the receiver
        }
        let patch = Vec3::new(x, y, surf_z);
        let to_rx = rx_pos - patch;
        let d = to_rx.norm();
        let cos_in = dz / d; // angle off the receiver's -z axis == off patch normal
        let weight = self.frontend.receiver.fov().weight_from_cos(cos_in);
        if weight <= 0.0 {
            return 0.0;
        }

        let e_patch = self.source.illuminance_at(patch, t).max(0.0);
        if e_patch <= 0.0 {
            return 0.0;
        }

        // Effective reflectance: diffuse always; specular through the
        // mirror-geometry Phong lobe when the source has a direction.
        let rho = match self.source.direction_from(patch) {
            Some(to_source) => {
                let incoming = -to_source;
                let mirror = incoming.reflect_about(Vec3::UNIT_Z).unwrap_or(Vec3::UNIT_Z);
                let cos_mirror = mirror.cos_angle(to_rx);
                material.reflectance_towards(cos_mirror)
            }
            // Diffuse sky: a specular surface reflects the (uniform) sky
            // toward the receiver, behaving like a diffuse reflector of the
            // same total albedo.
            None => material.total_reflectance(),
        };

        let transmission = self.environment.path_transmission(d);
        // Lambertian secondary source: L = ρE/π; received
        // E = L·A·cosθ_out·cosθ_in/d².
        rho * e_patch / std::f64::consts::PI * (dx * dy) * cos_in * cos_in / (d * d)
            * weight
            * transmission
    }

    /// Precomputes the static part of the footprint integral, or `None`
    /// when the source does not factorise into `profile(p) × envelope(t)`
    /// (see [`palc_optics::LightSource::flicker_envelope`]).
    ///
    /// The returned [`StaticField`] holds the stray-light pedestal and the
    /// background (objects removed) contribution of every footprint patch,
    /// normalised to unit envelope. It is valid until the environment,
    /// source, receiver geometry, or resolution of this channel changes —
    /// object *motion* never invalidates it; that is the whole point.
    pub fn static_field(&self) -> Option<StaticField> {
        self.static_field_at(self.pose())
    }

    /// [`PassiveChannel::static_field`] for a receiver at an explicit
    /// [`ReceiverPose`]: the footprint grid is centred on the pose's
    /// nadir and the background integral probed at world coordinates, so
    /// each receiver of an array owns its own field over the shared
    /// scene. The pose travels with the returned field — every staged or
    /// incremental consumer reads it back from there.
    pub fn static_field_at(&self, pose: ReceiverPose) -> Option<StaticField> {
        let env0 = self.source.flicker_envelope(0.0)?;
        if !env0.is_finite() || env0 <= 1e-12 {
            return None; // degenerate envelope; keep the full path
        }
        let h = pose.z_m;
        let fov = self.frontend.receiver.fov();
        let rx_pos = pose.vec3();
        let omega_frac = fov.effective_solid_angle() / (2.0 * std::f64::consts::PI);
        let pedestal_base = self.environment.stray_fraction
            * omega_frac
            * self.source.illuminance_at(rx_pos, 0.0).max(0.0)
            / env0;

        // The same grid the full integral walks, in the same order.
        let g = self.grid_for(pose);
        let mut bg = Vec::with_capacity(g.steps * g.slices);
        let mut dark = Vec::with_capacity(g.steps * g.slices);
        let mut bg_total = 0.0;
        for ix in 0..g.steps {
            let gx = g.x(ix);
            let x = pose.x_m + gx;
            for iy in 0..g.slices {
                let gy = g.y(iy);
                let y = pose.y_m + gy;
                let probe = self.source.illuminance_at(Vec3::new(x, y, 0.0), 0.0).max(0.0);
                // A patch is *dark* on material-independent grounds alone:
                // no ground-level light, or outside the FoV cone even at
                // ground level (elevating a surface only moves it further
                // off-axis, so an object there is outside the cone too).
                // The ground material's reflectance must NOT factor in:
                // bg can be 0 over a zero-diffuse ground while an object
                // passing over the same patch still contributes. The light
                // gate uses the unit-envelope probe `probe(0) / env0` —
                // the same time-invariant quantity `patch_contribution`
                // gates on at every tick — so staged and full paths can
                // never disagree about which patches are dark.
                // Receiver-local offsets: the cone test is relative to
                // the receiver's own -z axis, wherever the pose sits.
                let d = (gx * gx + gy * gy + h * h).sqrt();
                let in_cone = d > 0.0 && fov.weight_from_cos(h / d) > 0.0;
                let unlit = probe / env0 < 1e-7;
                let is_dark = unlit || !in_cone;
                let contribution = if unlit {
                    0.0
                } else {
                    self.patch_from_surface(
                        x,
                        y,
                        g.dx,
                        g.dy,
                        0.0,
                        rx_pos,
                        self.environment.ground,
                        0.0,
                    ) / env0
                };
                bg.push(contribution);
                dark.push(is_dark);
                bg_total += contribution;
            }
        }
        Some(StaticField { bg, dark, static_total: pedestal_base + bg_total, grid: g, pose })
    }

    /// Builds the incremental (third-tier) integrator over `field`, or
    /// `None` when any object's surface is not piecewise-static in its
    /// own frame (an LCD shutter tag switches materials over time), in
    /// which case consumers stay on the staged tier.
    ///
    /// `field` must come from [`PassiveChannel::static_field`] on this
    /// same channel configuration; the [`DeltaField`] is then valid for
    /// exactly as long as the field itself.
    pub fn delta_field(&self, field: Arc<StaticField>) -> Option<DeltaField> {
        let steps = field.grid.steps;
        let mut objects = Vec::with_capacity(self.objects.len());
        for obj in &self.objects {
            let breakpoints = obj.profile_breakpoints()?;
            let (y_lo, y_hi) = obj.lane_band();
            objects.push(ObjectDeltaState {
                breakpoints,
                length: obj.length_m(),
                stationary: obj.is_stationary(),
                y_lo,
                y_hi,
                last_lead: None,
                lo: 0,
                hi: 0,
                col_delta: vec![0.0; steps],
            });
        }
        Some(DeltaField { field, objects, spans: Vec::new(), pending: Vec::new() })
    }

    /// Builds the table-driven (fourth-tier) integrator over `field`, or
    /// `None` when the scene cannot be represented by time-invariant
    /// geometry tables: a non-separable or degenerate envelope (no
    /// static field exists then anyway), or any *reachable* object
    /// without a piecewise-static surface profile (an LCD shutter tag
    /// switches materials over time —
    /// [`palc_scene::MobileObject::surface_profile`] returns `None` and
    /// those scenes stay on the staged/incremental tiers; an LCD tag the
    /// build-time index proves can never touch this pose's footprint is
    /// harmless and does not disable the kernel).
    ///
    /// Build cost is one footprint sweep per distinct **interned**
    /// `(lane, lateral, material, height)` geometry bin — identical
    /// objects in the same lane share tables through a hash-cons pool,
    /// so a parking row of 250 identical cars costs the same sweeps as
    /// one car ([`FootprintKernel::stats`]). Per-tick evaluation then
    /// performs no transcendental math, no surface scans, and — through
    /// the build-time spatial index and the entry/exit event queue —
    /// work proportional to the objects whose footprint actually
    /// intersects the receiver *now*, not to the scene's object count.
    ///
    /// `field` must come from [`PassiveChannel::static_field`] /
    /// [`PassiveChannel::static_field_at`] on this same channel
    /// configuration; the kernel is valid for exactly as long as the
    /// field itself *and* the object list it was built from.
    pub fn footprint_kernel(&self, field: Arc<StaticField>) -> Option<FootprintKernel> {
        self.kernel_tables(field).map(|tables| FootprintKernel::new(Arc::new(tables)))
    }

    /// The immutable half of [`PassiveChannel::footprint_kernel`]: every
    /// table the build produces, ready to be shared by any number of
    /// samplers at the field's pose.
    fn kernel_tables(&self, field: Arc<StaticField>) -> Option<KernelTables> {
        // Same envelope policy the per-tick paths apply: a source whose
        // t=0 envelope the tiers would refuse cannot seed the tables.
        let env0 = envelope_or_fallback(self, 0.0).ok()?;
        let g = field.grid;
        let pose = field.pose;
        let rx_pos = pose.vec3();
        // Build-time reach margin: `column_range` widens an interval by
        // one column per side, and the mover entry/exit solver brackets
        // its crossing by bisection; 2·dx absorbs both, so "outside the
        // margin" proves the covered-column interval is empty.
        let margin = 2.0 * g.dx;
        let mut stats = KernelStats::default();
        let mut prefix: Vec<f64> = Vec::new();
        let mut intern: BTreeMap<[u64; 6], usize> = BTreeMap::new();
        let mut objects = Vec::with_capacity(self.objects.len());
        for obj in &self.objects {
            let (y_lo, y_hi) = obj.lane_band();
            let lane_y = obj.lane_y_m();
            let half_lat = obj.lateral_m() / 2.0;

            // --- Spatial index, build-time half: cull objects that can
            // never contribute at this pose. Lane test: if no slice
            // centre passes the surface-scan band test, every tier
            // resolves every patch past this object. Reach test: if the
            // object's whole-trajectory x-extent misses the footprint
            // window (plus margin), its covered-column interval is empty
            // at every t. Both are conservative, so culling changes no
            // tier's value — only how much work a tick performs.
            let in_lane = (0..g.slices).any(|iy| (pose.y_m + g.y(iy) - lane_y).abs() <= half_lat);
            let (reach_lo, reach_hi) = obj.reachable_x_extent();
            let in_reach =
                reach_hi - pose.x_m >= -g.r_max - margin && reach_lo - pose.x_m <= g.r_max + margin;
            if !in_lane || !in_reach {
                stats.objects_culled += 1;
                objects.push(ObjectKernel {
                    profile: None,
                    length: obj.length_m(),
                    stationary: obj.is_stationary(),
                    y_lo,
                    y_hi,
                    piece_bin: Vec::new(),
                    bin_row: Vec::new(),
                    parked_under: Vec::new(),
                    culled: true,
                });
                continue;
            }
            let profile = obj.surface_profile()?;

            // Deduplicate the pieces into distinct (material, height)
            // bins: alternating HIGH/LOW strips share two bins however
            // many strips the tag has.
            let mut bins: Vec<palc_scene::SurfaceSample> = Vec::new();
            let piece_bin: Vec<usize> = profile
                .pieces()
                .iter()
                .map(|p| {
                    bins.iter().position(|b| *b == p.surface).unwrap_or_else(|| {
                        bins.push(p.surface);
                        bins.len() - 1
                    })
                })
                .collect();

            // One interned pool row per bin: the exact unit-envelope
            // object-minus-background delta of the whole column, had
            // this bin's surface covered it — the same arithmetic
            // `column_delta` performs per tick, done once per *distinct*
            // geometry. The row depends only on the object's lane band
            // and the bin's numeric surface (position enters per tick
            // through the leading edge), so the hash-cons key is exactly
            // those six floats, bit-for-bit: identical objects in the
            // same lane share one row however many of them the scene
            // holds. A slice is included only when BOTH lane tests the
            // per-tick paths apply agree (`lane_band` in the covered
            // test, `(y - lane_y).abs() <= lateral/2` in the surface
            // scan); where they straddle a boundary ulp apart, the
            // per-tick tiers resolve the patch to the ground and its
            // delta is zero, which is exactly what skipping it here
            // encodes.
            let mut bin_row = Vec::with_capacity(bins.len());
            for surf in &bins {
                let key = [
                    lane_y.to_bits(),
                    half_lat.to_bits(),
                    surf.material.diffuse.to_bits(),
                    surf.material.specular.to_bits(),
                    surf.material.gloss.to_bits(),
                    surf.height_m.to_bits(),
                ];
                if let Some(&row) = intern.get(&key) {
                    stats.tables_interned += 1;
                    bin_row.push(row);
                    continue;
                }
                let row = prefix.len() / (g.steps + 1);
                // Stored as a prefix row: entry `k` sums columns `0..k`,
                // so any run of columns costs one subtraction per tick.
                let mut running = 0.0;
                prefix.push(running);
                for ix in 0..g.steps {
                    let x = pose.x_m + g.x(ix);
                    let mut acc = 0.0;
                    for iy in 0..g.slices {
                        let idx = ix * g.slices + iy;
                        if field.dark[idx] {
                            continue;
                        }
                        let y = pose.y_m + g.y(iy);
                        if y < y_lo || y > y_hi || (y - lane_y).abs() > half_lat {
                            continue;
                        }
                        acc += self.patch_from_surface(
                            x,
                            y,
                            g.dx,
                            g.dy,
                            0.0,
                            rx_pos,
                            surf.material,
                            surf.height_m,
                        ) / env0
                            - field.bg[idx];
                    }
                    running += acc;
                    prefix.push(running);
                }
                stats.tables_built += 1;
                intern.insert(key, row);
                bin_row.push(row);
            }
            objects.push(ObjectKernel {
                profile: Some(profile),
                length: obj.length_m(),
                stationary: obj.is_stationary(),
                y_lo,
                y_hi,
                piece_bin,
                bin_row,
                parked_under: Vec::new(),
                culled: false,
            });
        }
        stats.table_bytes = prefix.len() * std::mem::size_of::<f64>();

        // --- Event-driven freezing: split the survivors into a parked
        // aggregate (one scalar, summed once at build) and a mover event
        // queue (entry/exit times into the margin-widened footprint
        // window), so a tick touches only the movers currently inside.
        let mut parked_sum = 0.0;
        let mut parked_cols: Vec<(u32, usize, usize)> = Vec::new();
        let mut events: Vec<(f64, u32, bool)> = Vec::new();
        let w_enter = pose.x_m - g.r_max - margin;
        let w_exit = pose.x_m + g.r_max + margin;
        for (oi, ok) in objects.iter().enumerate() {
            if ok.culled {
                continue;
            }
            let obj = &self.objects[oi];
            if ok.stationary {
                stats.objects_parked += 1;
                // A parked object's leading edge, spans and table sum
                // never change: fold it into one build-time scalar —
                // the same arithmetic the per-tick loop would perform,
                // performed zero times per tick.
                let lead = obj.leading_edge_at(0.0);
                let (lo, hi) = column_range(&g, lead - ok.length - pose.x_m, lead - pose.x_m);
                if lo < hi {
                    parked_sum += ok.run_sum(&prefix, &g, pose, lead, lo, hi);
                    parked_cols.push((oi as u32, lo, hi));
                }
            } else {
                stats.objects_movers += 1;
                if matches!(obj.trajectory(), Trajectory::Shuttle { .. }) {
                    // Non-monotone displacement: the object may re-enter
                    // at any time, so it is simply always active.
                    events.push((0.0, oi as u32, true));
                    continue;
                }
                // Monotone trajectories: active on [t_enter, t_exit)
                // where the leading edge first crosses the window's near
                // side and the trailing edge last crosses its far side.
                let lead0 = obj.leading_edge_at(0.0);
                if w_exit + ok.length - lead0 <= 0.0 {
                    continue; // starts past the far edge, never returns
                }
                let t_enter = if lead0 >= w_enter {
                    Some(0.0)
                } else {
                    obj.trajectory().time_to_travel_checked(w_enter - lead0)
                };
                let Some(te) = t_enter else {
                    continue; // never reaches the window
                };
                events.push((te, oi as u32, true));
                if let Some(tx) =
                    obj.trajectory().time_to_travel_checked(w_exit + ok.length - lead0)
                {
                    events.push((tx, oi as u32, false));
                }
            }
        }
        events.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

        // Two parked objects overlapping in both columns and lane band
        // would need per-patch max-height occlusion forever: detect it
        // once here and route *every* tick to the staged tier, exactly
        // as the per-tick pairwise test used to.
        let mut parked_overlap = false;
        'pp: for i in 0..parked_cols.len() {
            for j in (i + 1)..parked_cols.len() {
                let (a, alo, ahi) = parked_cols[i];
                let (b, blo, bhi) = parked_cols[j];
                if alo < bhi && blo < ahi {
                    let (oa, ob) = (&objects[a as usize], &objects[b as usize]);
                    if oa.y_lo <= ob.y_hi && ob.y_lo <= oa.y_hi {
                        parked_overlap = true;
                        break 'pp;
                    }
                }
            }
        }
        // Lane bands never change, so which parked objects a mover can
        // collide with is settled here: each mover keeps the merged
        // column intervals of the parked objects sharing its lane band,
        // and a tick asks only whether its own columns meet one of them.
        if !parked_overlap {
            let parked: Vec<(usize, usize, f64, f64)> = parked_cols
                .iter()
                .map(|&(p, lo, hi)| (lo, hi, objects[p as usize].y_lo, objects[p as usize].y_hi))
                .collect();
            for om in objects.iter_mut().filter(|o| !o.culled && !o.stationary) {
                let mut under: Vec<(usize, usize)> = parked
                    .iter()
                    .filter(|&&(_, _, y_lo, y_hi)| om.y_lo <= y_hi && y_lo <= om.y_hi)
                    .map(|&(lo, hi, _, _)| (lo, hi))
                    .collect();
                under.sort_unstable();
                let mut merged: Vec<(usize, usize)> = Vec::with_capacity(under.len());
                for (lo, hi) in under {
                    match merged.last_mut() {
                        Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                        _ => merged.push((lo, hi)),
                    }
                }
                om.parked_under = merged;
            }
        }

        Some(KernelTables { field, objects, prefix, stats, parked_sum, parked_overlap, events })
    }

    /// Noise-free illuminance at time `t`, staged through `field` when one
    /// is available and via the full per-tick integral otherwise — the one
    /// staged/full dispatch every consumer (samplers, calibration probes,
    /// clean runs) routes through.
    pub fn illuminance_with(&self, field: Option<&StaticField>, t: f64) -> f64 {
        match field {
            Some(f) => self.illuminance_staged(f, t),
            None => self.illuminance_at(t),
        }
    }

    /// Noise-free illuminance at time `t` through the static/dynamic
    /// split: the precomputed background scaled by the source's envelope,
    /// plus a re-integration of only the patches currently covered by
    /// mobile objects. Falls back to the full integral when the source's
    /// envelope stops factorising.
    ///
    /// `field` must come from [`PassiveChannel::static_field`] on this
    /// same channel configuration.
    pub fn illuminance_staged(&self, field: &StaticField, t: f64) -> f64 {
        let pose = field.pose;
        let Some(env) = self.source.flicker_envelope(t) else {
            return self.illuminance_at_pose(pose, t);
        };
        let rx_pos = pose.vec3();
        let g = &field.grid;
        let mut total = field.static_total * env;

        // Bounds of every object, clipped to patch-index ranges. The
        // per-object interval is widened by one patch so centre-inclusion
        // tests below stay exact at the edges. Spans live on the stack
        // (spilling to the heap only beyond STACK_SPANS objects) — this
        // runs once per ADC tick, the hot path of the whole simulator.
        const STACK_SPANS: usize = 8;
        let mut stack = [ObjectSpan::EMPTY; STACK_SPANS];
        let mut heap: Vec<ObjectSpan> = Vec::new();
        let mut count = 0usize;
        for obj in &self.objects {
            let (x_lo, x_hi) = obj.x_extent_at(t);
            let (y_lo, y_hi) = obj.lane_band();
            // Column indices are receiver-local: shift the object's world
            // extent into the pose's frame before clipping to the grid.
            let (lo, hi) = column_range(g, x_lo - pose.x_m, x_hi - pose.x_m);
            if lo >= hi {
                continue;
            }
            let span = ObjectSpan { lo, hi, x_lo, x_hi, y_lo, y_hi };
            if count < STACK_SPANS {
                stack[count] = span;
            } else {
                if heap.is_empty() {
                    heap.extend_from_slice(&stack);
                }
                heap.push(span);
            }
            count += 1;
        }
        if count == 0 {
            return total;
        }
        let spans: &mut [ObjectSpan] =
            if count <= STACK_SPANS { &mut stack[..count] } else { &mut heap[..] };
        spans.sort_unstable_by_key(|s| s.lo);

        // Walk merged index intervals so overlapping objects never
        // double-count a patch. Lane membership is hoisted per tick (see
        // `slice_members`), so the surface scan inside
        // `patch_contribution` touches only objects whose band covers the
        // slice.
        let members = self.slice_members(g, pose);
        let mut cursor = 0usize;
        for &ObjectSpan { lo, hi, .. } in spans.iter() {
            let start = lo.max(cursor);
            for ix in start..hi {
                let x = pose.x_m + g.x(ix);
                for iy in 0..g.slices {
                    let idx = ix * g.slices + iy;
                    if field.dark[idx] {
                        // Material-independently dark patch (no ground
                        // light, or outside the FoV cone): the full
                        // integral rejects it for any surface, so the
                        // object delta is zero as well.
                        continue;
                    }
                    let y = pose.y_m + g.y(iy);
                    let covered = spans
                        .iter()
                        .any(|s| x >= s.x_lo && x <= s.x_hi && y >= s.y_lo && y <= s.y_hi);
                    if covered {
                        total += self.patch_contribution(
                            x,
                            y,
                            g.dx,
                            g.dy,
                            t,
                            rx_pos,
                            Some(env),
                            members.of(iy),
                        ) - field.bg[idx] * env;
                    }
                }
            }
            cursor = cursor.max(hi);
        }
        total
    }

    /// Runs the channel for `duration_s`, returning the noise-free
    /// illuminance series at the ADC rate via the full per-tick integral
    /// (the unstaged reference path; useful for tests and analysis).
    pub fn run_illuminance(&self, duration_s: f64) -> Vec<f64> {
        let fs = self.frontend.sample_rate_hz();
        let n = (duration_s * fs).ceil() as usize;
        (0..n).map(|i| self.illuminance_at(i as f64 / fs)).collect()
    }

    /// A streaming sampler over this channel: per-tick staged illuminance
    /// through a stateful frontend, as an `Iterator<Item = f64>` of RSS
    /// codes, at the channel's own pose. Builds the static field and the
    /// tier tables afresh (when the source permits); [`Scenario::sampler`]
    /// reuses its cached ones instead.
    pub fn sampler(&self, duration_s: f64, seed: u64) -> ChannelSampler<'_> {
        self.sampler_at_pose(duration_s, seed, self.pose())
    }

    /// A streaming sampler for a receiver at an explicit
    /// [`ReceiverPose`]: precomputes that pose's own [`StaticField`]
    /// (plus the incremental [`DeltaField`] and the pose-relative
    /// [`FootprintKernel`] geometry tables, when the scene permits) over
    /// the shared scene objects — the per-shard state a receiver-array
    /// worker owns. Nothing is cached: the channel's fields are public,
    /// so no cache here could learn that they changed. [`Scenario`]'s
    /// runs share one build per pose instead.
    pub fn sampler_at_pose(
        &self,
        duration_s: f64,
        seed: u64,
        pose: ReceiverPose,
    ) -> ChannelSampler<'_> {
        let build = PoseBuild::new(self, self.static_field_at(pose).map(Arc::new));
        self.sampler_from(duration_s, seed, pose, &build)
    }

    /// The one sampler constructor: explicit pose, the static field and
    /// kernel tables built for that same pose, fresh per-sampler state.
    fn sampler_from(
        &self,
        duration_s: f64,
        seed: u64,
        pose: ReceiverPose,
        build: &PoseBuild,
    ) -> ChannelSampler<'_> {
        debug_assert!(
            build.field.as_ref().is_none_or(|f| f.pose() == pose),
            "static field built for a different pose"
        );
        // Same frontend configuration (incl. any calibrated gain), fresh
        // noise seed — mirrors what Scenario::run always did.
        let mut fe = Frontend::new(self.frontend.receiver.clone(), self.frontend.adc, seed);
        fe.amplifier = self.frontend.amplifier;
        let state = fe.streamer(self.source.spectrum());
        let fs = self.frontend.sample_rate_hz();
        let field = build.field.clone();
        let delta = field.clone().and_then(|f| self.delta_field(f));
        ChannelSampler {
            channel: self,
            pose,
            field,
            delta,
            kernel: build.kernel(),
            state,
            fs,
            i: 0,
            n: (duration_s * fs).ceil() as usize,
        }
    }

    /// Coarse estimate of the peak aperture illuminance over a run —
    /// the quantity a deployment's gain-calibration pass measures.
    ///
    /// Reuses the static-field precomputation, so each probe costs only
    /// the object-covered patches. On the accuracy side, `probes` evenly
    /// spaced time samples bound the true peak from below: the brightest
    /// instant (a specular strip crossing the mirror geometry) can fall
    /// between probes, and the error shrinks roughly linearly with the
    /// probe spacing relative to one symbol's transit time. The OpenVLC
    /// driver's gain-control step this models is itself a coarse pass —
    /// `probes` in the tens-to-low-hundreds matches it, and since the
    /// result only sets amplifier gain (aiming the peak at 75 % of the
    /// rail), a few percent of underestimate just moves the operating
    /// point slightly, it does not clip.
    pub fn peak_illuminance(&self, duration_s: f64, probes: usize) -> f64 {
        self.peak_illuminance_with_field(self.static_field().as_ref(), duration_s, probes)
    }

    /// Like [`PassiveChannel::peak_illuminance`] with a caller-supplied
    /// static field (`None` runs the full integral per probe) — the one
    /// probe-placement implementation both the public estimator and
    /// [`Scenario::calibrate_gain`] share.
    pub fn peak_illuminance_with_field(
        &self,
        field: Option<&StaticField>,
        duration_s: f64,
        probes: usize,
    ) -> f64 {
        let probes = probes.max(2);
        (0..probes)
            .map(|i| {
                let t = i as f64 * duration_s / (probes - 1) as f64;
                self.illuminance_with(field, t)
            })
            .fold(0.0, f64::max)
    }

    /// Runs the channel for `duration_s` through the full frontend,
    /// returning the RSS trace the paper's algorithms consume.
    pub fn run(&self, duration_s: f64) -> Trace {
        let lux = self.run_illuminance(duration_s);
        let rss = self.frontend.capture_f64(&lux, self.source.spectrum());
        Trace::new(rss, self.frontend.sample_rate_hz())
    }
}

/// The precomputed, time-invariant part of a channel's footprint
/// integral: stray pedestal plus per-patch background contributions
/// (ground material, no objects), normalised to unit source envelope.
///
/// Built by [`PassiveChannel::static_field`]; consumed by
/// [`PassiveChannel::illuminance_staged`] and [`ChannelSampler`]. Mobile
/// objects never invalidate it — only changes to the environment, source,
/// receiver geometry, or resolution do.
#[derive(Debug, Clone)]
pub struct StaticField {
    /// Background contribution of patch `(ix, iy)` at `ix * slices + iy`,
    /// unit envelope.
    bg: Vec<f64>,
    /// Whether the patch is dark on material-independent grounds (no
    /// ground-level light or outside the FoV cone) — the only patches the
    /// dynamic pass may skip, since `bg` can be 0 for reflectance reasons
    /// that do not apply to an object covering the patch.
    dark: Vec<bool>,
    /// Stray pedestal + Σ `bg`, unit envelope.
    static_total: f64,
    /// The patch lattice this field was integrated on (receiver-local,
    /// centred on `pose`'s nadir).
    grid: FootprintGrid,
    /// The receiver pose this field was integrated for. Staged and
    /// incremental consumers read the pose back from here, so a field
    /// can never be walked under a different receiver position than it
    /// was built for.
    pose: ReceiverPose,
}

impl StaticField {
    /// Number of footprint patches the full integral walks per tick (and
    /// this field has hoisted out of the per-tick loop).
    pub fn patch_count(&self) -> usize {
        self.bg.len()
    }

    /// The precomputed static illuminance (pedestal + background) at unit
    /// envelope, lux.
    pub fn static_total(&self) -> f64 {
        self.static_total
    }

    /// The receiver pose this field was integrated for.
    pub fn pose(&self) -> ReceiverPose {
        self.pose
    }
}

/// Per-object state of a [`DeltaField`]: the covered column interval and
/// the cached per-column contribution deltas.
#[derive(Debug, Clone)]
struct ObjectDeltaState {
    /// Local breakpoints of the object's piecewise-static surface,
    /// ascending from 0 to the object length
    /// ([`MobileObject::profile_breakpoints`]).
    breakpoints: Vec<f64>,
    /// Object length along the track, metres (the last breakpoint).
    length: f64,
    /// Never moves ([`MobileObject::is_stationary`]): the displacement
    /// query is skipped once the leading edge is cached.
    stationary: bool,
    /// Lane band `[y_lo, y_hi]`, fixed for the object's lifetime.
    y_lo: f64,
    y_hi: f64,
    /// Leading edge at the last incremental tick (`None` before the
    /// first). Fallback ticks leave it pinned, so resuming re-integrates
    /// exactly the columns swept in between.
    last_lead: Option<f64>,
    /// Cached covered column interval `[lo, hi)`; empty when `lo == hi`.
    lo: usize,
    hi: usize,
    /// Per-column `Σ_slices (object patch − background patch)` at unit
    /// envelope, indexed by grid column; meaningful only in `[lo, hi)`.
    col_delta: Vec<f64>,
}

impl TickObject for ObjectDeltaState {
    fn cached_lead(&self) -> Option<f64> {
        self.last_lead
    }
    fn stationary(&self) -> bool {
        self.stationary
    }
    fn length(&self) -> f64 {
        self.length
    }
    fn band(&self) -> (f64, f64) {
        (self.y_lo, self.y_hi)
    }
}

/// The incremental (third) tier of the footprint integrator: a stateful
/// delta-field that re-integrates only the patches whose resolved surface
/// *changed* since the previous tick, instead of every object-covered
/// patch the staged tier walks.
///
/// ## Why caching is sound
///
/// For an envelope-separable source the contribution of a patch with a
/// fixed resolved surface factorises as `G(x, y, material, height) ×
/// envelope(t)`: the probe gate uses the time-invariant unit-envelope
/// probe, the patch illuminance is `profile(p) × envelope(t)`, and every
/// remaining factor (FoV weight, mirror geometry, path transmission) is
/// pure geometry. So `contribution(t) / envelope(t)` is a constant as
/// long as the same surface covers the patch. An object's surface is
/// piecewise static in its *own* frame ([`MobileObject::profile_breakpoints`]);
/// as the object translates, the resolved surface at a fixed world patch
/// changes only when a breakpoint sweeps across the patch centre. Objects
/// move a fraction of a patch per ADC tick, so per tick only a handful of
/// boundary patches need re-integration — O(boundary), not O(covered
/// area) — and a parked object (`speed_mps: 0`) stops paying the dynamic
/// path entirely after its first tick.
///
/// ## Exact fallbacks
///
/// Every tick that cannot be served incrementally routes to the exact
/// lower tier, and the cache stays pinned at the last incremental tick so
/// resuming re-integrates precisely the columns swept in the gap:
///
/// * envelope break (`flicker_envelope` → `None`) → full per-tick
///   integral, exactly like [`PassiveChannel::illuminance_staged`];
/// * degenerate envelope (≤ 1e-12) → staged integral;
/// * two objects overlapping in both column range and lane band
///   (occlusion / double-count hazard) → staged integral until they
///   separate;
/// * a scene with any non-piecewise-static surface (an LCD shutter tag)
///   never builds a `DeltaField` at all
///   ([`PassiveChannel::delta_field`] returns `None`).
///
/// Trajectory discontinuities and direction reversals need no fallback:
/// the swept-column computation covers `[min(lead), max(lead)]` per
/// breakpoint, so a jump or reversal just re-integrates a wider band that
/// one tick.
///
/// Built by [`PassiveChannel::delta_field`]; owned by [`ChannelSampler`]
/// (every sampler- and streaming-based run rides it by default).
/// Equivalence with the staged and full tiers to ≤ 1e-9 is pinned by
/// golden tests here and property tests in `tests/properties.rs`.
#[derive(Debug, Clone)]
pub struct DeltaField {
    field: Arc<StaticField>,
    objects: Vec<ObjectDeltaState>,
    /// Scratch: per-tick `(lead, lo, hi)` of every object.
    spans: Vec<(f64, usize, usize)>,
    /// Scratch: columns scheduled for re-integration.
    pending: Vec<usize>,
}

/// The staged walk's widened column interval for world extent
/// `[x_lo, x_hi]` — one definition shared with
/// [`PassiveChannel::illuminance_staged`] so the two tiers can never
/// disagree about which columns an object may touch.
fn column_range(g: &FootprintGrid, x_lo: f64, x_hi: f64) -> (usize, usize) {
    let lo = (((x_lo + g.r_max) / g.dx - 1.0).floor()).max(0.0) as usize;
    let hi_f = ((x_hi + g.r_max) / g.dx + 1.0).ceil();
    if hi_f <= 0.0 {
        return (0, 0);
    }
    let hi = (hi_f as usize).min(g.steps);
    if lo >= hi {
        (0, 0)
    } else {
        (lo, hi)
    }
}

/// The exact lower tier that must serve a tick whose envelope the
/// stateful tiers' unit-envelope state cannot rescale — see
/// [`envelope_or_fallback`].
enum EnvelopeFallback {
    /// Envelope break (`flicker_envelope` → `None`): full per-tick
    /// integral.
    Full,
    /// Degenerate envelope (non-finite or ≤ 1e-12): staged integral.
    Staged,
}

/// The per-tick envelope decision the stateful tiers ([`DeltaField`] and
/// [`FootprintKernel`]) share: `Ok(env)` when the tick can be served from
/// unit-envelope caches/tables, `Err` naming the exact lower tier
/// otherwise. One definition so the tiers can never diverge on the
/// fallback policy.
fn envelope_or_fallback(channel: &PassiveChannel, t: f64) -> Result<f64, EnvelopeFallback> {
    match channel.source.flicker_envelope(t) {
        None => Err(EnvelopeFallback::Full),
        Some(env) if !env.is_finite() || env <= 1e-12 => Err(EnvelopeFallback::Staged),
        Some(env) => Ok(env),
    }
}

/// The per-object tick state both stateful tiers carry — enough for
/// [`resolve_spans`] to compute covered column intervals and the
/// overlap-fallback decision from one definition.
trait TickObject {
    /// The lead cached by a previous tick, when one exists.
    fn cached_lead(&self) -> Option<f64>;
    /// Never moves ([`MobileObject::is_stationary`]): the cached lead is
    /// reused without even a displacement query.
    fn stationary(&self) -> bool;
    /// Object length along the track, metres.
    fn length(&self) -> f64;
    /// Lane band `[y_lo, y_hi]`, fixed for the object's lifetime.
    fn band(&self) -> (f64, f64);
}

/// The span preamble the [`DeltaField`] and [`FootprintKernel`] tiers
/// share: resolves each object's leading edge (stationary objects reuse
/// their cached lead) and covered column interval into `spans`, then
/// reports whether any two objects overlap in both column range and lane
/// band — the occlusion case (max height wins) that neither per-column
/// caches nor per-object tables can express. `true` means the caller
/// must serve the tick from the exact staged walk (which merges spans)
/// until the objects separate.
fn resolve_spans<O: TickObject>(
    g: &FootprintGrid,
    pose: ReceiverPose,
    states: &[O],
    objects: &[MobileObject],
    t: f64,
    spans: &mut Vec<(f64, usize, usize)>,
) -> bool {
    spans.clear();
    for (st, obj) in states.iter().zip(objects) {
        let lead = match st.cached_lead() {
            Some(l) if st.stationary() => l,
            _ => obj.leading_edge_at(t),
        };
        // Column indices are receiver-local: world extents shift into
        // the pose's frame before clipping to the grid.
        let (lo, hi) = column_range(g, lead - st.length() - pose.x_m, lead - pose.x_m);
        spans.push((lead, lo, hi));
    }
    for i in 0..spans.len() {
        for j in (i + 1)..spans.len() {
            let (_, lo_i, hi_i) = spans[i];
            let (_, lo_j, hi_j) = spans[j];
            let (y_lo_i, y_hi_i) = states[i].band();
            let (y_lo_j, y_hi_j) = states[j].band();
            if lo_i < hi_j && lo_j < hi_i && y_lo_i <= y_hi_j && y_lo_j <= y_hi_i {
                return true;
            }
        }
    }
    false
}

/// One column's object-minus-background delta at unit envelope: the
/// quantity [`DeltaField`] caches. Mirrors the staged walk's per-patch
/// arithmetic (same centre-inclusion test, same dark-patch skip, same
/// hoisted lane membership) divided by the envelope.
#[allow(clippy::too_many_arguments)]
fn column_delta(
    channel: &PassiveChannel,
    field: &StaticField,
    st: &ObjectDeltaState,
    ix: usize,
    lead: f64,
    t: f64,
    env: f64,
    members: &SliceMembers,
) -> f64 {
    let g = &field.grid;
    let pose = field.pose;
    let x = pose.x_m + g.x(ix);
    if x < lead - st.length || x > lead {
        return 0.0; // inside the widened interval but not yet covered
    }
    let rx_pos = pose.vec3();
    let mut acc = 0.0;
    for iy in 0..g.slices {
        let idx = ix * g.slices + iy;
        if field.dark[idx] {
            continue;
        }
        let y = pose.y_m + g.y(iy);
        if y < st.y_lo || y > st.y_hi {
            continue;
        }
        acc += channel.patch_contribution(x, y, g.dx, g.dy, t, rx_pos, Some(env), members.of(iy))
            / env
            - field.bg[idx];
    }
    acc
}

impl DeltaField {
    /// Noise-free illuminance at time `t`, incrementally: the static
    /// total plus the cached per-column deltas, re-integrating only the
    /// columns that entered coverage or were swept by a surface
    /// breakpoint since the last call. Falls back to the exact staged or
    /// full tier per tick as described on [`DeltaField`].
    ///
    /// `channel` must be the channel this field was built from (same
    /// objects, same grid).
    pub fn illuminance(&mut self, channel: &PassiveChannel, t: f64) -> f64 {
        debug_assert_eq!(
            self.objects.len(),
            channel.objects.len(),
            "delta field built for a different scene"
        );
        let env = match envelope_or_fallback(channel, t) {
            Ok(env) => env,
            Err(EnvelopeFallback::Full) => return channel.illuminance_at_pose(self.field.pose, t),
            Err(EnvelopeFallback::Staged) => return channel.illuminance_staged(&self.field, t),
        };
        let g = self.field.grid;
        let pose = self.field.pose;

        let mut spans = std::mem::take(&mut self.spans);
        if resolve_spans(&g, pose, &self.objects, &channel.objects, t, &mut spans) {
            // Overlap fallback: caches stay pinned at the last
            // incremental tick and resume exactly.
            self.spans = spans;
            return channel.illuminance_staged(&self.field, t);
        }

        let mut pending = std::mem::take(&mut self.pending);
        // Hoisted lane coverage for the swept-column re-integrations
        // (identical decisions to the staged walk's member lists),
        // computed only on ticks that actually re-integrate a column — a
        // frozen tick stays allocation-free.
        let mut members: Option<SliceMembers> = None;
        let mut dynamic = 0.0;
        for (k, st) in self.objects.iter_mut().enumerate() {
            let (lead, new_lo, new_hi) = spans[k];
            pending.clear();
            match st.last_lead {
                // Frozen world: every cached column is still valid.
                Some(prev) if prev == lead => {}
                Some(prev) => {
                    // Columns a breakpoint swept since the last
                    // incremental tick, either direction of travel,
                    // widened by one patch against edge rounding.
                    let (a, b) = if prev <= lead { (prev, lead) } else { (lead, prev) };
                    for &c in &st.breakpoints {
                        // Swept world band, shifted receiver-local before
                        // the column-index mapping.
                        let x0 = a - c - g.dx - pose.x_m;
                        let x1 = b - c + g.dx - pose.x_m;
                        let i0 = (((x0 + g.r_max) / g.dx - 0.5).floor()).max(0.0) as usize;
                        let i1 =
                            ((((x1 + g.r_max) / g.dx + 0.5).ceil()).max(0.0) as usize).min(g.steps);
                        for ix in i0.max(new_lo)..i1.min(new_hi) {
                            pending.push(ix);
                        }
                    }
                    // Columns entering the covered interval.
                    for ix in new_lo..new_hi {
                        if ix < st.lo || ix >= st.hi {
                            pending.push(ix);
                        }
                    }
                }
                None => pending.extend(new_lo..new_hi),
            }
            // Columns leaving the interval stop contributing.
            for ix in st.lo..st.hi {
                if ix < new_lo || ix >= new_hi {
                    st.col_delta[ix] = 0.0;
                }
            }
            pending.sort_unstable();
            pending.dedup();
            for &ix in &pending {
                let members = members.get_or_insert_with(|| channel.slice_members(&g, pose));
                st.col_delta[ix] =
                    column_delta(channel, &self.field, st, ix, lead, t, env, members);
            }
            st.last_lead = Some(lead);
            st.lo = new_lo;
            st.hi = new_hi;
            // The running dynamic total is re-summed from the caches each
            // tick (a few hundred additions) rather than maintained by
            // add/subtract, so rounding error cannot accumulate over a
            // long run.
            for ix in st.lo..st.hi {
                dynamic += st.col_delta[ix];
            }
        }
        self.spans = spans;
        self.pending = pending;
        (self.field.static_total + dynamic) * env
    }

    /// The static field this integrator layers its deltas on.
    pub fn static_field(&self) -> &StaticField {
        &self.field
    }
}

/// Per-object state of a [`FootprintKernel`]: the object's exact surface
/// decomposition plus its bin → interned-prefix-row mapping.
#[derive(Debug, Clone)]
struct ObjectKernel {
    /// Exact piecewise-static decomposition of the surface
    /// ([`palc_scene::MobileObject::surface_profile`]); the per-tick
    /// piece resolver is transcendental-free. `None` iff `culled` — the
    /// build-time index proved the object can never touch this pose's
    /// footprint, so no decomposition (and no table) is needed.
    profile: Option<palc_scene::SurfaceProfile>,
    /// Object length along the track, metres.
    length: f64,
    /// Never moves ([`palc_scene::MobileObject::is_stationary`]): folded
    /// into the kernel's build-time parked aggregate.
    stationary: bool,
    /// Lane band `[y_lo, y_hi]`, fixed for the object's lifetime.
    y_lo: f64,
    y_hi: f64,
    /// Piece index → geometry-bin index: pieces sharing a `(material,
    /// height)` pair share one bin.
    piece_bin: Vec<usize>,
    /// Geometry-bin index → row of the kernel's interned prefix pool.
    /// Row `r` spans `prefix[r * (steps + 1)..(r + 1) * (steps + 1)]`:
    /// entry `k` is the sum over columns `0..k` of each column's full
    /// unit-envelope object-minus-background delta, had the bin's surface
    /// covered it — FoV weight (incl. the `powf` rolloff),
    /// mirror-geometry specular lobe, path transmission, patch
    /// illuminance profile and background subtraction all baked in at
    /// build time. Identical (lane, lateral, material, height) bins map
    /// to the *same* row across objects.
    bin_row: Vec<usize>,
    /// Movers only: the column intervals `[lo, hi)` of the parked
    /// objects whose lane band meets this one's, merged and sorted. A
    /// tick whose columns meet one of them is an occlusion hazard.
    parked_under: Vec<(usize, usize)>,
    /// Proven unable to contribute at this pose (lane band covers no
    /// slice centre, or whole-trajectory reach misses the footprint):
    /// carries no tables and is skipped by every per-tick structure.
    culled: bool,
}

impl ObjectKernel {
    /// Walks columns `lo..hi` of this object with its leading edge at
    /// `lead` as runs of one surface piece, calling `visit(start, end,
    /// piece)` once per covered run `start..end`.
    ///
    /// A column's local coordinate `lead − (pose.x_m + g.x(ix))` never
    /// increases with `ix`, so the covered columns (local in
    /// `[0, length]`) form one block and each piece one run inside it.
    /// A run's end is estimated arithmetically from the piece's lower cut,
    /// then settled by [`palc_scene::PieceCursor::holds`] on that same
    /// local expression: every column lands in exactly the piece
    /// [`palc_scene::SurfaceProfile::piece_at`] gives it, so the kernel
    /// agrees with a per-column walk even on a cut. Cost: O(pieces),
    /// independent of how many columns the object covers.
    // palc_lint: hot-path
    #[inline]
    fn for_each_run(
        &self,
        g: &FootprintGrid,
        pose: ReceiverPose,
        lead: f64,
        lo: usize,
        hi: usize,
        mut visit: impl FnMut(usize, usize, usize),
    ) {
        let profile = self.profile.as_ref().expect("culled objects carry no tables");
        let local = |ix: usize| lead - (pose.x_m + g.x(ix));
        // Column whose centre sits at local coordinate `l` is about
        // `origin − l / dx`; rounding only costs a correction step.
        let origin = (lead - pose.x_m + g.r_max) / g.dx + 0.5;
        let guess = |l: f64| (origin - l / g.dx) as usize;
        // Behind the trailing edge (local > length): not covered.
        let mut ix = run_end(lo, hi, guess(self.length), |c| local(c) > self.length);
        if ix >= hi {
            return;
        }
        let mut at = local(ix);
        let mut cursor = profile.cursor(at);
        while at >= 0.0 {
            let end = run_end(ix + 1, hi, guess(cursor.lower_cut()), |c| cursor.holds(local(c)));
            if let Some(p) = cursor.piece() {
                visit(ix, end, p);
            }
            if end >= hi {
                return;
            }
            ix = end;
            at = local(ix);
            cursor.seek(at);
        }
    }

    /// The object's dynamic contribution with its leading edge at `lead`,
    /// columns `lo..hi`: per piece run, one difference of its bin's
    /// prefix row. This is the entire per-tick cost of an active mover,
    /// and the build-time cost of a parked object.
    #[inline]
    fn run_sum(
        &self,
        prefix: &[f64],
        g: &FootprintGrid,
        pose: ReceiverPose,
        lead: f64,
        lo: usize,
        hi: usize,
    ) -> f64 {
        let width = g.steps + 1;
        let mut sum = 0.0;
        self.for_each_run(g, pose, lead, lo, hi, |start, end, p| {
            let row = self.bin_row[self.piece_bin[p]] * width;
            sum += prefix[row + end] - prefix[row + start];
        });
        sum
    }
    // palc_lint: end hot-path

    /// The per-column reference [`ObjectKernel::run_sum`] replaces: one
    /// `piece_at` and one table entry per covered column.
    #[cfg(test)]
    fn table_sum(
        &self,
        prefix: &[f64],
        g: &FootprintGrid,
        pose: ReceiverPose,
        lead: f64,
        lo: usize,
        hi: usize,
    ) -> f64 {
        let profile = self.profile.as_ref().expect("culled objects carry no tables");
        let mut sum = 0.0;
        for ix in lo..hi {
            let x = pose.x_m + g.x(ix);
            let local = lead - x;
            if !(0.0..=self.length).contains(&local) {
                continue; // widened interval edge, not covered
            }
            if let Some(p) = profile.piece_at(local) {
                let row = self.bin_row[self.piece_bin[p]] * (g.steps + 1);
                sum += prefix[row + ix + 1] - prefix[row + ix];
            }
        }
        sum
    }
}

/// The end of a run of columns: the first column in `from..hi` where
/// `keep` fails, given that `keep` holds on a prefix of the range.
/// Starts from the arithmetic estimate `guess` and steps to the exact
/// boundary — one `keep` call either side when the estimate is right.
// palc_lint: hot-path
#[inline]
fn run_end(from: usize, hi: usize, guess: usize, keep: impl Fn(usize) -> bool) -> usize {
    let mut end = guess.clamp(from, hi);
    while end > from && !keep(end - 1) {
        end -= 1;
    }
    while end < hi && keep(end) {
        end += 1;
    }
    end
}
// palc_lint: end hot-path

/// Build-time statistics of a [`FootprintKernel`]: how much work the
/// interning pool and the spatial index actually avoided. Surfaced by
/// [`FootprintKernel::stats`] / `ChannelSampler::kernel_stats` and
/// printed by `channel_throughput --verbose`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Distinct geometry tables integrated (footprint sweeps performed).
    pub tables_built: usize,
    /// Table requests served from the hash-cons pool instead — each one
    /// a full footprint sweep the build skipped.
    pub tables_interned: usize,
    /// Resident bytes of the interned table pool.
    pub table_bytes: usize,
    /// Objects the build-time spatial index proved unable to touch this
    /// pose's footprint: no tables, no per-tick work, ever.
    pub objects_culled: usize,
    /// Stationary in-footprint objects folded into the build-time parked
    /// aggregate: zero per-tick work.
    pub objects_parked: usize,
    /// Moving in-footprint objects on the entry/exit event queue: the
    /// only objects a tick can spend per-piece work on.
    pub objects_movers: usize,
}

/// The table-driven (fourth) tier of the footprint integrator: per-tick
/// evaluation as one prefix-row subtraction per surface piece over
/// precomputed column-geometry tables — no `acos`/`cos`/`powf` (FoV
/// weight), no `exp` (path transmission), no `sqrt` (distance), no
/// specular mirror reflection, no O(objects) surface scan, and no loop
/// over footprint columns inside the per-tick loop.
///
/// ## Why the tables are sound
///
/// The same factorisation [`DeltaField`] exploits, taken to its
/// conclusion: for an envelope-separable source, the contribution of a
/// patch resolved to a fixed `(material, height)` surface is
/// `G(x, y, material, height) × envelope(t)` with `G` pure
/// time-invariant geometry. The set of surfaces an object can present is
/// finite and enumerable ([`palc_scene::MobileObject::surface_profile`]:
/// one *bin* per distinct `(material, height)` pair), so `G` summed over
/// a column's slices can be tabulated per `(bin, column)` at build time,
/// and is stored as a prefix row (entry `k` sums columns `0..k`). A tick
/// then reduces, per object, to: resolve the leading edge, walk the
/// object's pieces as runs of columns (a column's local coordinate never
/// increases with its index, so each piece covers one run), and add
/// `P[bin_of(piece)][end] − P[bin_of(piece)][start]` per run. Run ends
/// are settled by [`palc_scene::PieceCursor`] with the same comparisons
/// over the same floats as [`palc_scene::SurfaceProfile::piece_at`] —
/// itself exact against the reference surface sampler — so the binning
/// can never disagree with the channel's per-patch surface scan
/// (`PassiveChannel::surface_at`), even exactly on a strip boundary.
///
/// ## Exact fallbacks
///
/// Mirrors [`DeltaField`]'s discipline — any tick the tables cannot
/// represent is served exactly by a lower tier:
///
/// * envelope break (`flicker_envelope` → `None`) → full per-tick
///   integral;
/// * degenerate envelope (≤ 1e-12) → staged integral;
/// * two objects overlapping in both column range and lane band (the
///   occlusion resolution picks the max height, which no per-object
///   table can express) → staged integral until they separate;
/// * a scene with any non-piecewise-static surface (LCD shutter tag)
///   never builds a kernel at all ([`PassiveChannel::footprint_kernel`]
///   returns `None`) and rides the staged/incremental tiers.
///
/// The only per-tick mutable state is the event cursor and the active
/// mover list — both reset deterministically when time runs backwards —
/// so fallback ticks need no pinning.
///
/// ## Shared tables, private walk state
///
/// Everything the build produces is immutable and lives behind one
/// `Arc` (`KernelTables`: the static field, per-object decompositions,
/// the interned prefix pool, the parked aggregate and the event queue).
/// A kernel adds only its own walk state — event cursor, active movers,
/// last tick time, span scratch. Cloning a kernel, or building one from
/// a [`Scenario`]'s per-pose cache, shares the tables by refcount and
/// costs no footprint sweep; two kernels over the same tables tick
/// independently and give identical values.
///
/// ## Scaling layer
///
/// Three build-time structures make per-tick cost track the objects
/// whose footprint intersects the receiver *now*, not the scene size:
///
/// * **Spatial index** — each object's lane band × whole-trajectory
///   reachable x-extent ([`palc_scene::MobileObject::reachable_x_extent`])
///   is tested against this pose's footprint window once at build;
///   objects that can never touch it are culled from every per-tick
///   structure. Per-`ReceiverPose`, so array shards index only their own
///   neighbourhood.
/// * **Event queue** — in-reach movers get entry/exit times (exact
///   monotone-trajectory inversion, [`palc_scene::Trajectory::time_to_travel_checked`]);
///   a cursor sweep keeps the active set current, and stationary objects
///   are folded into one build-time scalar. A 1000-object parking lot
///   with 3 movers costs ~3 objects of work per tick.
/// * **Interned tables** — column-geometry rows are hash-consed on
///   (lane, lateral, material, height), so identical parked cars share
///   one table ([`FootprintKernel::stats`]).
///
/// Built by [`PassiveChannel::footprint_kernel`]; owned by
/// [`ChannelSampler`] (every sampler- and streaming-based run rides it
/// by default; [`ChannelSampler::without_kernel`] opts out onto the
/// incremental tier). Equivalence with the incremental, staged and full
/// tiers to ≤ 1e-9 is pinned by golden tests here, property tests in
/// `tests/properties.rs`, and a bench-side guard per scenario family.
#[derive(Debug, Clone)]
pub struct FootprintKernel {
    /// The build's immutable output, shared by every kernel at this pose.
    tables: Arc<KernelTables>,
    /// First event not yet applied to `active`.
    cursor: usize,
    /// Movers currently inside the footprint window.
    active: Vec<u32>,
    /// Last tick time, to detect non-monotone sampling and rewind.
    last_t: f64,
    /// Scratch: per-tick `(object, lead, lo, hi)` of active movers.
    spans: Vec<(u32, f64, usize, usize)>,
}

/// The immutable output of a [`FootprintKernel`] build at one pose: valid
/// for as long as the static field and the object list it was built from.
#[derive(Debug)]
struct KernelTables {
    field: Arc<StaticField>,
    objects: Vec<ObjectKernel>,
    /// Interned column-geometry prefix rows; row `r` spans
    /// `[r * (steps + 1), (r + 1) * (steps + 1)]` and its entry `k` sums
    /// columns `0..k`.
    prefix: Vec<f64>,
    stats: KernelStats,
    /// Build-time sum of every parked in-footprint object's table sum.
    parked_sum: f64,
    /// Two parked objects overlap in both columns and lane band: the
    /// conflict never clears, so every tick is served staged.
    parked_overlap: bool,
    /// Mover entry/exit events `(time, object, is_entry)`, time-sorted.
    events: Vec<(f64, u32, bool)>,
}

impl FootprintKernel {
    /// A kernel over `tables` with fresh walk state.
    fn new(tables: Arc<KernelTables>) -> Self {
        FootprintKernel {
            tables,
            cursor: 0,
            active: Vec::new(),
            last_t: f64::NEG_INFINITY,
            spans: Vec::new(),
        }
    }

    /// Noise-free illuminance at time `t` through the geometry tables:
    /// `(static_total + parked aggregate + Σ active-mover piece-run
    /// prefix differences) × envelope(t)`, falling back to the exact
    /// staged or full tier per tick as described on [`FootprintKernel`].
    ///
    /// `channel` must be the channel this kernel was built from (same
    /// objects, same grid).
    // palc_lint: hot-path
    pub fn illuminance(&mut self, channel: &PassiveChannel, t: f64) -> f64 {
        let tb = &*self.tables;
        debug_assert_eq!(
            tb.objects.len(),
            channel.objects.len(),
            "footprint kernel built for a different scene"
        );
        let env = match envelope_or_fallback(channel, t) {
            Ok(env) => env,
            Err(EnvelopeFallback::Full) => return channel.illuminance_at_pose(tb.field.pose, t),
            Err(EnvelopeFallback::Staged) => return channel.illuminance_staged(&tb.field, t),
        };
        if tb.parked_overlap {
            return channel.illuminance_staged(&tb.field, t);
        }
        let g = tb.field.grid;
        let pose = tb.field.pose;

        // Event cursor: samplers tick monotonically, so this is O(events
        // crossed since the last tick), amortised O(1). A rewind (golden
        // tests, repeated probes) resets and replays — still exact.
        if t < self.last_t {
            self.cursor = 0;
            self.active.clear();
        }
        self.last_t = t;
        while self.cursor < tb.events.len() && tb.events[self.cursor].0 <= t {
            let (_, oi, entry) = tb.events[self.cursor];
            self.cursor += 1;
            if entry {
                self.active.push(oi);
            } else {
                self.active.retain(|&o| o != oi);
            }
        }

        // Covered-column spans of the active movers only.
        let mut spans = std::mem::take(&mut self.spans);
        spans.clear();
        for &oi in &self.active {
            let ok = &tb.objects[oi as usize];
            let lead = channel.objects[oi as usize].leading_edge_at(t);
            let (lo, hi) = column_range(&g, lead - ok.length - pose.x_m, lead - pose.x_m);
            if lo < hi {
                spans.push((oi, lead, lo, hi));
            }
        }

        // Overlap hazard → staged fallback, decomposed by motion class:
        // mover–mover pairwise over the (few) active movers, and
        // mover–parked by one search of the mover's merged parked
        // intervals (empty — so O(1) — when no parked object shares its
        // lane band). Parked–parked was settled for good at build time.
        let mut overlap = false;
        'mm: for i in 0..spans.len() {
            for j in (i + 1)..spans.len() {
                let (a, _, alo, ahi) = spans[i];
                let (b, _, blo, bhi) = spans[j];
                if alo < bhi && blo < ahi {
                    let (oa, ob) = (&tb.objects[a as usize], &tb.objects[b as usize]);
                    if oa.y_lo <= ob.y_hi && ob.y_lo <= oa.y_hi {
                        overlap = true;
                        break 'mm;
                    }
                }
            }
        }
        if !overlap {
            overlap = spans.iter().any(|&(oi, _, lo, hi)| {
                let under = &tb.objects[oi as usize].parked_under;
                let k = under.partition_point(|&(_, phi)| phi <= lo);
                k < under.len() && under[k].0 < hi
            });
        }
        if overlap {
            self.spans = spans;
            return channel.illuminance_staged(&tb.field, t);
        }

        let mut dynamic = tb.parked_sum;
        for &(oi, lead, lo, hi) in &spans {
            dynamic += tb.objects[oi as usize].run_sum(&tb.prefix, &g, pose, lead, lo, hi);
        }
        self.spans = spans;
        (tb.field.static_total + dynamic) * env
    }
    // palc_lint: end hot-path

    /// The static field these tables layer on.
    pub fn static_field(&self) -> &StaticField {
        &self.tables.field
    }

    /// Build-time statistics: tables built vs interned, pool bytes, and
    /// the culled/parked/mover split of the scene's objects.
    pub fn stats(&self) -> KernelStats {
        self.tables.stats
    }

    /// Total precomputed table entries resident in the interned pool
    /// (`steps + 1` prefix entries per row) — the build-time footprint
    /// the per-tick loop trades transcendentals for. Shared rows count
    /// once; see [`FootprintKernel::stats`] for how many requests the
    /// pool deduplicated.
    pub fn table_entries(&self) -> usize {
        self.tables.prefix.len()
    }
}

/// A streaming channel run: staged per-tick illuminance fed one sample at
/// a time through a stateful frontend ([`FrontendState`]), yielding RSS
/// codes as `f64`. Traces of arbitrary duration run in bounded memory,
/// and a decoder can consume samples online as they are produced.
///
/// Created by [`PassiveChannel::sampler`] / [`Scenario::sampler`].
/// Collecting it reproduces the corresponding batch run sample for
/// sample: `scenario.sampler(seed).collect::<Vec<_>>()` equals
/// `scenario.run(seed).samples()`.
pub struct ChannelSampler<'a> {
    channel: &'a PassiveChannel,
    /// The receiver pose this sampler integrates for (matches the static
    /// field's pose when one is present; used directly on the full-tier
    /// fallback when none is).
    pose: ReceiverPose,
    field: Option<Arc<StaticField>>,
    delta: Option<DeltaField>,
    kernel: Option<FootprintKernel>,
    state: FrontendState,
    fs: f64,
    i: usize,
    n: usize,
}

impl ChannelSampler<'_> {
    /// Sampling rate of the produced RSS stream, Hz.
    pub fn sample_rate_hz(&self) -> f64 {
        self.fs
    }

    /// The receiver pose this sampler integrates for.
    pub fn pose(&self) -> ReceiverPose {
        self.pose
    }

    /// Whether the staged (static-field) path is active, as opposed to
    /// the full per-tick integral fallback.
    pub fn is_staged(&self) -> bool {
        self.field.is_some()
    }

    /// Whether the incremental [`DeltaField`] tier is available (staged
    /// field exists *and* every object piecewise-static). Note the
    /// kernel tier outranks it: when [`ChannelSampler::is_kernel`] is
    /// also true, ticks are served from the tables, with the delta field
    /// standing by for [`ChannelSampler::without_kernel`].
    pub fn is_incremental(&self) -> bool {
        self.delta.is_some()
    }

    /// Whether the table-driven [`FootprintKernel`] (fourth) tier is
    /// active — the default whenever the scene permits.
    pub fn is_kernel(&self) -> bool {
        self.kernel.is_some()
    }

    /// Build-time statistics of the kernel tier (tables built vs
    /// interned, pool bytes, culled/parked/mover split), or `None` when
    /// the kernel tier is unavailable or dropped.
    pub fn kernel_stats(&self) -> Option<KernelStats> {
        self.kernel.as_ref().map(|k| k.stats())
    }

    /// Drops the kernel tier, forcing every tick through the incremental
    /// [`DeltaField`] (or lower). Mirrors
    /// [`ChannelSampler::without_incremental`]; used to benchmark the
    /// tiers against each other and to pin their equivalence in tests.
    pub fn without_kernel(mut self) -> Self {
        self.kernel = None;
        self
    }

    /// Drops the kernel *and* incremental tiers, forcing every tick
    /// through the staged covered-patch re-integration (or the full
    /// integral when no static field exists). Used to benchmark the
    /// tiers against each other and to pin their equivalence in tests.
    pub fn without_incremental(mut self) -> Self {
        self.kernel = None;
        self.delta = None;
        self
    }

    /// Drains the sampler into a [`Trace`].
    pub fn into_trace(self) -> Trace {
        let fs = self.fs;
        Trace::new(self.collect(), fs)
    }
}

impl Iterator for ChannelSampler<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.i >= self.n {
            return None;
        }
        let t = self.i as f64 / self.fs;
        self.i += 1;
        let lux = match (&mut self.kernel, &mut self.delta, &self.field) {
            (Some(k), _, _) => k.illuminance(self.channel, t),
            (None, Some(df), _) => df.illuminance(self.channel, t),
            (None, None, Some(f)) => self.channel.illuminance_staged(f, t),
            (None, None, None) => self.channel.illuminance_at_pose(self.pose, t),
        };
        Some(self.state.step_f64(lux))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.n - self.i;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for ChannelSampler<'_> {}

/// One receiver pose's build: its static field and the kernel tables over
/// that field. Every sampler at the pose shares both by refcount and adds
/// only its own walk and frontend state.
#[derive(Debug, Clone)]
struct PoseBuild {
    field: Option<Arc<StaticField>>,
    tables: Option<Arc<KernelTables>>,
}

impl PoseBuild {
    /// Builds the kernel tables over `field` (built at the pose wanted).
    fn new(channel: &PassiveChannel, field: Option<Arc<StaticField>>) -> Self {
        let tables = field.clone().and_then(|f| channel.kernel_tables(f)).map(Arc::new);
        PoseBuild { field, tables }
    }

    /// A kernel with fresh walk state over the shared tables.
    fn kernel(&self) -> Option<FootprintKernel> {
        self.tables.clone().map(FootprintKernel::new)
    }
}

/// Receiver poses a [`Scenario`] keeps builds for. An array deployment
/// has a handful of fixed poses; a caller sweeping more poses than this
/// through one scenario evicts the oldest entry first, so memory stays
/// bounded and only the evicted pose pays its build again.
const POSE_CACHE_POSES: usize = 64;

/// A cache entry: each half is built once, on first use, by whichever
/// thread asks first (a concurrent asker waits for that build).
#[derive(Debug, Default)]
struct PoseSlot {
    field: OnceLock<Option<Arc<StaticField>>>,
    tables: OnceLock<Option<Arc<KernelTables>>>,
}

impl PoseSlot {
    fn field(&self, channel: &PassiveChannel, pose: ReceiverPose) -> Option<Arc<StaticField>> {
        self.field.get_or_init(|| channel.static_field_at(pose).map(Arc::new)).clone()
    }

    fn build(&self, channel: &PassiveChannel, pose: ReceiverPose) -> PoseBuild {
        let field = self.field(channel, pose);
        let tables = self.tables.get_or_init(|| PoseBuild::new(channel, field.clone()).tables);
        PoseBuild { tables: tables.clone(), field }
    }
}

/// A [`Scenario`]'s per-pose build cache, keyed by the pose's bits.
#[derive(Debug, Default)]
struct PoseCache {
    /// Entry per pose, with the insertion number eviction orders by.
    slots: BTreeMap<[u64; 3], (u64, Arc<PoseSlot>)>,
    inserted: u64,
}

impl PoseCache {
    /// The entry for `pose`, inserted empty when absent. At the bound the
    /// oldest insertion is evicted first, so which entry goes depends
    /// only on the order poses were first asked for.
    fn slot(&mut self, pose: ReceiverPose) -> Arc<PoseSlot> {
        let key = [pose.x_m.to_bits(), pose.y_m.to_bits(), pose.z_m.to_bits()];
        if let Some((_, slot)) = self.slots.get(&key) {
            return slot.clone();
        }
        if self.slots.len() >= POSE_CACHE_POSES {
            let oldest = self.slots.iter().min_by_key(|(_, (n, _))| *n).map(|(k, _)| *k);
            if let Some(k) = oldest {
                self.slots.remove(&k);
            }
        }
        let slot = Arc::new(PoseSlot::default());
        self.slots.insert(key, (self.inserted, slot.clone()));
        self.inserted += 1;
        slot
    }
}

/// Ready-made experimental setups matching the paper's sections.
///
/// A scenario owns its channel, so it knows when the channel changes:
/// every run reuses one build per receiver pose (the pose's static field
/// and kernel tables), made on the first run at that pose and dropped by
/// [`Scenario::channel_mut`]. A fixed receiver decoding pass after pass
/// pays its build once.
pub struct Scenario {
    channel: PassiveChannel,
    duration_s: f64,
    poses: Mutex<PoseCache>,
}

impl Scenario {
    /// Wraps an explicit channel and duration, then runs the deployment's
    /// gain calibration: a coarse noiseless probe of the peak aperture
    /// illuminance sets the LM358 gain so the detector's output spans the
    /// ADC window (the OpenVLC driver's gain-control step). Optical
    /// saturation happens *before* this gain and is unaffected.
    pub fn custom(channel: PassiveChannel, duration_s: f64) -> Self {
        let mut scenario = Scenario { channel, duration_s, poses: Mutex::default() };
        scenario.calibrate_gain();
        scenario
    }

    /// Re-runs gain calibration (call after swapping receiver or scene).
    /// The probes run on the origin pose's cached static field, which
    /// every later run at that pose reuses; the gain itself enters no
    /// cached build.
    pub fn calibrate_gain(&mut self) {
        let field = self.slot(self.channel.pose()).field(&self.channel, self.channel.pose());
        let peak_lux =
            self.channel.peak_illuminance_with_field(field.as_deref(), self.duration_s, 96);
        let peak_out = self.channel.frontend.receiver.respond(peak_lux);
        if peak_out > 1e-9 {
            let rail = self.channel.frontend.amplifier.rail_high_v;
            self.channel.frontend.amplifier.gain = 0.75 * rail / peak_out;
        }
    }

    /// The Sec. 4.1 dark-room bench: a narrow-beam LED lamp co-located
    /// with a bare PD(G1) receiver at `height_m`, a tag compiled from
    /// `packet` at `symbol_width_m` passing at 8 cm/s on a cart.
    pub fn indoor_bench(packet: Packet, symbol_width_m: f64, height_m: f64) -> Self {
        let tag = Tag::from_packet(&packet, symbol_width_m);
        Self::indoor_bench_tag(tag, height_m, Trajectory::indoor_bench())
    }

    /// Indoor bench with an explicit tag and trajectory (used by the
    /// Fig. 8 variable-speed experiment).
    pub fn indoor_bench_tag(tag: Tag, height_m: f64, trajectory: Trajectory) -> Self {
        // Narrow-beam bench lamp riding with the receiver: ~6° half-power,
        // so the illumination spot — not the wide photodiode — sets the
        // spatial resolution (see the module docs).
        let order = palc_optics::photometry::lambertian_order_from_half_angle(6.0);
        // 10 cd keeps the specular return of the HIGH strips below the
        // PD(G1) saturation point (450 lux) even at the lowest bench
        // height — the paper's dark-room link never rails.
        let lamp = PointLamp::new(Vec3::new(0.0, 0.0, height_m), 10.0).with_order(order);
        let receiver = OpticalReceiver::opt101(PdGain::G1);
        let frontend = Frontend::indoor(receiver, 0);
        let lead_m = 0.08; // spot clearance before the tag arrives
        let tag_len = tag.length_m();
        let object = MobileObject::cart(tag, trajectory).starting_at(-lead_m);
        let travel = tag_len + 2.0 * lead_m;
        let duration = object.trajectory().time_to_travel(travel) + 0.2;
        let resolution =
            Resolution { along_m: (tag_len / 400.0).clamp(0.002, 0.01), lateral_slices: 3 };
        Scenario::custom(
            PassiveChannel {
                environment: Environment::dark_room(),
                source: Box::new(lamp),
                objects: vec![object],
                receiver_z_m: height_m,
                frontend,
                resolution,
            },
            duration,
        )
    }

    /// The Fig. 7 office: fluorescent ceiling panel at 2.3 m producing
    /// `mean_lux` below, receiver at 0.2 m, tag at 8 cm/s.
    pub fn ceiling_office(packet: Packet, symbol_width_m: f64, mean_lux: f64) -> Self {
        let tag = Tag::from_packet(&packet, symbol_width_m);
        let panel = CeilingPanel::fluorescent(2.3, mean_lux);
        let receiver = OpticalReceiver::opt101(PdGain::G2);
        let frontend =
            Frontend::new(receiver, palc_frontend::Mcp3008 { vref: 3.3, sample_rate_hz: 500.0 }, 0);
        let lead_m = 0.08;
        let tag_len = tag.length_m();
        let object = MobileObject::cart(tag, Trajectory::indoor_bench()).starting_at(-lead_m);
        let duration = object.trajectory().time_to_travel(tag_len + 2.0 * lead_m) + 0.2;
        Scenario::custom(
            PassiveChannel {
                environment: Environment::lit_office(),
                source: Box::new(panel),
                objects: vec![object],
                receiver_z_m: 0.2,
                frontend,
                resolution: Resolution { along_m: 0.004, lateral_slices: 3 },
            },
            duration,
        )
    }

    /// The Sec. 4.3 contention bench: two tags cross the same footprint
    /// simultaneously, so both modulate one receiver at their own strip
    /// rates. The victim (carrying `packet`) passes under the spot in
    /// lane 0; the rival (carrying `rival_packet`) rides a slightly
    /// taller cart in lane `rival_lane_y_m`, occluding whatever slice of
    /// the spot its lane band covers. That band overlap is the power
    /// split: a rival grazing the footprint edge leaves one dominant
    /// transmitter (the analyzer's Case 2 — victim still decodes); a
    /// rival covering about half the spot shares the channel evenly and
    /// jams it (Case 3, multiple transmitters).
    pub fn two_tag_contention(
        packet: Packet,
        symbol_width_m: f64,
        rival_packet: Packet,
        rival_symbol_width_m: f64,
        rival_lane_y_m: f64,
    ) -> Self {
        // Contention needs a *graded* power split across the footprint,
        // which the bench geometry cannot give: its glossy tape returns
        // light through a retro-reflective Phong lobe that concentrates
        // the whole link budget in the few square centimetres at nadir,
        // collapsing any lane-share contest into all-or-nothing. So this
        // scene uses the paper's other hardware: diffuse white/black
        // paper strips under a wide (35° half-power) lamp, read through
        // the Sec. 4.1 aperture cap (1.2 × 2.8 cm tube, ≈23° FoV) whose
        // raised-cosine acceptance weights the footprint gently around
        // nadir — spatial resolution from the receiver, not the spot.
        let height_m = 0.25;
        let order = palc_optics::photometry::lambertian_order_from_half_angle(35.0);
        let lamp = PointLamp::new(Vec3::new(0.0, 0.0, height_m), 10.0).with_order(order);
        let receiver = OpticalReceiver::opt101(PdGain::G1)
            .with_fov(palc_optics::FieldOfView::from_aperture_tube(0.012, 0.028));
        let frontend = Frontend::indoor(receiver, 0);
        let (high, low) = (Material::white_paper(), Material::black_napkin());
        let victim = Tag::from_packet_with_materials(&packet, symbol_width_m, high, low);
        let rival = Tag::from_packet_with_materials(&rival_packet, rival_symbol_width_m, high, low);
        let lead_m = 0.08;
        let victim_len = victim.length_m();
        let rival_len = rival.length_m();
        // Centre the two passes on each other so the rival keeps
        // modulating for the whole victim pass (`starting_at` places the
        // leading edge; a tag extends behind it).
        let rival_start = -lead_m + (rival_len - victim_len) / 2.0;
        let victim_obj =
            MobileObject::cart(victim, Trajectory::indoor_bench()).starting_at(-lead_m);
        // 2 cm taller, so where the lane bands overlap the rival is the
        // visible surface.
        let rival_obj = MobileObject::cart(rival, Trajectory::indoor_bench())
            .starting_at(rival_start)
            .in_lane(rival_lane_y_m)
            .at_height(0.02);
        let travel = victim_len.max(rival_len) + 2.0 * lead_m;
        let duration = victim_obj.trajectory().time_to_travel(travel) + 0.2;
        Scenario::custom(
            PassiveChannel {
                environment: Environment::dark_room(),
                source: Box::new(lamp),
                objects: vec![victim_obj, rival_obj],
                receiver_z_m: height_m,
                frontend,
                // 43 slices over the ±0.43 m FoV footprint puts ~5
                // slices inside the lit spot, so the rival's lane band
                // resolves to a fractional power share instead of an
                // all-or-nothing slice.
                resolution: Resolution { along_m: 0.002, lateral_slices: 43 },
            },
            duration,
        )
    }

    /// The Sec. 5 outdoor car pass: `car` with `packet` on the roof at
    /// 10 cm symbols, receiver `height_above_roof_m` above the roof, under
    /// `sun`. Receiver defaults to the RX-LED; see
    /// [`Scenario::with_receiver`].
    pub fn outdoor_car(
        car: CarModel,
        packet: Option<Packet>,
        height_above_roof_m: f64,
        sun: Sun,
    ) -> Self {
        Self::outdoor_car_pass(car, packet, height_above_roof_m, sun, Trajectory::car_18kmh(), 1.0)
    }

    /// [`Scenario::outdoor_car`] with an explicit trajectory and lead
    /// distance — long or slow passes (a traffic-jam crawl past a gate
    /// reader) where the car sits in the footprint for most of the run,
    /// the workload the incremental integrator is built for.
    pub fn outdoor_car_pass(
        car: CarModel,
        packet: Option<Packet>,
        height_above_roof_m: f64,
        sun: Sun,
        trajectory: Trajectory,
        lead_m: f64,
    ) -> Self {
        let tag = packet.map(|p| Tag::from_packet(&p, 0.10).with_lateral(0.5));
        let roof_z = car.max_height_m();
        let car_len = car.length_m();
        let object = MobileObject::car(car, tag, trajectory).starting_at(-lead_m);
        let duration = object.trajectory().time_to_travel(car_len + 2.0 * lead_m) + 0.1;
        let receiver = OpticalReceiver::rx_led();
        let frontend = Frontend::outdoor(receiver, 0);
        Scenario::custom(
            PassiveChannel {
                environment: Environment::parking_lot(),
                source: Box::new(sun),
                objects: vec![object],
                receiver_z_m: roof_z + height_above_roof_m,
                frontend,
                resolution: Resolution { along_m: 0.02, lateral_slices: 5 },
            },
            duration,
        )
    }

    /// A parking-structure fleet: `n_objects` cars under a cloudy-noon
    /// sun, all but `n_movers` parked in rows flanking the receiver's
    /// lane, the movers driving down lane 0 past a bare-PD gate reader
    /// at 18 km/h (each carrying a roof tag compiled from `packet`, when
    /// one is given). The parked rows extend far past the receiver's
    /// footprint in both directions, so the scene's *active* content —
    /// the handful of cars the footprint can see — is identical at 10,
    /// 100 and 1000 objects: the workload the kernel's scaling layer
    /// (build-time culling, parked aggregate, event queue, interned
    /// tables) is built for, and the family `channel_throughput`'s
    /// sublinearity floor is gated on.
    ///
    /// Geometry is chosen so no fallback ever fires: row pitch exceeds a
    /// car's lateral extent (disjoint lane bands) and slot pitch leaves
    /// a gap wider than the grid's column widening (no column overlap).
    pub fn parking_structure(n_objects: usize, n_movers: usize, packet: Option<Packet>) -> Self {
        Self::fleet_scene(n_objects, n_movers, false, packet)
    }

    /// A multi-lane highway fleet: `n_objects` cars all moving at
    /// 18 km/h, round-robined over five lanes and staggered within each
    /// lane so the convoy streams past the receiver indefinitely.
    /// Exercises the kernel's event queue (every object enters and
    /// leaves the footprint window) and table interning (identical cars
    /// in the same lane share one geometry table); the run's duration is
    /// fixed, so only the leading waves transit — exactly the "almost
    /// everything is elsewhere" regime the spatial index targets.
    pub fn highway_multilane(n_objects: usize, packet: Option<Packet>) -> Self {
        Self::fleet_scene(n_objects, n_objects, true, packet)
    }

    /// Shared builder of the thousand-object fleet families: a bare
    /// PD(G1) gate reader 0.9 m above roof height (60° half-angle, so
    /// the footprint spans the flanking rows), outdoor 2 kHz frontend,
    /// cloudy-noon sun over a parking lot.
    fn fleet_scene(
        n_objects: usize,
        n_movers: usize,
        multilane: bool,
        packet: Option<Packet>,
    ) -> Self {
        assert!(n_movers <= n_objects, "more movers than objects");
        let car = CarModel::volvo_v40();
        let car_len = car.length_m();
        let rx_z = car.max_height_m() + 0.9;
        let receiver = OpticalReceiver::opt101(PdGain::G1);
        let r_max = receiver.fov().footprint_radius(rx_z);
        // Row pitch > car lateral extent (1.8 m): adjacent rows' lane
        // bands are disjoint, so cross-row overlap can never fire.
        let lane_pitch = 1.95;
        // Slot gap ≫ the grid's ±1-column widening: same-row parked
        // cars never share a covered column.
        let x_pitch = car_len + 0.8;
        // Same-lane movers at equal speed keep this separation forever.
        let stagger = 2.0 * car_len + 0.5;
        // Movers start outside the footprint window so their entry (and
        // exit) events fire mid-run rather than degenerating to t = 0.
        let lead = r_max + 0.5;
        let mover_lanes: &[f64] = if multilane { &[0.0, 1.0, -1.0, 2.0, -2.0] } else { &[0.0] };
        let mut objects = Vec::with_capacity(n_objects);
        for i in 0..n_movers {
            let tag = packet.as_ref().map(|p| Tag::from_packet(p, 0.10).with_lateral(0.5));
            let slot = (i / mover_lanes.len()) as f64;
            objects.push(
                MobileObject::car(car.clone(), tag, Trajectory::car_18kmh())
                    .starting_at(-(lead + slot * stagger))
                    .in_lane(mover_lanes[i % mover_lanes.len()] * lane_pitch),
            );
        }
        for j in 0..n_objects - n_movers {
            // Rows ±1 and ±2, slots alternating outward from the
            // receiver: the near-field core of the parked fleet is
            // identical at every n, and everything beyond the footprint
            // is exactly what the build-time index proves irrelevant.
            let row = [1.0, -1.0, 2.0, -2.0][j % 4];
            let slot = j / 4;
            let m = slot.div_ceil(2) as f64;
            let x_idx = if slot % 2 == 0 { m } else { -m };
            objects.push(
                MobileObject::car(car.clone(), None, Trajectory::Constant { speed_mps: 0.0 })
                    .starting_at(x_idx * x_pitch + car_len / 2.0)
                    .in_lane(row * lane_pitch),
            );
        }
        // Long enough for the lead wave plus two stagger periods to
        // transit; independent of n_objects so per-tick costs compare
        // across fleet sizes.
        let duration = (2.0 * lead + car_len + 2.0 * stagger) / 5.0 + 0.5;
        let frontend = Frontend::outdoor(receiver, 0);
        Scenario::custom(
            PassiveChannel {
                environment: Environment::parking_lot(),
                source: Box::new(Sun::cloudy_noon(1)),
                objects,
                receiver_z_m: rx_z,
                frontend,
                resolution: Resolution { along_m: 0.05, lateral_slices: 5 },
            },
            duration,
        )
    }

    /// Swaps the receiver (keeping its sampling rate), e.g. to run the
    /// Fig. 16 PD-with-cap variants. Re-runs gain calibration.
    pub fn with_receiver(mut self, receiver: OpticalReceiver) -> Self {
        self.channel_mut().frontend.receiver = receiver;
        self.channel.frontend.amplifier = palc_frontend::Lm358::openvlc();
        self.calibrate_gain();
        self
    }

    /// Replaces the environment (e.g. to add fog). Re-runs gain
    /// calibration.
    pub fn with_environment(mut self, environment: Environment) -> Self {
        self.channel_mut().environment = environment;
        self.channel.frontend.amplifier = palc_frontend::Lm358::openvlc();
        self.calibrate_gain();
        self
    }

    /// Access to the underlying channel.
    pub fn channel(&self) -> &PassiveChannel {
        &self.channel
    }

    /// Mutable access (advanced setups: extra objects, custom resolution).
    /// Drops every cached pose build, so the next run at each pose builds
    /// its static field and kernel tables from the changed channel. Call
    /// [`Scenario::calibrate_gain`] afterwards if the change should move
    /// the gain too (the `with_*` builders do).
    pub fn channel_mut(&mut self) -> &mut PassiveChannel {
        *self.poses.get_mut().unwrap_or_else(PoisonError::into_inner) = PoseCache::default();
        &mut self.channel
    }

    /// Planned run duration, seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration_s
    }

    /// The cache entry for `pose`. The map lock is held only to find or
    /// insert the entry; builds run outside it, so shards at different
    /// poses build in parallel.
    fn slot(&self, pose: ReceiverPose) -> Arc<PoseSlot> {
        self.poses.lock().unwrap_or_else(PoisonError::into_inner).slot(pose)
    }

    /// A streaming sampler for a receiver at `pose` running `duration_s`,
    /// over the pose's cached build (made here on first use).
    pub(crate) fn pose_sampler(
        &self,
        pose: ReceiverPose,
        duration_s: f64,
        seed: u64,
    ) -> ChannelSampler<'_> {
        let build = self.slot(pose).build(&self.channel, pose);
        self.channel.sampler_from(duration_s, seed, pose, &build)
    }

    /// A streaming sampler for this scenario with the given noise seed:
    /// the channel feeding the stateful frontend one sample at a time.
    /// `scenario.sampler(seed).collect::<Vec<f64>>()` equals
    /// `scenario.run(seed).samples()`. The static field and kernel tables
    /// come from the scenario's cache, so only the first sampler pays
    /// their build.
    pub fn sampler(&self, seed: u64) -> ChannelSampler<'_> {
        self.pose_sampler(self.channel.pose(), self.duration_s, seed)
    }

    /// Runs the scenario with the given noise seed and returns the RSS
    /// trace. Same frontend (incl. calibrated gain), fresh noise seed,
    /// through the staged streaming sampler.
    pub fn run(&self, seed: u64) -> Trace {
        self.sampler(seed).into_trace()
    }

    /// Runs the scenario once per seed, fanning the independent runs
    /// across threads with the workspace default [`SweepRunner`]. Results
    /// are in seed order. Every run shares the scenario's cached static
    /// field and kernel tables.
    pub fn run_batch(&self, seeds: &[u64]) -> Vec<Trace> {
        self.run_batch_on(&SweepRunner::new(), seeds)
    }

    /// Like [`Scenario::run_batch`] with an explicit runner (thread count).
    pub fn run_batch_on(&self, runner: &SweepRunner, seeds: &[u64]) -> Vec<Trace> {
        runner.map(seeds, |&seed| self.run(seed))
    }

    /// The pre-refactor batch path, kept verbatim as the reference the
    /// staged sampler is pinned against: full per-tick footprint integral,
    /// then one batch frontend capture with this scenario's calibrated
    /// gain and the given seed. Golden-equivalence tests and the
    /// `channel_throughput` perf baseline both measure against this one
    /// implementation.
    pub fn run_full_integral(&self, seed: u64) -> Trace {
        let ch = &self.channel;
        let mut fe = Frontend::new(ch.frontend.receiver.clone(), ch.frontend.adc, seed);
        fe.amplifier = ch.frontend.amplifier;
        let lux = ch.run_illuminance(self.duration_s);
        Trace::new(fe.capture_f64(&lux, ch.source.spectrum()), fe.sample_rate_hz())
    }

    /// Runs without noise/quantisation: the noise-free illuminance trace
    /// (kernel tables when the scene permits, incremental/staged
    /// otherwise).
    pub fn run_clean(&self) -> Trace {
        let fs = self.channel.frontend.sample_rate_hz();
        let n = (self.duration_s * fs).ceil() as usize;
        let pose = self.channel.pose();
        let build = self.slot(pose).build(&self.channel, pose);
        let field = build.field.clone();
        let mut kernel = build.kernel();
        let mut delta = match kernel {
            Some(_) => None,
            None => field.clone().and_then(|f| self.channel.delta_field(f)),
        };
        let samples = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                match (&mut kernel, &mut delta) {
                    (Some(k), _) => k.illuminance(&self.channel, t),
                    (None, Some(df)) => df.illuminance(&self.channel, t),
                    (None, None) => self.channel.illuminance_with(field.as_deref(), t),
                }
            })
            .collect();
        Trace::new(samples, fs)
    }

    /// Runs the scenario through an impairment stack: the seeded sampler
    /// feeds the stack, which perturbs the RSS stream before any decoder
    /// sees it. The same `seed` drives both the channel noise and every
    /// stack layer, so one number reproduces the whole impaired run; an
    /// empty stack makes this identical to [`Scenario::run`].
    pub fn run_impaired(&self, seed: u64, stack: &ImpairmentStack) -> Trace {
        let fs = self.channel.frontend.sample_rate_hz();
        Trace::new(stack.apply(seed, self.sampler(seed)).collect(), fs)
    }

    /// [`Scenario::run_clean`] through an impairment stack: the
    /// noise-free illuminance trace with only the stack's perturbations
    /// on top (amplitudes are then in lux, not RSS codes). Isolates an
    /// impairment's effect from frontend noise and quantisation.
    pub fn run_clean_impaired(&self, stack: &ImpairmentStack, seed: u64) -> Trace {
        let clean = self.run_clean();
        let fs = clean.sample_rate_hz();
        Trace::new(stack.apply_slice(seed, clean.samples()), fs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palc_dsp::stats;

    fn packet(bits: &str) -> Packet {
        Packet::from_bits(bits).unwrap()
    }

    #[test]
    fn empty_scene_is_steady_pedestal() {
        let sc = Scenario::indoor_bench(packet("0"), 0.03, 0.2);
        let mut ch = Scenario::indoor_bench(packet("0"), 0.03, 0.2);
        ch.channel_mut().objects.clear();
        let lux = ch.channel().run_illuminance(0.3);
        let (lo, hi) = stats::minmax(&lux);
        assert!(hi > 0.0, "some light must reach the receiver");
        assert!((hi - lo) / hi < 0.01, "no motion -> steady signal");
        drop(sc);
    }

    #[test]
    fn passing_tag_modulates_the_signal() {
        let sc = Scenario::indoor_bench(packet("00"), 0.03, 0.2);
        let trace = sc.run_clean();
        let depth = trace.modulation_depth();
        assert!(depth > 0.2, "modulation depth {depth}");
    }

    #[test]
    fn alternating_pattern_produces_matching_extrema_counts() {
        // '00' -> HLHLHLHL: 4 H strips -> at least 3 interior valleys
        // between them in the clean trace.
        let sc = Scenario::indoor_bench(packet("00"), 0.03, 0.2);
        let trace = sc.run_clean();
        let norm = trace.normalized();
        let cfg = palc_dsp::PeakConfig { min_prominence: 0.3, min_distance: 4 };
        let peaks = palc_dsp::find_peaks(&norm, &cfg);
        assert!(
            (3..=5).contains(&peaks.len()),
            "expected ~4 peaks for HLHLHLHL, got {}",
            peaks.len()
        );
    }

    #[test]
    fn higher_bench_weakens_modulation() {
        let near = Scenario::indoor_bench(packet("0"), 0.03, 0.2).run_clean();
        let far = Scenario::indoor_bench(packet("0"), 0.03, 0.5).run_clean();
        assert!(
            near.modulation_depth() > far.modulation_depth(),
            "near {} vs far {}",
            near.modulation_depth(),
            far.modulation_depth()
        );
    }

    #[test]
    fn absolute_signal_falls_steeply_with_height() {
        // Lamp and receiver rise together: reflected signal ~ 1/h^4.
        let e1 = {
            let mut s = Scenario::indoor_bench(packet("0"), 0.03, 0.2);
            s.channel_mut().objects.clear();
            stats::mean(&s.channel().run_illuminance(0.1))
        };
        let e2 = {
            let mut s = Scenario::indoor_bench(packet("0"), 0.03, 0.4);
            s.channel_mut().objects.clear();
            stats::mean(&s.channel().run_illuminance(0.1))
        };
        assert!(e1 > 4.0 * e2, "pedestal must fall steeply: {e1} vs {e2}");
    }

    #[test]
    fn outdoor_scene_runs_and_shows_car() {
        let sc = Scenario::outdoor_car(CarModel::volvo_v40(), None, 0.75, Sun::cloudy_noon(1));
        let trace = sc.run_clean();
        assert!(trace.len() > 1000);
        // The car must visibly modulate the trace.
        assert!(trace.modulation_depth() > 0.05, "depth {}", trace.modulation_depth());
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let sc = Scenario::indoor_bench(packet("0"), 0.03, 0.2);
        assert_eq!(sc.run(7).samples(), sc.run(7).samples());
        assert_ne!(sc.run(7).samples(), sc.run(8).samples());
    }

    /// The pre-refactor batch path (see [`Scenario::run_full_integral`]).
    fn reference_run(sc: &Scenario, seed: u64) -> Vec<f64> {
        sc.run_full_integral(seed).samples().to_vec()
    }

    fn assert_golden(sc: &Scenario, seed: u64, label: &str) {
        let sampler = sc.sampler(seed);
        assert!(sampler.is_staged(), "{label}: staged path must engage");
        assert!(sampler.is_incremental(), "{label}: incremental tier must engage");
        assert!(sampler.is_kernel(), "{label}: kernel tier must engage");
        let streamed: Vec<f64> = sampler.collect();
        let reference = reference_run(sc, seed);
        assert_eq!(streamed.len(), reference.len(), "{label}: length");
        for (i, (s, r)) in streamed.iter().zip(&reference).enumerate() {
            assert!((s - r).abs() <= 1e-9, "{label}: sample {i} diverged: kernel {s} vs full {r}");
        }
        // Every intermediate tier agrees too: the incremental stream
        // (kernel disabled) and the staged-only stream (kernel and
        // incremental disabled) must stay within the same envelope.
        let incremental: Vec<f64> = sc.sampler(seed).without_kernel().collect();
        for (i, (s, r)) in streamed.iter().zip(&incremental).enumerate() {
            assert!(
                (s - r).abs() <= 1e-9,
                "{label}: sample {i} diverged: kernel {s} vs incremental {r}"
            );
        }
        let staged: Vec<f64> = sc.sampler(seed).without_incremental().collect();
        for (i, (s, r)) in streamed.iter().zip(&staged).enumerate() {
            assert!(
                (s - r).abs() <= 1e-9,
                "{label}: sample {i} diverged: kernel {s} vs staged {r}"
            );
        }
        // And the batch Scenario::run is the very same stream.
        assert_eq!(sc.run(seed).samples(), &streamed[..], "{label}: run == sampler");
    }

    #[test]
    fn golden_staged_matches_full_integral_indoor_bench() {
        let sc = Scenario::indoor_bench(packet("10"), 0.03, 0.20);
        assert_golden(&sc, 42, "indoor_bench");
    }

    #[test]
    fn golden_staged_matches_full_integral_ceiling_office() {
        let sc = Scenario::ceiling_office(packet("10"), 0.03, 500.0);
        assert_golden(&sc, 7, "ceiling_office");
    }

    #[test]
    fn golden_staged_matches_full_integral_outdoor_car() {
        let sc = Scenario::outdoor_car(
            CarModel::volvo_v40(),
            Some(packet("00")),
            0.75,
            Sun::cloudy_noon(1),
        );
        assert_golden(&sc, 2, "outdoor_car");
    }

    #[test]
    fn staged_illuminance_matches_full_with_two_objects_in_lanes() {
        // Overlapping objects in different lanes exercise the merged-span
        // walk and the any-object coverage test.
        let mut sc = Scenario::indoor_bench(packet("10"), 0.03, 0.25);
        let extra = {
            let tag = palc_scene::Tag::from_packet(&packet("0"), 0.05);
            MobileObject::cart(tag, Trajectory::indoor_bench()).starting_at(-0.12).in_lane(0.10)
        };
        sc.channel_mut().objects.push(extra);
        let field = sc.channel().static_field().expect("static source");
        let fs = sc.channel().frontend.sample_rate_hz();
        let n = (sc.duration_s() * fs).ceil() as usize;
        for i in (0..n).step_by(7) {
            let t = i as f64 / fs;
            let staged = sc.channel().illuminance_staged(&field, t);
            let full = sc.channel().illuminance_at(t);
            assert!(
                (staged - full).abs() <= 1e-9 * full.max(1.0),
                "t={t}: staged {staged} vs full {full}"
            );
        }
    }

    #[test]
    fn staged_matches_full_over_zero_diffuse_ground() {
        // Regression: a purely specular ground (diffuse 0) yields bg == 0
        // for every off-mirror patch, but an object passing over those
        // patches still reflects — the dynamic pass must not skip them.
        let mut sc = Scenario::indoor_bench(packet("10"), 0.03, 0.25);
        sc.channel_mut().environment.ground = Material::new("wet-mirror", 0.0, 0.5, 40.0);
        sc.calibrate_gain();
        let field = sc.channel().static_field().expect("static source");
        let fs = sc.channel().frontend.sample_rate_hz();
        let n = (sc.duration_s() * fs).ceil() as usize;
        let mut saw_signal = false;
        for i in (0..n).step_by(5) {
            let t = i as f64 / fs;
            let staged = sc.channel().illuminance_staged(&field, t);
            let full = sc.channel().illuminance_at(t);
            assert!(
                (staged - full).abs() <= 1e-9 * full.max(1.0),
                "t={t}: staged {staged} vs full {full}"
            );
            if full > 2.0 * field.static_total() {
                saw_signal = true;
            }
        }
        assert!(saw_signal, "the tag must visibly modulate over the dark ground");
    }

    #[test]
    fn non_separable_source_falls_back_to_full_integral() {
        use palc_optics::source::CompositeSource;
        let mut sc = Scenario::ceiling_office(packet("0"), 0.03, 500.0);
        sc.channel_mut().source = Box::new(CompositeSource::new(vec![
            Box::new(CeilingPanel::fluorescent(2.3, 500.0)),
            Box::new(Sun::overcast_dusk(3)),
        ]));
        sc.calibrate_gain();
        assert!(sc.channel().static_field().is_none());
        let sampler = sc.sampler(5);
        assert!(!sampler.is_staged());
        let streamed: Vec<f64> = sampler.collect();
        assert_eq!(streamed, reference_run(&sc, 5));
    }

    #[test]
    fn channel_mut_invalidates_static_cache() {
        use palc_scene::Fog;
        let mut sc = Scenario::outdoor_car(CarModel::bmw_3(), None, 0.75, Sun::cloudy_noon(4));
        // Mutate through channel_mut WITHOUT recalibrating: runs must
        // still agree with the full integral on the mutated scene.
        sc.channel_mut().environment =
            Environment::parking_lot().with_fog(Fog::with_visibility(30.0));
        let streamed: Vec<f64> = sc.sampler(9).collect();
        let reference = reference_run(&sc, 9);
        for (i, (s, r)) in streamed.iter().zip(&reference).enumerate() {
            assert!((s - r).abs() <= 1e-9, "sample {i}: {s} vs {r}");
        }
    }

    #[test]
    fn matched_panel_composite_rides_the_staged_path() {
        use palc_optics::source::CompositeSource;
        // Two fluorescent fixtures on the same mains phase: identical
        // ripple envelopes, so the composite is separable and the staged
        // (and incremental) tiers engage — pinned against the full
        // integral like every other golden scene.
        let mut sc = Scenario::ceiling_office(packet("10"), 0.03, 500.0);
        sc.channel_mut().source = Box::new(CompositeSource::new(vec![
            Box::new(CeilingPanel::fluorescent(2.3, 350.0)),
            Box::new(CeilingPanel::fluorescent(2.3, 150.0)),
        ]));
        sc.calibrate_gain();
        assert!(sc.channel().static_field().is_some(), "matched envelopes are separable");
        assert_golden(&sc, 11, "matched_panels");
    }

    #[test]
    fn lcd_scene_stays_on_the_staged_tier() {
        use palc_scene::LcdShutterTag;
        // A time-switching surface has no piecewise-static decomposition:
        // the delta field must refuse to build and the staged tier (which
        // resolves surfaces per tick) must carry the scene, still exact.
        let lcd = LcdShutterTag::new(
            vec![
                palc_scene::Tag::from_packet(&packet("00"), 0.05),
                palc_scene::Tag::from_packet(&packet("11"), 0.05),
            ],
            0.5,
        );
        let mut sc = Scenario::indoor_bench(packet("0"), 0.03, 0.2);
        sc.channel_mut().objects =
            vec![MobileObject::lcd_cart(lcd, Trajectory::indoor_bench()).starting_at(-0.08)];
        sc.calibrate_gain();
        let sampler = sc.sampler(3);
        assert!(sampler.is_staged());
        assert!(!sampler.is_incremental(), "time-switching surface: no delta field");
        assert!(!sampler.is_kernel(), "time-switching surface: no geometry tables");
        let streamed: Vec<f64> = sampler.collect();
        let reference = reference_run(&sc, 3);
        for (i, (s, r)) in streamed.iter().zip(&reference).enumerate() {
            assert!((s - r).abs() <= 1e-9, "sample {i}: staged {s} vs full {r}");
        }
    }

    #[test]
    fn incremental_handles_parked_neighbour_in_another_lane() {
        // A parked (speed 0) elevated tag in a disjoint lane: both
        // objects stay on the incremental path (no overlap in lane
        // bands), and the parked one's columns are integrated exactly
        // once — pinned against the full integral over the whole run.
        let mut sc = Scenario::indoor_bench(packet("10"), 0.03, 0.25);
        let parked = {
            let tag = palc_scene::Tag::from_packet(&packet("0"), 0.05);
            MobileObject::cart(tag, Trajectory::Constant { speed_mps: 0.0 })
                .starting_at(0.1)
                .in_lane(0.31)
                .at_height(0.06)
        };
        sc.channel_mut().objects.push(parked);
        sc.calibrate_gain();
        assert_golden(&sc, 6, "parked_neighbour");
    }

    #[test]
    fn incremental_falls_back_and_resumes_on_same_lane_overlap() {
        // Two carts in the SAME lane whose extents overlap mid-run: the
        // incremental tier must detect the occlusion hazard, serve those
        // ticks from the staged walk, and resume its caches exactly once
        // the objects separate. The second cart is faster, so the pass
        // has distinct phases: apart → overlapping → apart.
        let mut sc = Scenario::indoor_bench(packet("10"), 0.03, 0.25);
        let chaser = {
            let tag = palc_scene::Tag::from_packet(&packet("0"), 0.04);
            MobileObject::cart(tag, Trajectory::Constant { speed_mps: 0.16 }).starting_at(-0.30)
        };
        sc.channel_mut().objects.push(chaser);
        sc.calibrate_gain();
        assert_golden(&sc, 9, "same_lane_overlap");
    }

    #[test]
    fn incremental_handles_direction_reversals() {
        // A shuttling cart (triangle-wave displacement) sweeps its
        // breakpoints back and forth across the footprint; the
        // swept-column computation must stay exact in both directions.
        let tag = palc_scene::Tag::from_packet(&packet("10"), 0.03);
        let object = MobileObject::cart(tag, Trajectory::Shuttle { speed_mps: 0.12, span_m: 0.35 })
            .starting_at(-0.20);
        let order = palc_optics::photometry::lambertian_order_from_half_angle(6.0);
        let lamp = PointLamp::new(Vec3::new(0.0, 0.0, 0.25), 10.0).with_order(order);
        let receiver = palc_frontend::OpticalReceiver::opt101(PdGain::G1);
        let sc = Scenario::custom(
            PassiveChannel {
                environment: Environment::dark_room(),
                source: Box::new(lamp),
                objects: vec![object],
                receiver_z_m: 0.25,
                frontend: Frontend::indoor(receiver, 0),
                resolution: Resolution { along_m: 0.004, lateral_slices: 3 },
            },
            7.0, // > one full shuttle period (2 · 0.35 / 0.12 ≈ 5.8 s)
        );
        assert_golden(&sc, 13, "shuttle_reversal");
    }

    /// Four-tier agreement on every `stride`-th tick of the scenario —
    /// the sparse variant of [`assert_golden`] for fleet scenes whose
    /// full per-tick reference would dominate the test suite.
    fn assert_tiers_agree_sparse(sc: &Scenario, stride: usize, label: &str) {
        let ch = sc.channel();
        let field = Arc::new(ch.static_field().unwrap_or_else(|| panic!("{label}: separable")));
        let mut delta = ch
            .delta_field(field.clone())
            .unwrap_or_else(|| panic!("{label}: piecewise-static scene"));
        let mut kernel = ch
            .footprint_kernel(field.clone())
            .unwrap_or_else(|| panic!("{label}: kernel-representable scene"));
        let fs = ch.frontend.sample_rate_hz();
        let n = (sc.duration_s() * fs).ceil() as usize;
        for i in (0..n).step_by(stride) {
            let t = i as f64 / fs;
            let tabled = kernel.illuminance(ch, t);
            let incremental = delta.illuminance(ch, t);
            let staged = ch.illuminance_staged(&field, t);
            let full = ch.illuminance_at(t);
            let tol = 1e-9 * full.abs().max(1.0);
            assert!(
                (tabled - incremental).abs() <= tol,
                "{label}: t={t}: kernel {tabled} vs incremental {incremental}"
            );
            assert!(
                (incremental - staged).abs() <= tol,
                "{label}: t={t}: incremental {incremental} vs staged {staged}"
            );
            assert!((staged - full).abs() <= tol, "{label}: t={t}: staged {staged} vs full {full}");
        }
    }

    #[test]
    fn parking_structure_tiers_agree() {
        // Small fleet, full event lifecycle: parked rows flanking the
        // lane, two movers entering and leaving the footprint window.
        let sc = Scenario::parking_structure(24, 2, Some(packet("10")));
        assert_tiers_agree_sparse(&sc, 37, "parking_structure");
    }

    #[test]
    fn highway_multilane_tiers_agree() {
        let sc = Scenario::highway_multilane(30, Some(packet("10")));
        assert_tiers_agree_sparse(&sc, 37, "highway_multilane");
    }

    #[test]
    fn fleet_kernel_stats_cull_park_and_intern() {
        // The 1000-object parking lot: almost everything is culled at
        // build time, the rest splits into the parked aggregate and the
        // three movers, and identical cars share interned tables.
        let sc = Scenario::parking_structure(1000, 3, Some(packet("10")));
        let sampler = sc.sampler(1);
        assert!(sampler.is_kernel(), "fleet scene must ride the kernel tier");
        let stats = sampler.kernel_stats().expect("kernel stats");
        assert_eq!(
            stats.objects_culled + stats.objects_parked + stats.objects_movers,
            1000,
            "every object classified exactly once: {stats:?}"
        );
        assert_eq!(stats.objects_movers, 3, "{stats:?}");
        assert!(stats.objects_culled > 900, "out-of-footprint parked rows culled: {stats:?}");
        assert!(stats.tables_interned > 0, "identical in-reach cars must share tables: {stats:?}");
        assert!(stats.tables_built <= 40, "a handful of distinct geometries: {stats:?}");
        assert!(stats.table_bytes > 0, "{stats:?}");

        // The highway variant: nothing is culled (every car transits the
        // footprint), so interning carries the entire dedup load —
        // hundreds of identical cars, a handful of distinct tables.
        let hw = Scenario::highway_multilane(200, Some(packet("10")));
        let stats = hw.sampler(1).kernel_stats().expect("kernel stats");
        assert_eq!(stats.objects_culled, 0, "{stats:?}");
        assert_eq!(stats.objects_movers, 200, "{stats:?}");
        assert!(
            stats.tables_interned >= 10 * stats.tables_built,
            "interning must dominate at fleet scale: {stats:?}"
        );
    }

    /// Leading edges that put a column centre of `g` at local coordinate
    /// `target` exactly (`lead - (pose.x_m + g.x(ix)) == target` in
    /// floats), one ulp either side of that lead, and the same for the
    /// three locals one ulp around `target`.
    fn leads_on(g: &FootprintGrid, pose: ReceiverPose, ix: usize, target: f64) -> Vec<f64> {
        let x = pose.x_m + g.x(ix);
        let mut leads = Vec::new();
        for local in [target.next_down(), target, target.next_up()] {
            let mut lead = local + x;
            for _ in 0..8 {
                match (lead - x).partial_cmp(&local) {
                    Some(std::cmp::Ordering::Less) => lead = lead.next_up(),
                    Some(std::cmp::Ordering::Greater) => lead = lead.next_down(),
                    _ => break,
                }
            }
            leads.extend([lead.next_down(), lead, lead.next_up()]);
        }
        leads
    }

    /// The run walk resolves every column to the piece the per-column
    /// `piece_at` reference gives it — with column centres exactly on
    /// every cut, tag edge and piece boundary, and one ulp either side —
    /// and its prefix-row sum matches the per-column reference sum.
    #[test]
    fn run_walk_matches_piece_at_on_every_column() {
        use palc_scene::car::CarSegment;
        let roof_tag = Tag::from_packet(&packet("00"), 0.10);
        let (paint, glass) = (Material::car_paint(), Material::windshield_glass());
        // A roof 0.5 nm shorter than its tag (inside the 1 nm slack the
        // car constructor allows), last on the body: the centred tag's
        // first strip straddles the windshield cut and its last strip
        // overhangs the body's end, so the (strip, windshield) piece and
        // the overhang sentinel are both reachable.
        let flush = CarModel::new(
            "flush roof",
            vec![
                CarSegment { name: "hood", length_m: 0.95, material: paint, height_m: 0.90 },
                CarSegment { name: "windshield", length_m: 0.75, material: glass, height_m: 1.15 },
                CarSegment {
                    name: "roof",
                    length_m: roof_tag.length_m() - 5e-10,
                    material: paint,
                    height_m: 1.42,
                },
            ],
        );
        let mut flush_sc =
            Scenario::outdoor_car(CarModel::volvo_v40(), None, 0.75, Sun::cloudy_noon(1));
        flush_sc.channel_mut().objects =
            vec![MobileObject::car(flush, Some(roof_tag), Trajectory::car_18kmh())];
        // Columns wider than the 3 cm strips: a seek steps over whole
        // strips, so its own comparisons decide boundary columns.
        let mut coarse = Scenario::indoor_bench(packet("10"), 0.03, 0.20);
        coarse.channel_mut().resolution.along_m = 0.045;
        let scenes = [
            ("indoor strip tag", Scenario::indoor_bench(packet("10"), 0.03, 0.20)),
            ("indoor strip tag, coarse grid", coarse),
            (
                "V40 roof tag",
                Scenario::outdoor_car(
                    CarModel::volvo_v40(),
                    Some(packet("00")),
                    0.75,
                    Sun::cloudy_noon(1),
                ),
            ),
            ("flush roof tag", flush_sc),
            (
                "BMW untagged",
                Scenario::outdoor_car(CarModel::bmw_3(), None, 0.75, Sun::cloudy_noon(2)),
            ),
        ];
        // Roof-tag heights of the straddling and sentinel pieces: the
        // windshield's and the no-segment fallback's, plus the tag lift.
        let (straddle_h, sentinel_h) = (1.15 + 0.002, 1.4 + 0.002);
        let (mut straddle_hit, mut sentinel_hit) = (false, false);
        for (label, sc) in &scenes {
            let ch = sc.channel();
            let field = Arc::new(ch.static_field().expect("separable"));
            let kernel = ch.kernel_tables(field.clone()).expect("kernel");
            let (g, pose) = (field.grid, field.pose);
            let ok = &kernel.objects[0];
            let profile = ok.profile.as_ref().expect("in reach");
            let obj = &ch.objects[0];
            let mut targets = obj.profile_breakpoints().expect("piecewise-static");
            for piece in profile.pieces() {
                targets.extend([piece.start_m, piece.end_m]);
            }
            let mut checked = 0;
            for &target in &targets {
                for ix in [g.steps / 3, g.steps / 2] {
                    for lead in leads_on(&g, pose, ix, target) {
                        let (lo, hi) =
                            column_range(&g, lead - ok.length - pose.x_m, lead - pose.x_m);
                        if lo >= hi {
                            continue;
                        }
                        let mut walked = vec![None; hi - lo];
                        let mut last_end = lo;
                        ok.for_each_run(&g, pose, lead, lo, hi, |start, end, p| {
                            assert!(last_end <= start && start < end && end <= hi, "{label}");
                            last_end = end;
                            walked[start - lo..end - lo].fill(Some(p));
                        });
                        let mut mass = 0.0;
                        for (c, got) in (lo..hi).zip(&walked) {
                            let local = lead - (pose.x_m + g.x(c));
                            let expect = if (0.0..=ok.length).contains(&local) {
                                profile.piece_at(local)
                            } else {
                                None
                            };
                            assert_eq!(
                                *got, expect,
                                "{label}: lead {lead} column {c} local {local}"
                            );
                            if let Some(p) = expect {
                                let row = ok.bin_row[ok.piece_bin[p]] * (g.steps + 1);
                                mass += (kernel.prefix[row + c + 1] - kernel.prefix[row + c]).abs();
                                let surface = profile.pieces()[p].surface;
                                straddle_hit |= surface.height_m == straddle_h;
                                sentinel_hit |= surface.height_m == sentinel_h;
                            }
                        }
                        let walk = ok.run_sum(&kernel.prefix, &g, pose, lead, lo, hi);
                        let reference = ok.table_sum(&kernel.prefix, &g, pose, lead, lo, hi);
                        assert!(
                            (walk - reference).abs() <= 1e-12 * mass.max(reference.abs()),
                            "{label}: lead {lead}: walk {walk} vs per-column {reference}"
                        );
                        checked += 1;
                    }
                }
            }
            assert!(checked > targets.len(), "{label}: too few leads placed ({checked})");
        }
        assert!(
            straddle_hit,
            "some column must resolve to the straddling (strip, windshield) piece"
        );
        assert!(sentinel_hit, "some column must resolve to the overhang sentinel piece");
    }

    #[test]
    fn kernel_event_queue_rewinds_exactly() {
        // The event cursor assumes monotone time but must survive a
        // rewind (repeated probes, reused kernels) by replaying from
        // t = 0 — pinned against the stateless staged tier.
        let sc = Scenario::parking_structure(40, 2, Some(packet("10")));
        let ch = sc.channel();
        let field = Arc::new(ch.static_field().expect("separable"));
        let mut kernel = ch.footprint_kernel(field.clone()).expect("kernel");
        let dur = sc.duration_s();
        for &t in &[0.0, 0.6 * dur, 0.9 * dur, 0.2 * dur, 0.7 * dur, 0.0] {
            let tabled = kernel.illuminance(ch, t);
            let staged = ch.illuminance_staged(&field, t);
            let tol = 1e-9 * staged.abs().max(1.0);
            assert!((tabled - staged).abs() <= tol, "t={t}: kernel {tabled} vs staged {staged}");
        }
    }

    #[test]
    fn run_batch_matches_serial_runs() {
        let sc = Scenario::indoor_bench(packet("0"), 0.03, 0.20);
        let seeds = [1u64, 2, 3, 4, 5, 6];
        let batch = sc.run_batch(&seeds);
        for (seed, trace) in seeds.iter().zip(&batch) {
            assert_eq!(trace.samples(), sc.run(*seed).samples(), "seed {seed}");
        }
    }

    #[test]
    fn sampler_reports_size_and_rate() {
        let sc = Scenario::indoor_bench(packet("0"), 0.03, 0.20);
        let sampler = sc.sampler(1);
        let fs = sampler.sample_rate_hz();
        let n = sampler.len();
        assert_eq!(n, (sc.duration_s() * fs).ceil() as usize);
        assert_eq!(sampler.count(), n);
    }

    #[test]
    fn static_field_hoists_the_footprint() {
        let sc = Scenario::indoor_bench(packet("10"), 0.03, 0.20);
        let field = sc.channel().static_field().expect("DC lamp is separable");
        assert!(field.patch_count() > 100, "indoor footprint is hundreds of patches");
        assert!(field.static_total() > 0.0);
        // Empty scene: staged value is exactly static_total × envelope.
        let mut empty = Scenario::indoor_bench(packet("10"), 0.03, 0.20);
        empty.channel_mut().objects.clear();
        let f2 = empty.channel().static_field().unwrap();
        let staged = empty.channel().illuminance_staged(&f2, 1.0);
        assert_eq!(staged, f2.static_total());
    }

    #[test]
    fn origin_pose_is_bitwise_neutral() {
        // The pose threading must not perturb a single bit of the
        // historical origin-pinned geometry: the explicit origin pose
        // and the channel's own entry points agree exactly (==).
        let sc = Scenario::outdoor_car(
            CarModel::volvo_v40(),
            Some(packet("00")),
            0.75,
            Sun::cloudy_noon(1),
        );
        let ch = sc.channel();
        let origin = ReceiverPose::origin(ch.receiver_z_m);
        assert_eq!(ch.pose(), origin);
        let field = ch.static_field().expect("separable");
        let field_at = ch.static_field_at(origin).expect("separable");
        assert_eq!(field.static_total(), field_at.static_total());
        assert_eq!(field.bg, field_at.bg);
        assert_eq!(field.dark, field_at.dark);
        let fs = ch.frontend.sample_rate_hz();
        let n = (sc.duration_s() * fs).ceil() as usize;
        for i in (0..n).step_by(97) {
            let t = i as f64 / fs;
            assert_eq!(ch.illuminance_at(t), ch.illuminance_at_pose(origin, t), "t={t}");
        }
        // And the pose-explicit sampler is the batch run, sample for
        // sample.
        let posed: Vec<f64> = ch.sampler_at_pose(sc.duration_s(), 5, origin).collect();
        assert_eq!(sc.run(5).samples(), &posed[..]);
    }

    /// Walks the run comparing all four tiers at an explicit pose.
    fn assert_pose_tiers_agree(sc: &Scenario, pose: ReceiverPose, label: &str) {
        let ch = sc.channel();
        let field =
            Arc::new(ch.static_field_at(pose).unwrap_or_else(|| panic!("{label}: separable")));
        assert_eq!(field.pose(), pose, "{label}: pose travels with the field");
        let mut delta = ch
            .delta_field(field.clone())
            .unwrap_or_else(|| panic!("{label}: piecewise-static scene"));
        let mut kernel = ch
            .footprint_kernel(field.clone())
            .unwrap_or_else(|| panic!("{label}: kernel-representable scene"));
        let fs = ch.frontend.sample_rate_hz();
        let n = (sc.duration_s() * fs).ceil() as usize;
        let mut saw_signal = false;
        for i in 0..n {
            let t = i as f64 / fs;
            let tabled = kernel.illuminance(ch, t);
            let incremental = delta.illuminance(ch, t);
            let staged = ch.illuminance_staged(&field, t);
            let full = ch.illuminance_at_pose(pose, t);
            let tol = 1e-9 * full.abs().max(1.0);
            assert!(
                (tabled - incremental).abs() <= tol,
                "{label}: t={t}: kernel {tabled} vs incremental {incremental}"
            );
            assert!(
                (incremental - staged).abs() <= tol,
                "{label}: t={t}: incremental {incremental} vs staged {staged}"
            );
            assert!((staged - full).abs() <= tol, "{label}: t={t}: staged {staged} vs full {full}");
            if full > 1.02 * field.static_total() {
                saw_signal = true;
            }
        }
        assert!(saw_signal, "{label}: the pass must modulate the offset receiver too");
    }

    #[test]
    fn offset_pose_three_tiers_agree_outdoor() {
        // A receiver displaced along and across the track still sees the
        // car pass (uniform overcast sky), and all three integrator
        // tiers agree at that pose — the pin for the pose threading of
        // spans, column ranges, swept bands, and the mirror geometry.
        let sc = Scenario::outdoor_car(
            CarModel::volvo_v40(),
            Some(packet("00")),
            0.75,
            Sun::cloudy_noon(2),
        );
        let z = sc.channel().receiver_z_m;
        assert_pose_tiers_agree(&sc, ReceiverPose::new(1.3, 0.4, z), "offset outdoor");
    }

    #[test]
    fn offset_pose_three_tiers_agree_ceiling() {
        // A ceiling-panel office with the receiver displaced from the
        // panel axis: the lateral falloff makes the background genuinely
        // pose-dependent, and the specular mirror geometry (panel has a
        // direction) is exercised off-axis.
        let sc = Scenario::ceiling_office(packet("10"), 0.03, 500.0);
        let z = sc.channel().receiver_z_m;
        assert_pose_tiers_agree(&sc, ReceiverPose::new(-0.28, 0.07, z), "offset ceiling");
    }

    #[test]
    fn offset_pose_sees_the_pass_later() {
        // Staggered poses are the whole point of the array layer: a
        // receiver further along the track must see the modulation peak
        // later than one at the origin.
        let sc = Scenario::outdoor_car(
            CarModel::volvo_v40(),
            Some(packet("00")),
            0.75,
            Sun::cloudy_noon(3),
        );
        let ch = sc.channel();
        let z = ch.receiver_z_m;
        let extra = 1.5 / 5.0; // 1.5 m stagger at 5 m/s
        let peak_time = |pose: ReceiverPose| {
            let field = ch.static_field_at(pose).expect("separable");
            let fs = ch.frontend.sample_rate_hz();
            let n = ((sc.duration_s() + extra) * fs).ceil() as usize;
            let mut best = (0.0, f64::MIN);
            for i in 0..n {
                let t = i as f64 / fs;
                let v = ch.illuminance_staged(&field, t);
                if v > best.1 {
                    best = (t, v);
                }
            }
            best.0
        };
        let t0 = peak_time(ReceiverPose::origin(z));
        let t1 = peak_time(ReceiverPose::new(1.5, 0.0, z));
        assert!(
            t1 > t0 + 0.15,
            "downstream receiver must peak later: origin {t0:.3}s vs offset {t1:.3}s"
        );
    }

    #[test]
    fn fog_attenuates_the_outdoor_signal() {
        use palc_scene::Fog;
        let clear = Scenario::outdoor_car(CarModel::bmw_3(), None, 0.75, Sun::cloudy_noon(2));
        let foggy = Scenario::outdoor_car(CarModel::bmw_3(), None, 0.75, Sun::cloudy_noon(2))
            .with_environment(Environment::parking_lot().with_fog(Fog::with_visibility(20.0)));
        // Compare only the reflected (modulated) component: the stray
        // pedestal is unaffected by ground-path fog in this model.
        let span = |t: &Trace| {
            let (lo, hi) = t.minmax();
            hi - lo
        };
        assert!(span(&foggy.run_clean()) < span(&clear.run_clean()));
    }

    fn bits(samples: impl Iterator<Item = f64>) -> Vec<u64> {
        samples.map(f64::to_bits).collect()
    }

    fn tables_of(sampler: &ChannelSampler<'_>) -> Arc<KernelTables> {
        sampler.kernel.as_ref().expect("kernel tier").tables.clone()
    }

    #[test]
    fn cached_samplers_match_fresh_builds_byte_for_byte() {
        let sc = Scenario::indoor_bench(packet("10"), 0.03, 0.20);
        let z = sc.channel().receiver_z_m;
        let d = sc.duration_s();
        for pose in [
            ReceiverPose::origin(z),
            ReceiverPose::new(0.03, 0.0, z),
            ReceiverPose::new(-0.02, 0.01, z),
        ] {
            let fresh = bits(sc.channel().sampler_at_pose(d, 4, pose));
            // The first call builds the entry, the second reuses it.
            let first = sc.pose_sampler(pose, d, 4);
            let again = sc.pose_sampler(pose, d, 4);
            assert!(Arc::ptr_eq(&tables_of(&first), &tables_of(&again)), "{pose:?}: rebuilt");
            assert_eq!(bits(first), fresh, "{pose:?}: first cached run");
            assert_eq!(bits(again), fresh, "{pose:?}: repeated cached run");
        }
        // The scenario's own entry points ride the origin entry.
        let origin = bits(sc.channel().sampler(d, 9));
        assert_eq!(bits(sc.sampler(9)), origin);
        assert_eq!(bits(sc.run(9).samples().iter().copied()), origin);
        assert_eq!(bits(sc.run_batch(&[9])[0].samples().iter().copied()), origin);
        let clean: Vec<f64> = {
            let ch = sc.channel();
            let mut k = ch.footprint_kernel(Arc::new(ch.static_field().expect("separable")));
            let k = k.as_mut().expect("kernel tier");
            let fs = ch.frontend.sample_rate_hz();
            (0..(d * fs).ceil() as usize).map(|i| k.illuminance(ch, i as f64 / fs)).collect()
        };
        assert_eq!(bits(sc.run_clean().samples().iter().copied()), bits(clean.into_iter()));
    }

    #[test]
    fn channel_mut_drops_every_cached_pose_build() {
        use palc_scene::Fog;
        let z = 0.20;
        let offset = ReceiverPose::new(0.03, 0.0, z);
        let foggy = || Environment::dark_room().with_fog(Fog::with_visibility(0.5));
        let mut sc = Scenario::indoor_bench(packet("10"), 0.03, z);
        let d = sc.duration_s();
        // Warm both entries, then change the scene under them.
        let before = bits(sc.run(3).samples().iter().copied());
        let _ = sc.pose_sampler(offset, d, 3).count();
        sc.channel_mut().environment = foggy();
        // The reference takes the same gain and the same change before
        // any run, so nothing it reuses predates the change.
        let mut fresh = Scenario::indoor_bench(packet("10"), 0.03, z);
        fresh.channel_mut().environment = foggy();
        let after = bits(sc.run(3).samples().iter().copied());
        assert_ne!(after, before, "fog must change the trace, or this test proves nothing");
        assert_eq!(after, bits(fresh.run(3).samples().iter().copied()));
        assert_eq!(
            bits(sc.pose_sampler(offset, d, 3)),
            bits(fresh.channel().sampler_at_pose(d, 3, offset))
        );
    }

    #[test]
    fn pose_cache_evicts_the_oldest_entry_at_its_bound() {
        let sc = Scenario::indoor_bench(packet("10"), 0.03, 0.20);
        let z = sc.channel().receiver_z_m;
        // The origin entry calibration made is the oldest.
        let origin = ReceiverPose::origin(z);
        let poses: Vec<ReceiverPose> =
            (1..POSE_CACHE_POSES).map(|i| ReceiverPose::new(0.001 * i as f64, 0.0, z)).collect();
        for &pose in &poses {
            let _ = sc.pose_sampler(pose, 0.01, 0).count();
        }
        let slots = || sc.poses.lock().unwrap_or_else(PoisonError::into_inner).slots.clone();
        let held = |pose: ReceiverPose| {
            slots().contains_key(&[pose.x_m.to_bits(), pose.y_m.to_bits(), pose.z_m.to_bits()])
        };
        assert_eq!(slots().len(), POSE_CACHE_POSES);
        assert!(held(origin));
        // One pose past the bound evicts the origin, and only it.
        let extra = ReceiverPose::new(0.5, 0.0, z);
        let _ = sc.pose_sampler(extra, 0.01, 0).count();
        assert_eq!(slots().len(), POSE_CACHE_POSES);
        assert!(!held(origin), "oldest entry must go first");
        assert!(held(extra) && poses.iter().all(|&p| held(p)));
        // An evicted pose just builds again, with the same result.
        let d = sc.duration_s();
        assert_eq!(bits(sc.sampler(5)), bits(sc.channel().sampler_at_pose(d, 5, origin)));
        assert!(!held(poses[0]), "rebuilding the origin evicts the next oldest");
    }

    #[test]
    fn concurrent_runs_at_one_pose_share_one_build() {
        use std::sync::Barrier;
        let sc = Scenario::indoor_bench(packet("10"), 0.03, 0.20);
        let z = sc.channel().receiver_z_m;
        let pose = ReceiverPose::new(0.03, 0.0, z);
        let d = sc.shard_duration_for(pose);
        // Both workers ask for the same, not yet built, entry at once.
        let barrier = Barrier::new(2);
        let runs = SweepRunner::with_threads(2).map(&[1u64, 2], |&seed| {
            barrier.wait();
            let sampler = sc.pose_sampler(pose, d, seed);
            (tables_of(&sampler), bits(sampler))
        });
        assert!(Arc::ptr_eq(&runs[0].0, &runs[1].0), "one build per pose");
        for (seed, (_, got)) in [1u64, 2].into_iter().zip(&runs) {
            assert_eq!(*got, bits(sc.channel().sampler_at_pose(d, seed, pose)), "seed {seed}");
        }
    }
}
