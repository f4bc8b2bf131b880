//! # mpiio-sim — the MPI-IO middleware layer
//!
//! The MPICH2 substitute: MHA lives at the I/O middleware layer (§III-B),
//! so this crate provides the pieces the paper modifies in MPICH2:
//!
//! * [`job`] — an `MPI_File`-shaped programmatic API: a job with a world
//!   size, `open`/`read_at`/`write_at`/`barrier`, building the I/O stream
//!   an application would issue (each barrier closes one I/O phase),
//! * [`hints`] — `MPI_Info`-style key/value hints selecting the layout
//!   scheme and its knobs,
//! * [`middleware`] — the five-phase lifecycle: the first run profiles
//!   through the IOSIG-like collector (`MPI_Init` arms it,
//!   `MPI_Finalize` flushes), planning runs off-line, the DRT/RST persist
//!   through kvstore, and subsequent runs redirect through the DRT.

pub mod collective;
pub mod hints;
pub mod job;
pub mod middleware;

pub use collective::{CollectiveConfig, Piece};
pub use hints::Hints;
pub use job::MpiJob;
pub use middleware::Middleware;
