//! # pgc-graph
//!
//! Graph substrate for the SC'20 graph-coloring reproduction:
//!
//! * [`view`] — the representation-generic [`GraphView`] trait every
//!   algorithm crate is written against, plus the [`GraphMemory`]
//!   footprint record,
//! * [`compact`] — [`CompactCsr`], the default representation: the paper's
//!   CSR (§II-A) with `u32` offsets whenever `2m < u32::MAX` (half the
//!   offset memory of machine-word offsets) and a transparent wide
//!   fallback,
//! * [`induced`] — [`InducedView`], a zero-copy induced-subgraph view
//!   (vertex mask + remap) over any other view,
//! * [`stream`] — the [`EdgeSource`] trait (re-playable chunked arc
//!   streams) and the two-pass parallel builder that constructs a
//!   [`CompactCsr`] without materializing an arc list,
//! * [`builder`] — [`EdgeListBuilder`], the buffered edge-list front end
//!   (dedup, de-loop, symmetrize), now the trivial buffered [`EdgeSource`]
//!   over the same two-pass engine,
//! * [`gen`] — seeded synthetic generators standing in for the paper's
//!   SNAP/KONECT/WebGraph datasets (Table V) and the Kronecker weak-scaling
//!   workloads (§VI-F); see DESIGN.md §5 for the substitution argument,
//! * [`io`] — plain edge-list and DIMACS `.col` readers/writers so real
//!   datasets can be used when available,
//! * [`snapshot`] — the versioned, checksummed binary snapshot format
//!   (arrays verbatim behind a 64-byte header) with buffered and
//!   mmap-backed zero-copy loaders ([`MappedSnapshot`]); the text readers
//!   sniff its magic so snapshots transparently take the fast path,
//! * [`compressed`] — [`CompressedCsr`], delta-varint block-encoded
//!   adjacencies in one contiguous byte arena (≥2× fewer neighbor bytes
//!   on the generator families) behind the same [`GraphView`] contract,
//! * [`degeneracy`](mod@degeneracy) — exact degeneracy, coreness, and the smallest-degree-
//!   last (SL) removal order via linear-time bucket peeling (Matula–Beck),
//!   the ground truth against which ADG's approximation is validated.

#![warn(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

pub mod builder;
pub mod compact;
pub mod compressed;
mod csr;
pub mod degeneracy;
pub mod gen;
pub mod induced;
pub mod io;
pub mod snapshot;
pub mod stream;
pub mod transform;
pub mod view;

pub use builder::EdgeListBuilder;
pub use compact::{CompactCsr, Offsets};
pub use compressed::CompressedCsr;
pub use degeneracy::{degeneracy, DegeneracyInfo};
pub use induced::InducedView;
pub use snapshot::{
    inspect_snapshot, load_compressed_snapshot, load_snapshot, write_compressed_snapshot,
    write_snapshot, MappedSnapshot, SnapshotInfo,
};
pub use stream::{BuildStats, EdgeSink, EdgeSource};
pub use view::{prefetch_read, GraphMemory, GraphView};
