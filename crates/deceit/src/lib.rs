//! Deceit: a flexible distributed file system.
//!
//! This is the facade crate of the Deceit reproduction — a full
//! reimplementation of the system described in *Deceit: A Flexible
//! Distributed File System* (Siegel, Birman, Marzullo; Cornell TR 89-1042
//! / USENIX 1990). It re-exports the whole stack:
//!
//! | Layer | Crate | Paper section |
//! |---|---|---|
//! | live concurrent cluster runtime | [`runtime`] | §6 (the SunOS deployment) |
//! | client agents | [`agent`] | §5.3 |
//! | NFS file-service envelope, cells | [`nfs`] | §2, §5.2 |
//! | segment server (replication, tokens, stability, versions) | [`core`] | §3, §4, §5.1 |
//! | ISIS substrate (groups, broadcasts, failure detection) | [`isis`] | §2.4 |
//! | non-volatile storage | [`storage`] | §3.5 |
//! | simulated network + live threaded transport | [`net`] | §2.3 |
//! | deterministic simulation kernel | [`sim`] | — |
//!
//! # Quick start
//!
//! ```
//! use deceit::prelude::*;
//!
//! // A cell of three interchangeable Deceit servers.
//! let mut fs = DeceitFs::with_defaults(3);
//! let root = fs.root();
//! let via = NodeId(0);
//!
//! // Plain NFS usage.
//! let file = fs.create(via, root, "notes.txt", 0o644).unwrap().value;
//! fs.write(via, file.handle, 0, b"survives anything").unwrap();
//!
//! // The Deceit difference: per-file semantics. Keep three replicas.
//! fs.set_file_params(via, file.handle, FileParams::important(3)).unwrap();
//! fs.cluster.run_until_quiet();
//!
//! // Any server can serve it — even after the one we used crashes.
//! fs.cluster.crash_server(via);
//! let data = fs.read(NodeId(1), file.handle, 0, 64).unwrap().value;
//! assert_eq!(&data[..], b"survives anything");
//! ```
//!
//! The same stack also runs **live**: [`runtime`] hosts every server on
//! its own OS thread over the threaded bus, with concurrent client
//! sessions. Both worlds sit behind one `World` trait — a request from
//! a session to a server, a `FaultEvent` (crash, restart, split, heal,
//! settle) for the cell — so one `Scenario` script runs in `SimWorld`
//! and `LiveWorld` alike, and differential tests pin the live behavior
//! to the simulator's.
//!
//! ```
//! use deceit::prelude::*;
//!
//! let rt = ClusterRuntime::start(RuntimeConfig::new(3));
//! let mut client = rt.client();
//! let root = client.root();
//! let file = client.create(root, "notes.txt", 0o644).unwrap();
//! client.set_file_params(file.handle, FileParams::important(3)).unwrap();
//! client.write(file.handle, 0, b"served by a real thread").unwrap();
//! rt.settle();
//!
//! // One entry for every fault: crash, restart, split, heal, settle.
//! rt.fault(&FaultEvent::Crash { server: 0 });
//! assert_eq!(&client.read(file.handle, 0, 64).unwrap()[..], b"served by a real thread");
//! rt.shutdown();
//! ```

pub use deceit_agent as agent;
pub use deceit_core as core;
pub use deceit_isis as isis;
pub use deceit_net as net;
pub use deceit_nfs as nfs;
pub use deceit_runtime as runtime;
pub use deceit_sim as sim;
pub use deceit_storage as storage;

/// The names most programs need.
pub mod prelude {
    pub use deceit_agent::{Agent, AgentConfig, AgentPlacement};
    pub use deceit_core::{
        Cluster, ClusterConfig, DeceitError, FaultEvent, FileParams, OpResult, ProtocolHost,
        SegmentId, Stat, VersionPair, WriteAvailability, WriteOp,
    };
    pub use deceit_net::{LatencyModel, NodeId};
    pub use deceit_nfs::{
        CellId, DeceitFs, Federation, FileAttr, FileHandle, FileType, FsConfig, NfsError, NfsReply,
        NfsRequest, NfsServer, NfsService,
    };
    pub use deceit_runtime::{
        ClusterRuntime, LiveWorld, RuntimeClient, RuntimeConfig, RuntimeError, Scenario,
        ScenarioStep, SimWorld, World, WriteBatch,
    };
    pub use deceit_sim::{SimDuration, SimTime};
}
