//! Structured observability export: run a short live workload, print
//! the cluster's unified [`deceit::runtime::ObsReport`] as JSON.
//!
//! Where `benchmark/` measures *how fast*, this reports *where
//! the time went*: per-op-class latency histograms, the engine's
//! lock-level telemetry (cell-lock waits, ring-lock holds, per-slot
//! sharded-vs-fallback counts), the protocol core's serve/drain
//! histograms and flight-recorder totals, and the pump's idle/busy
//! transitions — everything the always-on observability layer records,
//! in one JSON object.
//!
//! Run with: `cargo run --release --bin obs_report [out.json]`
//!
//! With an argument the JSON is also written to that path (what CI
//! uploads as an artifact); it always goes to stdout.

use std::thread;

use deceit::prelude::*;

/// Client sessions driving the sampled traffic.
const CLIENTS: usize = 4;

/// Operations per client: enough traffic to populate every histogram
/// (shared reads, sharded writes, the pump, lease grants/revocations)
/// without turning the export into a benchmark run.
const OPS_PER_CLIENT: usize = 100;

fn main() {
    let rt = ClusterRuntime::start(RuntimeConfig::new(3));
    let root = rt.client().root();

    // A mixed write/read load per client file plus a shared hot file:
    // together they exercise the shared read path, the sharded mutation
    // path, cross-client contention on one slot, and the write
    // pipeline's drain batching.
    let mut sessions: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let mut client = rt.client();
            let attr = client.create(root, &format!("obs_{c}"), 0o644).expect("create");
            client.write(attr.handle, 0, b"warmup").expect("warmup");
            (client, attr.handle)
        })
        .collect();
    let hot = {
        let mut client = rt.client();
        let attr = client.create(root, "obs_hot", 0o644).expect("create hot");
        client.set_file_params(attr.handle, FileParams::important(3)).expect("params");
        client.write(attr.handle, 0, b"warmup").expect("warmup hot");
        attr.handle
    };
    rt.settle();

    let workers: Vec<_> = sessions
        .drain(..)
        .enumerate()
        .map(|(c, (mut client, fh))| {
            thread::spawn(move || {
                let payload = format!("obs_report client {c}: 48 bytes of traffic .....");
                for i in 0..OPS_PER_CLIENT {
                    match i % 4 {
                        0 => drop(client.write(fh, 0, payload.as_bytes()).expect("write")),
                        1 | 2 => drop(client.read(fh, 0, 128).expect("read")),
                        _ => drop(client.read(hot, 0, 128).expect("hot read")),
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("obs client");
    }
    rt.settle();

    let json = rt.observe().to_json();
    rt.shutdown();

    println!("{json}");
    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, format!("{json}\n")).expect("write obs report");
        eprintln!("obs_report: wrote {path}");
    }
}
