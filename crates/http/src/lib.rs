//! cosmo-http: the std-only HTTP/1.1 network front end for the COSMO
//! serving system (the paper's Figure 5 "online serving" edge, made a
//! real network service).
//!
//! Four routes, all speaking the typed wire protocol from
//! [`cosmo_serving::protocol`]:
//!
//! | route                      | body in            | body out            |
//! |----------------------------|--------------------|---------------------|
//! | `POST /v1/serve-intents`   | `ServeRequest`     | `ServeResponse`     |
//! | `POST /v1/navigate`        | `NavigateRequest`  | `NavigateResponse`  |
//! | `POST /ops/reload`         | `ReloadRequest`    | `ReloadResponse`    |
//! | `GET /v1/snapshot-version` | —                  | `SnapshotVersion`   |
//! | `GET /ops/stats`           | —                  | `OpsStats`          |
//!
//! Design invariants:
//!
//! - **Byte identity.** The `200`/`503` body for `/v1/serve-intents` is
//!   exactly `ServingSystem::handle(&req).to_json()` — the network layer
//!   adds headers, never rewrites the answer. The integration suite
//!   proves this request-by-request.
//! - **Bounded everything.** Header section, body size, connection queue
//!   depth, and keep-alive request count all have hard caps; overload is
//!   answered (`503` + `Retry-After`, or a deliberate shed under
//!   `DropOldest`), never buffered unboundedly.
//! - **No new dependencies.** `std::net` + the existing workspace crates;
//!   the accept/worker jobs run on [`cosmo_exec::WorkerPool`].

#![forbid(unsafe_code)]

pub mod client;
pub mod loadgen;
pub mod server;
pub mod wire;

pub use client::{ClientResponse, HttpClient};
pub use loadgen::{run_load, LoadConfig, LoadReport};
pub use server::{HttpServer, HttpStats, Router, ServerConfig, ServerHandle};
pub use wire::{read_request, write_response, ReadError, Request, Response, Status};
