//! # cosmo-nav
//!
//! Search navigation (§4.3): the customer-focused, multi-layered
//! navigation system of Figures 8 & 9 — broad-conception interpretation
//! via the KG intent hierarchy's links (text, support and products are
//! read from the graph itself), product discovery per intent, and
//! attribute-based refinement — plus the simulated-user A/B harness that
//! reproduces the shape of the paper's online experiment (+0.7% sales,
//! +8% navigation engagement on ~10% of traffic).

#![forbid(unsafe_code)]

pub mod abtest;
pub mod engine;

pub use abtest::{run_abtest, AbTestConfig, AbTestReport};
pub use engine::{NavSession, NavigationEngine, Suggestion};
