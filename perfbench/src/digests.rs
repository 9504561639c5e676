//! Stored output digests (`digests.json`), compiled into the binary.
//!
//! `sweep_figures` is the SHA-256 of the seed-independent figure section
//! of the sweep payload; `sweep` and `fleet_verdict` map workload seeds
//! to the SHA-256 of the whole payload and of the verdict document. A
//! seed without a stored entry is still checked for repeat identity and,
//! in traced runs, against the independent replay.

use sdnav_json::Json;

const STORED: &str = include_str!("../digests.json");

fn doc() -> Json {
    Json::parse(STORED).expect("digests.json is valid JSON")
}

/// Digest of the sweep's figure section.
#[must_use]
pub fn sweep_figures() -> String {
    doc()
        .get("sweep_figures")
        .and_then(|v| v.as_str().ok())
        .expect("digests.json has sweep_figures")
        .to_owned()
}

/// The stored digest of `workload`'s output for `seed`, if any.
#[must_use]
pub fn stored(workload: &str, seed: u64) -> Option<String> {
    doc()
        .get(workload)?
        .get(&seed.to_string())?
        .as_str()
        .ok()
        .map(str::to_owned)
}
