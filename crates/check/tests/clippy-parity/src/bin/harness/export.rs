//! Harness code may build default-hasher maps, but may not iterate
//! them: hash order varies per process, and artifact bytes must not.

use std::collections::{BTreeMap, HashMap};

pub fn render(index: &HashMap<u64, u64>, sorted: &BTreeMap<u64, u64>) -> String {
    let mut out = String::new();
    for (k, v) in index {
        out.push_str(&format!("{k} {v}\n"));
    }
    for (k, v) in index {
        let local = k + v;
        let _ = local;
    }
    for k in index.keys() {
        out.push_str(&k.to_string());
    }
    for (k, v) in sorted {
        out.push_str(&format!("{k} {v}\n"));
    }
    out
}
