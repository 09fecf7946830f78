//! A default-hasher map and an `unwrap` in sim-critical code; the same
//! forms in test code pass.

use std::collections::HashMap;

/// Iterates in a per-process random order.
pub type Tally = HashMap<u64, u64>;

/// Panics on an empty slice instead of returning a typed error.
pub fn head(xs: &[u64]) -> u64 {
    *xs.first().unwrap()
}

#[cfg(test)]
#[allow(clippy::disallowed_types, reason = "test code is exempt from the determinism bans")]
mod tests {
    use super::*;

    #[test]
    fn test_code_is_exempt() {
        let mut m: Tally = HashMap::new();
        m.insert(1, head(&[1]));
        assert_eq!(m.get(&1).copied().unwrap(), 1);
    }
}
