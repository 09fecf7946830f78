//! The waiver form: a reasoned `#[expect]` silences its one finding, a
//! stale one is itself a finding, and so is an `allow` with no reason.

pub fn first(xs: &[u64]) -> u64 {
    #[expect(clippy::expect_used, reason = "callers pass non-empty slices")]
    let x = *xs.first().expect("non-empty");
    x + 1
}

#[expect(clippy::expect_used, reason = "nothing below panics any more")]
pub fn len(xs: &[u64]) -> usize {
    xs.len()
}

#[allow(clippy::unwrap_used)]
pub fn last(xs: &[u64]) -> u64 {
    *xs.last().unwrap()
}
