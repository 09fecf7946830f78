//! ... but a binary root is a crate root of its own and lacks it.

fn main() {}
