//! Every `unsafe` block carries an adjacent `// SAFETY:` comment.
#![allow(unsafe_code, reason = "the unsafe audit needs unsafe code")]

pub fn read_ok() -> u8 {
    let x = 7u8;
    let p: *const u8 = &x;
    // SAFETY: `p` points at a live local.
    unsafe { *p }
}

pub fn read_bad() -> u8 {
    let x = 7u8;
    let p: *const u8 = &x;
    unsafe { *p }
}
