//! Ambient host state read in sim-critical code: environment variables
//! and thread identity differ between shells, runs and pool sizes.

pub fn footprint() -> Option<String> {
    std::env::var("HOPP_FOOTPRINT").ok()
}

pub fn ratio() -> Option<std::ffi::OsString> {
    std::env::var_os("HOPP_RATIO")
}

pub fn settings() -> usize {
    std::env::vars().count()
}

pub fn raw_settings() -> usize {
    std::env::vars_os().count()
}

pub fn worker() -> Option<String> {
    std::thread::current().name().map(str::to_string)
}
