//! The lab pool: the one reasoned home for threads.

pub fn run_indexed() {
    #[expect(clippy::disallowed_methods, reason = "the lab pool aggregates in grid order")]
    std::thread::scope(|_s| {});
}
