//! The traced benchmark: counting allocator, counters and nettrace on.
//! The only source of per-layer numbers; never of end-to-end ones.

#[global_allocator]
static ALLOC: perf::alloc::Counting = perf::alloc::Counting;

fn main() {
    perf::main(true)
}
