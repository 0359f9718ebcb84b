//! The end-to-end benchmark: system allocator, tracing off.

fn main() {
    perf::main(false)
}
