//! perf: the repository's benchmark. README.md has the glossary, the
//! interaction table and the reasons behind the method.

pub mod alloc;
pub mod cli;
pub mod env;
pub mod json;
pub mod ladder;
pub mod run;
pub mod spec;
pub mod stats;
pub mod traced;
pub mod workloads;

pub use cli::main;
