//! The traced binary: per-layer metrics. The same drivers as the timed
//! binary, instantiated with the tracer; this is the only binary with the
//! counting allocator, and the only one that turns kernel timing on.

use rbvc_benchmark::alloc::CountingAlloc;
use rbvc_benchmark::{cli, ledger};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    if !args.trace {
        eprintln!(
            "--trace 0 is the timed binary's job: run rbvc-bench (benchmark/run.sh picks it)"
        );
        std::process::exit(2);
    }
    std::process::exit(cli::run(&args, true, ledger::traced));
}
