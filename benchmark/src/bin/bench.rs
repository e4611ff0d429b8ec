//! The timed binary: end-to-end metrics, no instrumentation. It is
//! instantiated with `NoProbe` only, installs no allocator and never turns
//! kernel timing on.

use rbvc_benchmark::probe::NoProbe;
use rbvc_benchmark::{cli, compare, run};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&args[1..]));
    }
    let args = match cli::parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    if args.trace {
        eprintln!("--trace 1 is the traced binary's job: run rbvc-bench-traced (benchmark/run.sh picks it)");
        std::process::exit(2);
    }
    std::process::exit(cli::run(&args, false, |w, options| {
        run::timed(w, options, &NoProbe)
    }));
}
