//! `exp` — every experiment of the repository behind one program:
//! `exp list`, `exp <name> [arguments]`, `exp all [--quick]`,
//! `exp json [trials] [seed]`. The tables, the grammar and the dispatch are
//! [`rbvc_bench::cli`].

fn main() {
    rbvc_bench::cli::main();
}
