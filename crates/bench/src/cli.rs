//! The `exp` program: one name space over the paper experiments
//! ([`EXPERIMENTS`]) and the systems campaigns ([`SCENARIOS`]), one
//! argument grammar ([`parse_args`]) and one exit-code contract — 2 with a
//! usage line for a command line the grammar rejects, 1 with `FAIL: …` lines
//! for a failed gate, 0 otherwise.
//!
//! `exp all` and `exp json` are loops over [`EXPERIMENTS`]: what the suite
//! runs and what the document holds is declared in each row, so adding an
//! experiment is adding a row.

use serde_json::{json, Value};

use crate::campaign::{
    self, failures, fields, parse_args, usage, Args, Gate, Kind, Positional, Scenario, SCENARIOS,
};
use crate::experiments::{Experiment, EXPERIMENTS};
use crate::report::render_table;

/// What the first word of the command line selects.
#[derive(Clone, Copy)]
pub enum Command {
    /// `exp list`: print the index.
    List,
    /// `exp all [--quick]`: the paper suite at EXPERIMENTS.md scale.
    All,
    /// `exp json [trials] [seed]`: the paper suite as one JSON document.
    Json,
    /// A row of [`EXPERIMENTS`].
    Experiment(&'static Experiment),
    /// A row of [`SCENARIOS`].
    Scenario(&'static Scenario),
}

impl Command {
    /// The three reserved words, then every entry in index order.
    fn every() -> impl Iterator<Item = Command> {
        [Command::List, Command::All, Command::Json]
            .into_iter()
            .chain(EXPERIMENTS.into_iter().map(Command::Experiment))
            .chain(SCENARIOS.into_iter().map(Command::Scenario))
    }

    /// `[name, ids, what it regenerates]`.
    fn describe(self) -> [&'static str; 3] {
        match self {
            Command::List => ["list", "—", "this index"],
            Command::All => ["all", "E1–E14", "every paper experiment, in order"],
            Command::Json => ["json", "E1–E14", "their typed rows as one document"],
            Command::Experiment(e) => [e.name, e.ids, e.artefact],
            Command::Scenario(sc) => [sc.name, sc.id, sc.title],
        }
    }

    /// The first word that selects it.
    fn name(self) -> &'static str {
        self.describe()[0]
    }

    /// The positionals and flags the command accepts.
    fn grammar(self) -> (&'static [Positional], Vec<&'static str>) {
        const DOCUMENT_SCALE: [Positional; 2] =
            [("trials", Kind::Int, "25"), ("seed", Kind::Int, "2024")];
        match self {
            Command::List => (&[], Vec::new()),
            Command::All => (&[], vec!["--quick"]),
            Command::Json => (&DOCUMENT_SCALE, Vec::new()),
            Command::Experiment(e) => (e.positionals, e.flags.to_vec()),
            Command::Scenario(sc) => (&[], sc.all_flags()),
        }
    }
}

/// The index `exp list` prints: the three reserved words, then every
/// entry, each with its experiment ids, what it regenerates and the
/// arguments it takes.
#[must_use]
pub fn index() -> String {
    let rows: Vec<Vec<String>> = Command::every()
        .map(|c| {
            let (positionals, flags) = c.grammar();
            let mut row = c.describe().map(String::from).to_vec();
            row.push(usage(positionals, &flags));
            row
        })
        .collect();
    render_table("exp <name> [arguments]", &["name", "id", "regenerates", "arguments"], &rows)
}

/// Resolve the first word against the tables and parse the rest against
/// that entry's grammar.
///
/// # Errors
/// What to print before exiting 2: the index for a missing or unknown
/// name, else the parser's message and the entry's usage line.
pub fn parse<S: AsRef<str>>(argv: &[S]) -> Result<(Command, Args), String> {
    let Some((name, rest)) = argv.split_first() else {
        return Err(index());
    };
    let name = name.as_ref();
    let command = Command::every()
        .find(|c| c.name() == name)
        .ok_or_else(|| format!("unknown experiment {name:?}\n{}", index()))?;
    let (positionals, flags) = command.grammar();
    let args = parse_args(positionals, &flags, rest)
        .map_err(|e| format!("{e}\nusage: exp {name} {}", usage(positionals, &flags)))?;
    Ok((command, args))
}

/// What `exp all` runs: every row of [`EXPERIMENTS`] that declares suite
/// arguments, with the full-scale or the `--quick` ones.
#[must_use]
pub fn suite(quick: bool) -> Vec<(&'static Experiment, &'static [&'static str])> {
    EXPERIMENTS
        .iter()
        .filter_map(|e| e.suite.map(|(full, reduced)| (*e, if quick { reduced } else { full })))
        .collect()
}

fn all(quick: bool) -> Vec<Gate> {
    let mut gates = Vec::new();
    for (e, words) in suite(quick) {
        println!("\n################ exp {} {} ################", e.name, words.join(" "));
        let args = parse_args(e.positionals, e.flags, words).expect("suite arguments parse");
        gates.extend((e.run)(&args));
    }
    println!("\nAll experiments completed.");
    gates
}

/// The `exp json` document: the shared head, then every row's keys in
/// table order.
#[must_use]
pub fn json_document(trials: usize, seed: u64) -> Value {
    let mut doc = fields(json!({
        "paper": "Relaxed Byzantine Vector Consensus (Xiang & Vaidya, SPAA 2016 / arXiv:1601.08067)",
        "trials": trials,
        "seed": seed,
    }));
    for rows in EXPERIMENTS.iter().filter_map(|e| e.json) {
        doc.extend(fields(rows(trials, seed)));
    }
    Value::Object(doc)
}

/// The program: parse, run, turn the gates into the exit code.
pub fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, args) = parse(&argv).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let gates = match command {
        Command::List => {
            print!("{}", index());
            Vec::new()
        }
        Command::All => all(args.quick),
        Command::Json => {
            let doc = json_document(args.num(0), args.num(1));
            println!("{}", serde_json::to_string_pretty(&doc).expect("valid JSON"));
            Vec::new()
        }
        Command::Experiment(e) => (e.run)(&args),
        Command::Scenario(sc) => campaign::main(sc, &args),
    };
    if failures(&gates) > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn names_are_unique_across_both_tables_and_the_reserved_words() {
        let names: Vec<&str> = Command::every().map(Command::name).collect();
        assert_eq!(names.len(), 3 + EXPERIMENTS.len() + SCENARIOS.len());
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len(), "{names:?}");
        assert_eq!(index().lines().count(), 3 + names.len(), "title, header, rule, one line each");
    }

    /// No arguments is a valid command line for every entry, and it yields
    /// the declared defaults.
    #[test]
    fn every_rows_defaults_parse() {
        for c in Command::every() {
            let (positionals, _) = c.grammar();
            let words = [c.name()];
            let (_, args) = parse(&words).unwrap_or_else(|e| panic!("{words:?}: {e}"));
            assert_eq!(args.given, 0);
            for ((_, kind, default), value) in positionals.iter().zip(&args.pos) {
                assert_eq!(value, default);
                assert!(*kind != Kind::Int || value.parse::<u64>().is_ok(), "{words:?}");
                assert!(*kind != Kind::Real || value.parse::<f64>().is_ok(), "{words:?}");
            }
        }
    }

    #[test]
    fn grammar_rejects_bad_input_and_ignores_flag_order() {
        for bad in [
            &["lemmas", "2oo"][..],
            &["thm3", "6", "7"],
            &["nope"],
            &["byzantine", "--runs"],
            &["byzantine", "--runs", "many"],
            &["recovery"],
            &["chaos", "--seed", "3"],
            &["all", "3"],
            &["obs"],
            &["trajectory"],
            &[],
        ] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
        let (_, first) = parse(&["table1", "--p-sweep", "3", "7"]).expect("flag first");
        let (_, last) = parse(&["table1", "3", "7", "--p-sweep"]).expect("flag last");
        assert_eq!(first, last);
        assert_eq!((first.num::<usize>(0), first.num::<u64>(1), first.p_sweep), (3, 7, true));
    }

    #[test]
    fn quick_suite_is_the_eleven_rows_in_order_with_their_arguments() {
        let quick: Vec<(&str, String)> =
            suite(true).into_iter().map(|(e, words)| (e.name, words.join(" "))).collect();
        let want = [
            ("table1", "25 2024 --p-sweep"),
            ("figure1", "3"),
            ("thm3", "6"),
            ("thm4", "5"),
            ("thm5", "6"),
            ("thm6", "5"),
            ("lemmas", "25 7"),
            ("tverberg", "8 3"),
            ("async-delta", "3 5"),
            ("convergence", "8"),
            ("conjectures", "15 1000 1"),
        ];
        assert_eq!(quick, want.map(|(name, words)| (name, words.to_string())));
        for (e, words) in suite(false).into_iter().chain(suite(true)) {
            assert!(parse_args(e.positionals, e.flags, words).is_ok(), "{}: {words:?}", e.name);
        }
    }

    #[test]
    fn json_document_has_the_recorded_keys() {
        let doc = json_document(1, 1);
        let keys: Vec<&str> = doc.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        let want = [
            "paper", "trials", "seed", "e1_table1_l2", "e12_p_sweep", "e3_theorem3", "e4_theorem4",
            "e5_theorem5", "e6_theorem6", "e7_9_lemmas", "e10_tverberg", "e11_async_delta",
            "e13_convergence", "e14_conjecture_hunt",
        ];
        assert_eq!(keys, want);
    }

    /// Every paper row prints its tables at its smallest scale: one trial
    /// (or restart, iteration, seed per cell) and the lowest dimension of
    /// its sweep; the rows with no scale argument run as they are.
    #[test]
    fn every_paper_row_runs_at_its_smallest_scale() {
        for e in EXPERIMENTS {
            let words: &[&str] = match e.name {
                "table1" => &["1", "1", "--p-sweep"],
                "thm3" | "thm4" => &["3"],
                "thm5" | "thm6" => &["2"],
                "conjectures" => &["1", "1"],
                "figure1" | "convergence" => &[],
                _ => &["1"],
            };
            let args = parse_args(e.positionals, e.flags, words).expect("valid scale");
            let gates = (e.run)(&args);
            assert!(gates.iter().all(|g| g.ok), "{}: {gates:?}", e.name);
        }
    }
}
