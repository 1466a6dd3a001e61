//! The conformance matrix: every TM in the suite (and every planted-bug
//! mutant) against every contract the checkers can enforce.
//!
//! This is the paper's opening claim made operational — "without such
//! formalization, it is impossible to check the correctness of these
//! implementations". With the formalization executable, checking them is
//! one function call per TM; a downstream implementor of the `Stm` trait
//! runs the same battery (`tm_harness::conformance`) on their own
//! system and compares rows.
//!
//! ```sh
//! cargo run --release --example conformance_matrix
//! ```

use opacity_tm::harness::{conformance, conformance_header};
use opacity_tm::opacity::SearchConfig;
use opacity_tm::stm::{MutantStm, Mutation, Stm};

/// The register battery on one worker with the default search.
fn battery(
    make: &(dyn Fn(usize) -> Box<dyn Stm> + Sync),
) -> opacity_tm::harness::ConformanceReport {
    conformance(make, make, 1, SearchConfig::default())
}

fn main() {
    println!("== TM conformance matrix ==");
    println!("(every row: ~64 interleavings × 3 probe programs, every recorded");
    println!(" history judged by the opacity / serializability / SI checkers,");
    println!(" plus the §6.2 progressiveness probe and a threaded counter)\n");
    println!("{}", conformance_header());
    println!("{}", "-".repeat(82));

    let suite = opacity_tm::stm::TmRegistry::suite();
    for name in suite.names() {
        let factory = suite.factory(name).expect("suite TM name");
        println!("{}", battery(&factory).row());
    }
    for m in Mutation::all() {
        if m == Mutation::None {
            continue; // the baseline behaves like TL2; mutants are the story
        }
        let report = battery(&|k| Box::new(MutantStm::new(k, m)));
        println!("{}", report.row());
        if !report.violations.is_empty() {
            println!("    e.g. {}", report.violations[0]);
        }
    }

    println!("\nreading the matrix:");
    println!("  every shipping TM keeps its advertised contracts — including the two");
    println!("  *deliberately* non-opaque ones, which fail exactly the rows they trade");
    println!("  away (sistm: opacity+serializability, nonopaque: opacity+SI) and keep");
    println!("  the rest. TL2's NO under 'progressive' is §6.2's observation, not a");
    println!("  bug. The mutants fail rows they *claim* to keep — that is what a");
    println!("  correctness condition is for.");
}
