//! Regenerates the experiment tables of EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p cqa-bench --release --bin report          # all experiments
//! cargo run -p cqa-bench --release --bin report -- e3 e7 # a selection
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print!("{}", cqa_bench::run_all());
        return;
    }
    for id in &args {
        match cqa_bench::run_one(id) {
            Some(tbl) => print!("{tbl}"),
            None => {
                eprintln!("unknown experiment `{id}` (valid: e1..e12)");
                std::process::exit(1);
            }
        }
    }
}
