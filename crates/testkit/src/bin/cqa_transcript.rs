//! `cqa-transcript --seed N --count K`: prints the transcript of `K`
//! request scripts drawn from seed `N` (see `cqa_testkit::transcript`).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<u64> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1)?.parse().ok()
    };
    match (args.len(), value("--seed"), value("--count")) {
        (4, Some(seed), Some(count)) => print!("{}", cqa_testkit::transcript(seed, count)),
        _ => {
            eprintln!("usage: cqa-transcript --seed N --count K");
            std::process::exit(2);
        }
    }
}
