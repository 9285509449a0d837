//! `perfbench --workload sweep|tile|daemon --seed N --seconds S --trace 0|1`
//!
//! Prints a table of the run's metrics and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match perfbench::run(&args) {
        Ok(outcome) => {
            let set = perfbench::declared(&args);
            println!(
                "{} (seed {}, {} s, {}): {} operations, {} failed",
                args.workload,
                args.seed,
                args.seconds,
                if args.trace { "traced" } else { "untraced" },
                outcome.attempted,
                outcome.failed
            );
            print!("{}", outcome.table(set));
            println!("{}", outcome.result_line(set));
        }
        Err(e) => {
            eprintln!("perfbench: {} workload failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
