//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result line. Exits 1
//! when any output fails verification or any op fails, 2 on bad
//! arguments, 3 when an op outlives its deadline.

use atomio_perfbench::{nproc, pin_to_one_cpu, run, Args, Workload};

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    std::process::exit(2);
}

fn parse(host_cpus: usize, pinned_cpu: Option<usize>) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
            host_cpus,
            pinned_cpu,
        },
        _ => usage(),
    }
}

fn main() {
    let host_cpus = nproc();
    let pinned_cpu = pin_to_one_cpu();
    let args = parse(host_cpus, pinned_cpu);
    let report = run(&args, args.workload.sizes());
    print!("{}", report.text);
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}
