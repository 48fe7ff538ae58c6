//! `sessionbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then the result object as the last
//! line of stdout. Exits with code 2 on a usage error; a failed
//! correctness check sets `"correct": false`.

use sessionbench::host::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let args = match sessionbench::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sessionbench: {e}");
            eprintln!(
                "usage: sessionbench --workload <fabric_dense|serve_localize|serve_payload_faults> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let out = sessionbench::run(&args);
    for line in &out.report {
        println!("{line}");
    }
    println!("{}", out.result_line);
}
