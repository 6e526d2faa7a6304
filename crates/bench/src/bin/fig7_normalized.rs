//! **Figure 7**: energy and latency of every Table 2 design, normalized to
//! the respective column minimum (the paper normalizes "to the lowest
//! energy and latency").
//!
//! Consumes `results/table2.csv` (run `table2_comparison` first).
//!
//! Usage: `cargo run --release -p yoso-bench --bin fig7_normalized --
//! [flags]`, with the flags of [`yoso_bench::usage::FIG7_NORMALIZED`].

use yoso_bench::{read_csv, run_main, usage, write_csv, Args, Table};
use yoso_core::error::Error;

fn bar(v: f64, scale: f64) -> String {
    let n = ((v / scale) * 24.0).round() as usize;
    "#".repeat(n.clamp(1, 60))
}

fn main() {
    run_main(real_main);
}

fn real_main() -> Result<(), Error> {
    let trace = Args::parse(usage::FIG7_NORMALIZED).configure_trace();
    let (_, rows) = match read_csv("table2.csv") {
        Ok(v) => v,
        Err(e) => {
            eprintln!(
                "results/table2.csv not found — run `cargo run --release -p yoso-bench --bin table2_comparison` first"
            );
            return Err(e.into());
        }
    };
    let parsed: Vec<(String, f64, f64)> = rows
        .iter()
        .map(|r| {
            let col = |i: usize, what: &str| {
                r[i].parse::<f64>().map_err(|_| {
                    Error::InvalidConfig(format!("bad {what} value {:?} in table2.csv", r[i]))
                })
            };
            Ok((r[0].clone(), col(3, "energy")?, col(4, "latency")?))
        })
        .collect::<Result<_, Error>>()?;
    let e_min = parsed.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let l_min = parsed.iter().map(|r| r.2).fold(f64::INFINITY, f64::min);
    let max_norm = parsed
        .iter()
        .map(|r| (r.1 / e_min).max(r.2 / l_min))
        .fold(0.0f64, f64::max);

    println!("=== Fig. 7: energy & latency normalized to the column minimum ===\n");
    let mut table = Table::new(&["model", "energy(x)", "latency(x)"]);
    let mut csv = Vec::new();
    for (name, e, l) in &parsed {
        table.row(vec![
            name.clone(),
            format!("{:.2}", e / e_min),
            format!("{:.2}", l / l_min),
        ]);
        csv.push(vec![
            name.clone(),
            (e / e_min).to_string(),
            (l / l_min).to_string(),
        ]);
    }
    println!("{table}");
    for (name, e, l) in &parsed {
        println!("{name:>12} energy  | {}", bar(e / e_min, max_norm));
        println!("{:>12} latency | {}", "", bar(l / l_min, max_norm));
    }
    let p = write_csv(
        "fig7_normalized.csv",
        &["model", "energy_norm", "latency_norm"],
        &csv,
    );
    println!("\nwritten {}", p.display());

    // The winners should be YOSO designs, as in the paper's Fig. 7.
    let best_e = parsed
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("rows");
    let best_l = parsed
        .iter()
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("rows");
    println!("lowest energy: {} | lowest latency: {}", best_e.0, best_l.0);
    yoso_bench::finish_trace(&trace);
    Ok(())
}
