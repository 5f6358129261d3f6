//! Quickstart: simulate the Debit-Credit workload on two storage
//! architectures and compare response times.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use tpsim::presets::{debit_credit_config, debit_credit_workload, DebitCreditStorage};
use tpsim::Simulation;

fn main() {
    println!("TPSIM quickstart: Debit-Credit at 100 TPS, disk-based vs. NVEM-resident\n");

    for storage in [DebitCreditStorage::Disk, DebitCreditStorage::NvemResident] {
        // Configure the run: 100 transactions per second, a scaled-down
        // Debit-Credit database (scale factor 50) so the example finishes in
        // a couple of seconds.
        let mut config = debit_credit_config(storage, 100.0);
        config.warmup_ms = 1_000.0;
        config.measure_ms = 5_000.0;
        let workload = debit_credit_workload(50);

        let report = Simulation::new(config, workload).run();

        println!("== {} ==", storage.label());
        println!("  completed transactions : {}", report.completed);
        println!(
            "  throughput             : {:.1} TPS",
            report.throughput_tps
        );
        let rt = report.response_time;
        println!("  mean response time     : {:.2} ms", rt.mean);
        println!(
            "  p50 / p95 / p99        : {:.2} / {:.2} / {:.2} ms",
            rt.p50, rt.p95, rt.p99
        );
        println!(
            "  CPU utilization        : {:.1} %",
            report.cpu_utilization * 100.0
        );
        println!(
            "  main-memory hit ratio  : {:.1} %",
            report.mm_hit_ratio() * 100.0
        );
        for unit in &report.devices {
            println!(
                "  {:<22} : {:.1} % disk busy, {:.2} ms avg queue wait",
                unit.name,
                unit.disk_utilization * 100.0,
                unit.avg_disk_wait
            );
        }
        println!();
    }

    println!("The NVEM-resident configuration should be several times faster than the");
    println!("disk-based one — the same qualitative result as Fig. 4.2 of the paper.");
}
