//! The neuron behaviour catalogue: one parameterised integer neuron (plus
//! the occasional helper neuron and axonal delay) reproduces the canonical
//! repertoire of biological spiking behaviours, each circuit run as a 1×1
//! chip. Prints each behaviour's spike raster and measured signature.
//!
//! Run with: `cargo run --example neuron_behaviors`

use brainsim::apps::behavior;

fn main() {
    let results = behavior::run_all();
    let achieved = results.iter().filter(|r| r.achieved).count();
    println!(
        "behaviour catalogue: {achieved}/{} signatures achieved\n",
        results.len()
    );
    for result in &results {
        let mark = if result.achieved { "ok " } else { "FAIL" };
        println!("[{mark}] {:<32} {}", result.name, result.metric);
        if !result.raster.is_empty() {
            println!("       {}", result.raster.ascii());
        }
        println!("       circuit: {}\n", result.description);
    }
}
