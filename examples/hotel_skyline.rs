//! The classic relational skyline (the paper's Example 1).
//!
//! Run with: `cargo run --example hotel_skyline`

use gss_datasets::paper::hotels;
use gss_skyline::{naive_skyline, sfs_skyline};

fn main() {
    let (names, rows) = hotels();

    println!("hotels (price in 100€, distance to beach in km):");
    for (i, n) in names.iter().enumerate() {
        println!("  {n}: ({}, {})", rows[i][0], rows[i][1]);
    }

    let sky = naive_skyline(&rows);
    println!("\nskyline (Pareto-optimal hotels):");
    for &i in &sky {
        println!("  {}", names[i]);
    }
    assert_eq!(sky, sfs_skyline(&rows), "all algorithms agree");
}
