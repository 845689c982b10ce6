#!/bin/bash
# Full-scale regeneration of every result file EXPERIMENTS.md cites.
# Each command runs once and writes its stdout and stderr to the file
# under results/ named after it. Run from anywhere: the script works from
# the repository root it lives in.
set -ex
cd "$(dirname "$0")/.."
cargo build --release -p ampsched-experiments --bin ampsched
B=target/release/ampsched
$B fig1 > results/fig1_full.txt 2>&1
$B fig3 > results/fig3_full.txt 2>&1
$B fig4 > results/fig4_full.txt 2>&1
$B derive-rules > results/rules_full.txt 2>&1
$B morphing --insts 3000000 > results/morphing_full.txt 2>&1
$B --csv results/fig78_per_pair.csv figs789 > results/figs789_full.txt 2>&1
$B --pairs 16 fig6 > results/fig6_p16.txt 2>&1
$B --pairs 12 overhead > results/overhead_p12.txt 2>&1
$B --pairs 16 rr-interval > results/rr_interval_p16.txt 2>&1
$B --pairs 12 ablation > results/ablation_p12.txt 2>&1
# Longer-run overhead check (the amortization argument in EXPERIMENTS.md).
$B --pairs 8 --insts 25000000 overhead > results/overhead_long.txt 2>&1
echo CAMPAIGN_DONE
