#!/usr/bin/env sh
# Runs the thirteen paper-figure benches (each at its one preset) and writes
# each one's stdout to <dir>/<bench>.txt.
#
# Usage: scripts/paper_figures.sh <dir>
#
# Comparing two checkouts: run this in each, then `diff -r <dir-a> <dir-b>`:
# Figs. 9, 10 and 13 repeat to the byte. Figs. 2, 3 and 5 repeat run to run,
# but a change that resizes a long-lived allocation (the modelled LLC's tag
# array, say) moves them by tenths of a percent, like the other benches, whose
# numbers follow the heap layout (EXPERIMENTS.md preamble): compare those over
# several allocator layouts.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 <dir>" >&2
    exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."

for bench in fig02_motivation fig03_microbench fig05_heatmap fig06_table1_google \
    fig07_twitter fig08_table3_redis fig09_tcp_echo fig10_nics fig11_cycles \
    fig12_table4_hybrid fig13_scaling table2_cdn table5_serialize_and_send; do
    echo "==> $bench" >&2
    cargo bench -q -p cf-bench --bench "$bench" > "$out/$bench.txt"
done
