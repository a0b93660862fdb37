#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark (bench/, BENCHMARK.json):
# <base-ref> against this working tree, on this machine, in one sitting —
# what ROADMAP item 1 asks every performance claim to rest on.
#
#   scripts/bench_ab.sh <base-ref> [workload…]      (default: all four)
#   PAIRS=10   pairs per workload; pair i runs both sides at --seed i and
#              alternates which side goes first
#   OUT=…      result directory (default .bench_build/ab, git-ignored)
#
# The base is checked out into a git worktree under OUT and removed on
# exit; each side is built and run by its own bench/run.sh from its own
# tree, with --trace 0 and BENCHMARK.json's run length. Ends with
# `bench/run.sh compare`, whose exit status (non-zero on a regression) is
# the script's. compare warns that the two stamps differ: the commit
# field does, by construction; anything else differing is a real problem.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
base_ref=${1:?usage: scripts/bench_ab.sh <base-ref> [workload…]}
shift
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(engine_batch serve_unique serve_zipf router3_mixed)
fi
pairs=${PAIRS:-10}
out=${OUT:-$root/.bench_build/ab}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")

mkdir -p "$out"
out=$(cd "$out" && pwd)
rm -rf "$out/base" "$out/new"
mkdir "$out/base" "$out/new"
tree=$out/base-tree
git -C "$root" worktree add --detach --force "$tree" "$base_ref" >/dev/null
trap 'git -C "$root" worktree remove --force "$tree"' EXIT

run() { # side workload pair
    local dir=$root
    [ "$1" = base ] && dir=$tree
    echo "pair $3/$pairs  $2  $1" >&2
    (cd "$dir" && bash bench/run.sh --workload "$2" --seed "$3" --seconds "$seconds" \
        --trace 0 -out "$out/$1/$2.$3.json" >/dev/null)
}

for i in $(seq 1 "$pairs"); do
    for wl in "${workloads[@]}"; do
        if ((i % 2)); then
            run base "$wl" "$i"
            run new "$wl" "$i"
        else
            run new "$wl" "$i"
            run base "$wl" "$i"
        fi
    done
done
cd "$root" && bash bench/run.sh compare -base "$out/base" -new "$out/new"
