#!/bin/sh
# The host-time gate: times the working tree against BASE_REF on the
# benchmark's workloads (BENCHMARK.json) and fails if any end-to-end metric
# of the change is worse than the base's by more than its bound.
#
# Usage, from anywhere in the repository:
#   bench/paired_e2e.sh BASE_REF
#
# BASE_REF is checked out as a detached worktree under build/paired/. Ten
# pairs follow: pair i runs `bench/e2e/run.py --seed i --seconds 2` once in
# each tree, the base first when i is odd, and keeps the results in
# build/paired/{base,change}/rNN.json. `run.py --compare` then rules on each
# metric from the ten pairs; its table is printed and kept in
# build/paired/compare.txt. The exit status is the compare's, 1 on any
# `worse` verdict. A run that is not correct (a failed selftest, op or
# fingerprint check) exits 1 and stops the script.
set -eu

if [ $# -ne 1 ]; then
  echo "usage: bench/paired_e2e.sh BASE_REF" >&2
  exit 2
fi
cd "$(git rev-parse --show-toplevel)"
out=build/paired
tree=$out/tree
git worktree remove --force "$tree" 2>/dev/null || true
rm -rf "$out"
mkdir -p "$out/base" "$out/change"
git worktree add --detach "$tree" "$1"
trap 'git worktree remove --force "$tree"' EXIT

# run SIDE TREE I
run() {
  python3 "$2/bench/e2e/run.py" --seed "$3" --seconds 2 \
    --out "$out/$1/r$(printf %02d "$3").json" >/dev/null
}

i=1
while [ "$i" -le 10 ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run base "$tree" "$i"
    run change . "$i"
  else
    run change . "$i"
    run base "$tree" "$i"
  fi
  i=$((i + 1))
done

status=0
python3 bench/e2e/run.py --compare "$out/base,$out/change" >"$out/compare.txt" || status=$?
cat "$out/compare.txt"
exit "$status"
