#!/usr/bin/env bash
# Run the same pvcg commands on this tree and on BASE_TREE and compare every
# artifact with cmp. Exits non-zero when any of the 19 artifacts differs or is
# missing on either side. For an artifact that differs it also prints the
# largest absolute difference between the numbers of the two files, read in order,
# and for a JSON artifact up to 10 differing leaf paths as "path: BASE -> THIS".
#
#   scripts/byte_identity.sh BASE_TREE [WORK_DIR]
#
# Commands, each on both trees:
#   pvcg run --config configs/flagship.json --seed 0
#   pvcg verify --config configs/flagship.json with the zero, analytic and
#     learned adjustments (learned reads this tree's model.json on both sides)
#   pvcg simulate on configs/economy3.json with configs/bids3_overreport.json
#     (producer 0 over-reports its capacity and is punished) with the zero
#     adjustment, the analytic one, and the analytic one with --method gradient
#   pvcg simulate on configs/economy3_squares.json (the sqrt_sum_squares
#     valuation, so projected gradient) with the same bids, with the zero and
#     the analytic adjustment, and on configs/economy3_2d.json (2-D capacities,
#     water-filled on each producer's total) with truthful bids and the zero
#     adjustment
#   pvcg train on configs/train_small.json (n=3, batch 50, 40 epochs with
#     momentum and a width-1 layer; loss_tol 0 runs every epoch, so it exits 1)
#   pvcg verify --config configs/train_small.json with the learned adjustment
#     that train run writes on this tree: a network of 40 epochs fails rationality
#     and budget on some samples (it exits 1), so this pins the ir_wbb counts and
#     witnesses
#   pvcg surface --config configs/surface_interior.json --adjustment analytic:
#     a surface with a non-zero analytic adjustment (run/surface.csv prices the
#     learned one). Its capacity support starts above zero and its cost types
#     are cheap, so the adjustment is non-zero; on flagship's support it is -0.
#   pvcg surface --config configs/surface_squares.json --adjustment zero: an
#     8x8 sqrt_sum_squares surface at n=4, so its 64 economies are one
#     projected-gradient batch, finished together, plus the removed problem
#   pvcg verify --config configs/surface_squares.json --adjustment analytic:
#     the only artifact that runs the DSIC probe, the existence and
#     marginal-gains checks and the analytic adjustment on a projected-gradient
#     family. It exits 1: it pins failing ir_wbb and surplus_monotonicity
#     reports
# Each tree runs its own configs/flagship.json; the economy, bids, train_small,
# surface_interior and surface_squares files come from this tree, so a base
# commit without them still runs.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 BASE_TREE [WORK_DIR]" >&2
    exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$(dirname "$0")/.." && pwd)
work=${2:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)
economy=$head/configs/economy3.json
bids=$head/configs/bids3_overreport.json
squares=$head/configs/economy3_squares.json
economy2d=$head/configs/economy3_2d.json
train_small=$head/configs/train_small.json
surface_interior=$head/configs/surface_interior.json
surface_squares=$head/configs/surface_squares.json

pvcg() {  # pvcg TREE ARGS...: the CLI from TREE's sources; a failing probe still writes its report
    local tree=$1
    shift
    PYTHONPATH="$tree/src" python3 -m pvcg.cli "$@" > /dev/null || echo "  (exit $? from: pvcg $*)"
}

run_tree() {  # run_tree TREE OUT
    local tree=$1 out=$2 config=$1/configs/flagship.json
    echo "== $tree -> $out"
    pvcg "$tree" run --config "$config" --seed 0 --out "$out/run"
    for adjustment in zero analytic "learned:$work/head/run/model.json"; do
        pvcg "$tree" verify --config "$config" --adjustment "$adjustment" --out "$out/verify-${adjustment%%:*}"
    done
    pvcg "$tree" simulate --economy "$economy" --bids "$bids" --adjustment zero --out "$out/simulate-zero"
    pvcg "$tree" simulate --economy "$economy" --bids "$bids" --adjustment analytic --out "$out/simulate-analytic"
    pvcg "$tree" simulate --economy "$economy" --bids "$bids" --adjustment analytic --method gradient \
        --out "$out/simulate-analytic-gradient"
    pvcg "$tree" simulate --economy "$squares" --bids "$bids" --adjustment zero --out "$out/simulate-squares-zero"
    pvcg "$tree" simulate --economy "$squares" --bids "$bids" --adjustment analytic \
        --out "$out/simulate-squares-analytic"
    pvcg "$tree" simulate --economy "$economy2d" --adjustment zero --out "$out/simulate-2d-zero"
    pvcg "$tree" train --config "$train_small" --out "$out/train"
    pvcg "$tree" verify --config "$train_small" --adjustment "learned:$work/head/train/model.json" \
        --out "$out/verify-train-small"
    pvcg "$tree" surface --config "$surface_interior" --adjustment analytic --out "$out/surface-analytic"
    pvcg "$tree" surface --config "$surface_squares" --adjustment zero --out "$out/surface-squares-zero"
    pvcg "$tree" verify --config "$surface_squares" --adjustment analytic --out "$out/verify-squares-analytic"
}

max_numeric_diff() {  # max_numeric_diff A B: the largest |a - b| over the files' numbers, paired in order
    python3 - "$1" "$2" <<'PY'
import math, re, sys
number = re.compile(rb"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN")
a, b = (number.findall(open(path, "rb").read()) for path in sys.argv[1:3])
if len(a) != len(b):
    print(f"{len(a)} vs {len(b)} numbers")
else:
    diffs = (0.0 if x == y else abs(float(x) - float(y)) for x, y in zip(a, b))
    print(f"max |diff| {max((math.inf if math.isnan(d) else d for d in diffs), default=0.0):.3g}")
PY
}

json_leaf_diffs() {  # json_leaf_diffs BASE THIS: up to 10 leaf paths whose values differ, with both values
    python3 - "$1" "$2" <<'PY'
import json, sys

def leaves(doc, path=""):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from leaves(value, f"{path}[{k}]")
    else:
        yield path, doc

# values compare by repr, so -0.0 against 0.0 counts as a move and nan against nan does not
base, this = ({p: repr(v) for p, v in leaves(json.load(open(path, encoding="utf-8")))} for path in sys.argv[1:3])
moved = [p for p in dict.fromkeys([*base, *this]) if base.get(p) != this.get(p)]
for p in moved[:10]:
    print(f"           {p}: {base.get(p, '(absent)')} -> {this.get(p, '(absent)')}")
if len(moved) > 10:
    print(f"           ... {len(moved) - 10} more")
PY
}

# this tree first: the learned verify on both sides reads its model.json
run_tree "$head" "$work/head"
run_tree "$base" "$work/base"

# every artifact the commands above write; a missing one fails the check, so a
# command that crashes on both trees cannot pass by comparing nothing
artifacts=(
    run/report.json run/model.json run/loss_trace.csv run/surface.csv
    verify-zero/verification.json verify-analytic/verification.json verify-learned/verification.json
    simulate-zero/payments.json simulate-analytic/payments.json simulate-analytic-gradient/payments.json
    simulate-squares-zero/payments.json simulate-squares-analytic/payments.json simulate-2d-zero/payments.json
    train/model.json train/loss_trace.csv surface-analytic/surface.csv surface-squares-zero/surface.csv
    verify-train-small/verification.json verify-squares-analytic/verification.json
)
status=0
for file in "${artifacts[@]}"; do
    if [ ! -f "$work/head/$file" ] || [ ! -f "$work/base/$file" ]; then
        echo "MISSING  $file"
        status=1
    elif cmp "$work/head/$file" "$work/base/$file"; then
        echo "same     $file"
    else
        echo "DIFFERS  $file  ($(max_numeric_diff "$work/head/$file" "$work/base/$file"))"
        if [[ $file == *.json ]]; then
            json_leaf_diffs "$work/base/$file" "$work/head/$file"
        fi
        status=1
    fi
done
echo "${#artifacts[@]} artifacts checked; $([ $status -eq 0 ] && echo "all byte-identical" || echo "MISMATCH")"
exit $status
