#!/usr/bin/env bash
# Run `verify inequalities` on two source trees for seeds 0, 7 and 123, each
# with the defaults and with q = 3, n = 2 and mu1 = 4, and require
# byte-identical JSON reports, stdout and exit codes.
#
# Usage: inequalities_byte_identity.sh BASE_TREE HEAD_TREE WORK_DIR
#
# Each tree is a checkout whose src/ holds the scalewave package.  Unlike
# n1_byte_identity.sh this covers n = 2, so it is for changes that mean to
# keep the verify suites' numbers in every dimension.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
work=$3

run_tree() {
    local tree=$1 dir=$2 seed setting name code
    mkdir -p "$dir"
    for seed in 0 7 123; do
        for setting in default q=3 n=2 mu1=4; do
            name="seed$seed-${setting/=/}"
            local extra=()
            [ "$setting" = default ] || extra=(--set "$setting")
            code=0
            (cd "$dir" && PYTHONPATH="$tree/src" python -m scalewave.cli verify inequalities \
                --seed "$seed" "${extra[@]}" --out "$name.json") > "$dir/$name.stdout" || code=$?
            echo "$code" > "$dir/$name.exit"
        done
    done
}

rm -rf "$work"
run_tree "$base" "$work/base"
run_tree "$head" "$work/head"

status=0
for file in "$work"/base/*; do
    if ! cmp "$file" "$work/head/$(basename "$file")"; then
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "verify inequalities byte identity: $(ls "$work/base" | wc -l) files identical"
fi
exit "$status"
