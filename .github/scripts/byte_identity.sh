#!/usr/bin/env bash
# Run a fixed list of commands against two source trees and require
# byte-identical output files, stdout and exit codes.
#
# Usage: byte_identity.sh BASE_TREE HEAD_TREE WORK_DIR
#
# Each tree is a checkout whose src/ holds the scalewave package; the
# commands run with PYTHONPATH pointing at that src/.  The list guards every
# n = 1 command, the dimension whose outputs every change so far has kept
# bit for bit, and `verify inequalities` in n = 2.  A change that means to
# move n >= 2 outputs sees which of the seed<S>-n2 reports moved.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
work=$3

# One command per `sw` call, in order; later commands may read earlier outputs.
# Where more than one CPU is usable, a tree with forked lanes forks them in
# these commands (as measured on a 2-CPU machine): every simulate that
# records every step, once its samples have cost more than its steps (all
# but the coarse dr=1.5 run, which ends first), and every sweep but the one
# with --jobs 1, before its first cell.  The README simulate, which records
# every fifth step, and the other commands fork nothing.
commands() {
    # the README examples (simulate, decay-fit, sweep)
    sw simulate --set t_max=50 --set r_max=60 --set dr=0.05 \
        --set u0_width=0.4 --set nonlinear=false --set record_every=5 --out run.csv
    sw decay-fit run.csv --set column=l2 --set t_min=5 --out fit.json
    # the same fit with the borderline log correction
    sw decay-fit run.csv --set column=l2 --set t_min=5 --set log_corrected=true --set mu1=4 \
        --out fit-log.json
    sw sweep --set "p_values=[1.5,2,2.5]" --set "amplitudes=[1.0]" \
        --set u0_kind=bump --set u1_kind=bump --set u0_width=3 --set u1_width=3 \
        --set r_max=230 --set t_max=200 --out sweep.csv
    # a nonlinear global-band run recording every step
    sw simulate --set p=4 --set u0_amplitude=0.01 --set t_max=60 --set r_max=80 \
        --set record_every=1 --out global.csv
    # the same run with negative data, whose tail is negative subnormals then -0.0:
    # the steps after the first leave out the zero mass term
    sw simulate --set p=4 --set u0_amplitude=-0.01 --set t_max=60 --set r_max=80 \
        --set record_every=1 --out negative.csv
    # a coarse linear run with dr^2 >= 2, where the steps keep the zero mass term
    sw simulate --set dr=1.5 --set u0_width=4 --set u0_amplitude=-0.01 --set mu1=0.1 \
        --set nonlinear=false --set t_max=30 --set r_max=150 --set record_every=1 \
        --out coarse.csv
    # a massless run with mu2sq = -0.0, the one massless setting whose steps keep the
    # mass pass: 0 * u is -0.0 at u = +0.0, so f - 0 * u is not f bit for bit
    sw simulate --set mu2sq=-0.0 --set p=4 --set u0_amplitude=0.01 --set t_max=20 \
        --set r_max=40 --set record_every=1 --out negative-zero-mass.csv
    # a massive run recording every step, which takes the energy's own quadrature
    sw simulate --set mu1=5 --set mu2sq=2 --set u1_kind=gaussian --set u1_amplitude=0.5 \
        --set t_max=30 --set r_max=40 --set record_every=1 --out massive.csv
    # a diverging run: its last sample takes the two-level u_t and records inf/nan (exit 3)
    sw simulate --set mu1=0 --set p=2 --set blowup_threshold=1e300 --set t_max=20 \
        --set r_max=40 --set record_every=1 --out diverged.csv
    # weighted quadrature terms past e^600, summed relative to the largest and scaled
    # back: a blow-up run whose weighted columns stay finite
    sw simulate --set mu1=6 --set t_max=20 --set r_max=40 --set record_every=1 \
        --out weighted-past-budget.csv
    # weighted columns summed past e^600 up to 2e305, in a run that ends diverged
    # (exit 3)
    sw simulate --set u0_kind=bump --set u0_width=3 --set u1_kind=bump --set u1_width=3 \
        --set u1_amplitude=1 --set t_max=20 --set r_max=60 --set blowup_threshold=1e300 \
        --set record_every=1 --set p=3 --out weighted-large.csv
    # a dense linear run of the record-dense benchmark's shape at half its length:
    # its samples cost more than its steps, so it forks lanes early
    sw simulate --set mu1=4 --set r_max=230 --set dr=0.05 --set t_max=100 --set u0_width=0.4 \
        --set nonlinear=false --set record_every=1 --out dense.csv
    # the same run with --jobs 3: two lanes share its rows where two or more CPUs are usable
    sw simulate --set mu1=4 --set r_max=230 --set dr=0.05 --set t_max=100 --set u0_width=0.4 \
        --set nonlinear=false --set record_every=1 --jobs 3 --out dense-jobs3.csv
    # and with --jobs 8, which asks for more lanes than the ring has slots
    sw simulate --set mu1=4 --set r_max=230 --set dr=0.05 --set t_max=100 --set u0_width=0.4 \
        --set nonlinear=false --set record_every=1 --jobs 8 --out dense-jobs8.csv
    # a dense diverging run long enough to fork lanes first: its two-level last row
    # (inf/nan, exit 3) may land in a lane
    sw simulate --set mu1=0 --set p=2 --set blowup_threshold=1e300 --set u0_amplitude=0.1 \
        --set t_max=100 --set r_max=120 --set record_every=1 --out diverged-lanes.csv
    # a run from s = 1, whose step unit comes from the same per-dimension rule
    sw simulate --set s=1 --set t_max=11 --set r_max=20 --set cfl_safety=0.5 \
        --set record_every=1 --out from-s1.csv
    # a massive run from s = 0.5, which the mass bound admits
    sw simulate --set mu1=3 --set mu2sq=1 --set s=0.5 --set dr=0.1 --set t_max=10 \
        --set r_max=20 --set record_every=1 --out massive-from-s.csv
    # a coarse massive linear run just inside the mass bound:
    # (dt/step_unit)² + dt²·m²(s)/4 = 0.877 at cfl_safety 0.35 (5.73 at the default)
    sw simulate --set mu1=0 --set mu2sq=100 --set nonlinear=false --set dr=0.5 \
        --set r_max=40 --set t_max=20 --set u0_amplitude=0.01 --set cfl_safety=0.35 \
        --set record_every=1 --out mass-bound-edge.csv
    # a global-band sweep of slow cells (about 0.35 s each), whose lanes take cells
    # while this process runs its own
    sw sweep --set "p_values=[3.5,4]" --set "amplitudes=[0.5,1]" --set u0_amplitude=0.01 \
        --set r_max=230 --set t_max=200 --out global-sweep.csv
    # a sweep in p ascending across p_crit = 3: its first cells blow up within
    # milliseconds and its later global cells run long, so the processes that take
    # them finish at different times
    sw sweep --set "p_values=[1.5,2,3.5,4,4.5]" --set "amplitudes=[0.05,0.1]" \
        --set u0_kind=bump --set u1_kind=bump --set u0_width=3 --set u1_width=3 \
        --set dr=0.05 --set mu1=4 --set record_every=25 \
        --set r_max=230 --set t_max=200 --out mixed-sweep.csv
    # a blow-up-band sweep
    sw sweep --set "p_values=[1.5,2,2.5]" --set "amplitudes=[0.4,0.9]" \
        --set u0_kind=bump --set u1_kind=bump --set u0_width=3 --set u1_width=3 \
        --set r_max=80 --set t_max=60 --set record_every=25 --out blowup.csv
    # the same sweep with --jobs 1, which runs every cell in this process
    sw sweep --set "p_values=[1.5,2,2.5]" --set "amplitudes=[0.4,0.9]" \
        --set u0_kind=bump --set u1_kind=bump --set u0_width=3 --set u1_width=3 \
        --set r_max=80 --set t_max=60 --set record_every=25 --jobs 1 --out blowup-jobs1.csv
    # delta < 0: no p_crit, written as an empty field
    sw sweep --set mu1=1 --set mu2sq=1 --set "p_values=[2]" --set "amplitudes=[0.1]" \
        --set t_max=5 --set r_max=15 --jobs 1 --out negative-delta-sweep.csv
    # the other commands' reports
    sw verify identities --out identities.json
    # verify inequalities for seeds 0, 7 and 123, each at the defaults and with q = 3,
    # n = 2 and mu1 = 4, into seed<S>-<setting>.json: the Gaussians and powers skipped
    # past their exact zero, beyond seed 0 and the default q
    local seed setting extra
    for seed in 0 7 123; do
        for setting in default q=3 n=2 mu1=4; do
            extra=()
            [ "$setting" = default ] || extra=(--set "$setting")
            sw verify inequalities --seed "$seed" "${extra[@]}" --out "seed$seed-${setting/=/}.json"
        done
    done
    # the largest quadrature term exponent of any passing setting measured, 527.3, just
    # below the e^600 past which the terms are summed scaled: those sums keep every bit
    sw verify inequalities --set mu1=4.6 --out inequalities-mu1-4.6.json
    sw verify bihari --out bihari.json
    sw odi --out odi.json
    # odi runs whose checked samples span many of the dominance check's slices: 49555
    # samples at dt = 1e-4, blowing up at t = 4.96 before the life span of 7.64, and
    # 82242 at the default dt, blowing up at t = 4.62 before 5.62
    sw odi --set k0=2 --set alpha=-1 --set p=2 --set dt=1e-4 --out odi-dt.json
    sw odi --set alpha=-0.5 --set p=2 --out odi-alpha.json
    sw info --set mu1=4 --set p=2 --out info.json
    # delta < 0: no sqrt(delta), no p_crit and a null decay table
    sw info --set mu1=1 --set mu2sq=1 --out info-negative.json
}

run_tree() {
    local tree=$1 dir=$2 index=0
    mkdir -p "$dir"
    sw() {
        index=$((index + 1))
        local code=0
        (cd "$dir" && PYTHONPATH="$tree/src" python -m scalewave.cli "$@") \
            > "$dir/stdout-$index.txt" || code=$?
        echo "$code" > "$dir/exit-$index.txt"
        # commands print the paths they wrote; only the name may differ between trees
        sed -i "s|$dir|<out>|g" "$dir/stdout-$index.txt"
    }
    commands
}

rm -rf "$work"
run_tree "$base" "$work/base"
run_tree "$head" "$work/head"

status=0
if ! diff <(cd "$work/base" && ls) <(cd "$work/head" && ls); then
    echo "the two trees wrote different sets of files"
    status=1
fi
for file in "$work"/base/*; do
    name=$(basename "$file")
    if [ -e "$work/head/$name" ] && ! cmp "$file" "$work/head/$name"; then
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "byte identity: $(ls "$work/base" | wc -l) files identical" \
        "over $(ls "$work/base"/exit-*.txt | wc -l) commands"
fi
exit "$status"
