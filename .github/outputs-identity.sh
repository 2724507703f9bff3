#!/usr/bin/env bash
# Byte-identity of seqloc's outputs between two source trees.
#
# Usage: .github/outputs-identity.sh BASE_TREE HEAD_TREE WORK_DIR
#
# Runs, in each tree, the six studies (--trials 20 --svg), crlb --seed 3
# (also with --prior-std 0.5), simulate --seed 3 (also with --fix 7) and
# solve of the fix-0 batch with every estimator.  Then, with the head's
# .github/identity-config.json (a 3-D five-BS scenario) as --config for
# both trees: crlb, simulate --fix 3, solve of that batch with every
# estimator, and the noise-sweep-uvd-pvd (--svg) and velocity-deviation
# studies.  With the head's .github/identity-stationary.json (a stationary
# UD) as --config for both trees: the stationary-noise study, crlb,
# simulate --fix 2 and solve of that batch with every estimator.  With the
# head's .github/identity-tiny-noise.json (a noise level of 1e-160 m, whose
# information overflows float64) as --config for both trees, with stderr
# and the exit status: crlb, simulate --fix 2, solve of that batch with
# every estimator and the speed-sweep study.  With the head's
# .github/identity-overflow-uvd-pvd.json and
# .github/identity-overflow-stationary.json (slots 1e148 s and 1e300 s
# apart, where the whitened times of the smallest grid noise level
# overflow), with stderr and the exit status: the noise-sweep-uvd-pvd and
# stationary-noise studies, without --svg.  With the head's
# .github/identity-final-failure.json (a stationary UD at [0, 30], where
# the trials of the 1e-12 m grid point converge and then fail the rank
# rule at their final iterate, the check the harness makes on singular
# values alone), with stderr and the exit status: the stationary-noise
# study, without --svg.  With the head's
# .github/identity-final-failure-solve.json (a stationary UD at [0, 30]
# with 1e-12 m noise, whose one-window solves converge and then fail at
# their final iterate), with stderr and the exit status: simulate --fix 0
# and solve of that batch with every estimator.  Usage errors and help, with
# their exit status: no arguments, -h, an unknown command, solve alone and
# with -h, and a solve of the fix-0 batch with an extra argument, an
# unknown option or an unknown estimator.  The
# base runs under PYTHONHASHSEED=0 and the head under 1,
# each writing its files and stdout/stderr under WORK_DIR/base and
# WORK_DIR/head.  Fails unless
# every file the base writes is byte-identical in the head; files only the
# head writes are allowed.
set -euo pipefail

STUDIES="stationary-noise speed-sweep velocity-deviation noise-sweep-uvd-pvd
speed-compare circular"

write_outputs() {  # TREE OUT HASHSEED
    local src out hash_seed="$3"
    src="$(cd "$1" && pwd)/src"
    mkdir -p "$2"
    out="$(cd "$2" && pwd)"
    # Run inside OUT, so that the paths the commands print are relative.
    seqloc() {
        (cd "$out" && PYTHONPATH="$src" PYTHONHASHSEED="$hash_seed" \
            python -m seqloc.cli "$@")
    }
    for name in $STUDIES; do
        seqloc experiment "$name" --trials 20 --svg --out studies \
            > "$out/experiment-$name.out"
    done
    seqloc crlb --seed 3 > "$out/crlb.out"
    seqloc crlb --seed 3 --prior-std 0.5 > "$out/crlb-prior-std.out"
    seqloc simulate --seed 3 > "$out/batch.csv"
    seqloc simulate --seed 3 --fix 7 > "$out/batch-fix7.csv"
    for estimator in kvd uvd pvd d; do
        seqloc solve --batch batch.csv --estimator "$estimator" \
            > "$out/solve-$estimator.out" 2> "$out/solve-$estimator.err" \
            || echo "exit status $?" >> "$out/solve-$estimator.err"
    done
    record() {  # NAME ARGS...: stdout, stderr and the exit status
        local name="$1" status=0
        shift
        seqloc "$@" > "$out/$name.out" 2> "$out/$name.err" || status=$?
        echo "exit status $status" >> "$out/$name.err"
    }
    record usage-none
    record usage-help -h
    record usage-bogus bogus
    record usage-solve solve
    record usage-solve-help solve -h
    local solve=(solve --batch batch.csv --estimator kvd)
    record usage-solve-extra "${solve[@]}" extra
    record usage-solve-bogus "${solve[@]}" --bogus 1
    record usage-solve-estimator solve --batch batch.csv --estimator foo
    local args
    seqloc crlb --config "$config" > "$out/config-crlb.out"
    seqloc simulate --config "$config" --fix 3 > "$out/batch-config.csv"
    for estimator in kvd uvd pvd d; do
        args=()
        if [ "$estimator" = kvd ]; then args=(--velocity 2,-1,0.5); fi
        seqloc solve --config "$config" --batch batch-config.csv \
            --estimator "$estimator" "${args[@]}" \
            > "$out/config-solve-$estimator.out" \
            2> "$out/config-solve-$estimator.err" \
            || echo "exit status $?" >> "$out/config-solve-$estimator.err"
    done
    seqloc experiment noise-sweep-uvd-pvd --config "$config" --svg \
        --out config-studies > "$out/config-experiment-noise-sweep-uvd-pvd.out"
    seqloc experiment velocity-deviation --config "$config" \
        --out config-studies > "$out/config-experiment-velocity-deviation.out"
    seqloc experiment stationary-noise --config "$stationary" \
        --out stationary-studies > "$out/stationary-experiment.out"
    seqloc crlb --config "$stationary" > "$out/stationary-crlb.out"
    seqloc simulate --config "$stationary" --fix 2 \
        > "$out/batch-stationary.csv"
    for estimator in kvd uvd pvd d; do
        seqloc solve --config "$stationary" --batch batch-stationary.csv \
            --estimator "$estimator" \
            > "$out/stationary-solve-$estimator.out" \
            2> "$out/stationary-solve-$estimator.err" \
            || echo "exit status $?" >> "$out/stationary-solve-$estimator.err"
    done
    record tiny-crlb crlb --config "$tiny"
    record tiny-simulate simulate --config "$tiny" --fix 2 --out tiny
    for estimator in kvd uvd pvd d; do
        record "tiny-solve-$estimator" solve --config "$tiny" \
            --batch tiny/batch.csv --estimator "$estimator"
    done
    record tiny-experiment experiment speed-sweep --config "$tiny" \
        --out tiny-studies
    record overflow-uvd-pvd experiment noise-sweep-uvd-pvd \
        --config "$overflow_uvd_pvd" --out overflow-studies
    record overflow-stationary experiment stationary-noise \
        --config "$overflow_stationary" --out overflow-studies
    record final-failure experiment stationary-noise \
        --config "$final_failure" --out final-failure-studies
    record final-failure-simulate simulate --config "$final_failure_solve" \
        --fix 0 --out final-failure
    for estimator in kvd uvd pvd d; do
        record "final-failure-solve-$estimator" solve \
            --config "$final_failure_solve" --batch final-failure/batch.csv \
            --estimator "$estimator"
    done
}

base="$3/base" head="$3/head"
config="$(cd "$2" && pwd)/.github/identity-config.json"
stationary="$(cd "$2" && pwd)/.github/identity-stationary.json"
tiny="$(cd "$2" && pwd)/.github/identity-tiny-noise.json"
overflow_uvd_pvd="$(cd "$2" && pwd)/.github/identity-overflow-uvd-pvd.json"
overflow_stationary="$(cd "$2" && pwd)/.github/identity-overflow-stationary.json"
final_failure="$(cd "$2" && pwd)/.github/identity-final-failure.json"
final_failure_solve="$(cd "$2" && pwd)/.github/identity-final-failure-solve.json"
write_outputs "$1" "$base" 0
write_outputs "$2" "$head" 1
status=0 count=0
while IFS= read -r -d '' file; do
    rel="${file#"$base"/}"
    count=$((count + 1))
    if ! cmp -s "$file" "$head/$rel"; then
        echo "differs from the base: $rel"
        status=1
    fi
done < <(find "$base" -type f -print0 | sort -z)
echo "$count base files compared, status $status"
exit "$status"
