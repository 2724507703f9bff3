#!/usr/bin/env bash
# Byte identity of the six default studies on one CPU and on all of them.
#
# Usage: .github/split-identity.sh TREE WORK_DIR
#
# seqloc.solvers._svd factors a large stack of designs in chunks, one per
# usable CPU.  Each matrix is factored alone, so no output may depend on
# the split.  Runs the six default studies of TREE (default seed and
# trials), each study in a fresh process, twice: pinned to CPU 0 by
# taskset, where one CPU is usable and no stack is split, and unpinned.
# Fails unless every file written, each CSV and manifest, is
# byte-identical between the two runs.  Where only one CPU is usable the
# unpinned run splits nothing either; the script says so and exits 0.
set -euo pipefail

STUDIES="stationary-noise speed-sweep velocity-deviation noise-sweep-uvd-pvd
speed-compare circular"

src="$(cd "$1" && pwd)/src"
mkdir -p "$2"
work="$(cd "$2" && pwd)"

cpus="$(python -c 'import os; print(len(os.sched_getaffinity(0)))')"
if [ "$cpus" -lt 2 ]; then
    echo "skipped: $cpus usable CPU, so no stack is split"
    exit 0
fi

run_studies() {  # NAME [COMMAND...]: the studies under WORK_DIR/NAME
    local out="$work/$1"
    shift
    for name in $STUDIES; do
        PYTHONPATH="$src" "$@" python -m seqloc.cli experiment "$name" \
            --out "$out/$name" > /dev/null
    done
}

run_studies one-cpu taskset -c 0
run_studies all-cpus

status=0 count=0
while IFS= read -r -d '' file; do
    rel="${file#"$work/one-cpu/"}"
    count=$((count + 1))
    if ! cmp -s "$file" "$work/all-cpus/$rel"; then
        echo "differs between one CPU and $cpus: $rel"
        status=1
    fi
done < <(find "$work/one-cpu" -type f -print0 | sort -z)
if [ "$(find "$work/all-cpus" -type f | wc -l)" -ne "$count" ]; then
    echo "the two runs wrote different sets of files"
    status=1
fi
echo "$count files compared, status $status"
exit "$status"
