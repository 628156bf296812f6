#!/usr/bin/env bash
# cmp-cli.sh <base-rev> — old-vs-new CLI equivalence check.
#
# Builds svmtrain, svmtune and svmpredict from <base-rev> and from the
# working tree, runs both over the same list of training paths, tuning
# grids and predictions, and compares every model and prediction file byte
# for byte and every stdout with wall-clock timings normalised, and the
# trace JSON of the two trace-capable engines byte for byte. Exits
# nonzero after the whole list when anything differed. A refactor that
# must not change behaviour proves it with:
#
#	scripts/cmp-cli.sh origin/main
#
# Error text (stderr) is not compared; exit statuses are.
set -euo pipefail

base=${1:?usage: scripts/cmp-cli.sh <base-rev>}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The base side is an exported tree, not a checkout: nothing in the
# repository's own .git changes.
mkdir -p "$work/src" "$work/old" "$work/new" "$work/data"
git -C "$root" archive "$base" | tar -x -C "$work/src"
(cd "$work/src" && go build -o "$work/old/bin/" ./cmd/svmtrain ./cmd/svmtune ./cmd/svmpredict)
(cd "$root" && go build -o "$work/new/bin/" ./cmd/svmtrain ./cmd/svmtune ./cmd/svmpredict ./cmd/svmgen)

# Shared inputs, generated once. Each *-base file is a prefix of its full
# file, as -update-from requires.
(
	cd "$work/data"
	gen=$work/new/bin/svmgen
	$gen -dataset blobs -scale 0.1 -out blobs.train -test-out blobs.test >/dev/null
	$gen -task svr -n 240 -dim 4 -seed 3 -out svr.train >/dev/null
	$gen -task svr -n 80 -dim 4 -seed 5 -out svr.test >/dev/null
	$gen -task oneclass -n 240 -dim 4 -seed 3 -out oc.train >/dev/null
	head -n 160 blobs.train >blobs-base.train
	head -n 200 svr.train >svr-base.train
	head -n 200 oc.train >oc-base.train
	# Loader inputs: blobs.train with CRLF endings, a header comment and a
	# comment and blank line after every tenth row (the same rows, so the
	# same model); and a file whose third line does not parse.
	{
		echo "# blobs with CRLF, comments and blank lines"
		awk '{ print } NR % 10 == 0 { print "# row " NR; print "" }' blobs.train
	} | sed 's/$/\r/' >blobs-crlf.train
	{ head -n 2 blobs.train; echo "+1 1:0.5 nope"; tail -n +3 blobs.train; } >bad.train
)

fail=0
step=0
# run <args...>: run the same command line on both sides (cwd = side dir,
# so relative paths print identically) and compare exit status and
# normalised stdout.
run() {
	step=$((step + 1))
	local side status
	for side in old new; do
		status=0
		(cd "$work/$side" && "./bin/$@") >"$work/$side/out.$step" 2>/dev/null || status=$?
		sed -E -e 's/ in [0-9][0-9.]*(ns|µs|us|ms|s|m[0-9.]+s|h[0-9hms.]+)?:/ in T:/' \
			-e 's/peak-heap=[^ ]*/peak-heap=X/' \
			"$work/$side/out.$step" >"$work/$side/norm.$step"
		echo "$status" >"$work/$side/status.$step"
	done
	if ! cmp -s "$work/old/status.$step" "$work/new/status.$step"; then
		echo "DIFF exit status: $*" && fail=1
	elif ! cmp -s "$work/old/norm.$step" "$work/new/norm.$step"; then
		echo "DIFF stdout: $*" && diff "$work/old/norm.$step" "$work/new/norm.$step" || true
		fail=1
	else
		echo "same: $*"
	fi
}
# same_file <file>: the model or prediction file written on both sides
# must be byte-equal.
same_file() {
	if ! cmp -s "$work/old/$1" "$work/new/$1"; then
		echo "DIFF file: $1" && fail=1
	fi
}

D=../data
run svmtrain -list-solvers
for args in \
	"core-p2|-p 2" \
	"smo|-solver smo" \
	"smo2|-solver smo2" \
	"dc|-solver dc" \
	"dc-full|-solver dc -dc-polish-full -verify" \
	"dc-smo2|-solver dc -dc-subsolver smo2" \
	"dcd|-solver linear -linear-variant dcd -verify" \
	"miso|-solver linear -linear-variant miso -verify" \
	"stream|-solver linear -stream -mem-budget 2KiB" \
	"stream-resident|-solver linear -stream" \
	"shards-core|-shards 2 -p 2" \
	"shards-linear|-solver linear -shards 2" \
	"shards3-linear|-solver linear -shards 3" \
	"prob|-probability" \
	"verify|-p 2 -verify"; do
	name=${args%%|*}
	# shellcheck disable=SC2086
	run svmtrain -data $D/blobs.train ${args#*|} -model "$name.model"
	same_file "$name.model"
done

# Traces of both trace-capable engines over a built-in dataset, which
# svmtrain labels with the -dataset name. A trace holds no wall-clock
# field, so the JSON must be byte-equal.
for args in "core|-p 2" "smo|-solver smo"; do
	name=${args%%|*}
	# shellcheck disable=SC2086
	run svmtrain -dataset blobs -dataset-scale 0.25 ${args#*|} -trace "$name.trace.json" -model "$name-ds.model"
	same_file "$name.trace.json"
	same_file "$name-ds.model"
done

# Loader coverage: the CRLF/comment variant trains the same model as the
# plain file, and a malformed file fails on both sides.
run svmtrain -data $D/blobs-crlf.train -model crlf.model
same_file crlf.model
run svmtrain -data $D/bad.train -model bad.model

run svmtrain -task svr -data $D/svr.train -gamma 0.5 -svr-epsilon 0.1 -model svr.model -verify
same_file svr.model
run svmtrain -task oneclass -data $D/oc.train -gamma 0.5 -nu 0.1 -model oc.model -verify
same_file oc.model

# Incremental updates from base models trained on each prefix.
run svmtrain -task svr -data $D/svr-base.train -gamma 0.5 -model svr-base.model
run svmtrain -update-from svr-base.model -task svr -data $D/svr.train -model svr-upd.model -verify
same_file svr-upd.model
run svmtrain -task oneclass -data $D/oc-base.train -gamma 0.5 -nu 0.1 -model oc-base.model
run svmtrain -update-from oc-base.model -data $D/oc.train -model oc-upd.model -verify
same_file oc-upd.model
run svmtrain -solver smo -data $D/blobs-base.train -model cls-base.model
run svmtrain -update-from cls-base.model -data $D/blobs.train -model cls-upd.model -verify
same_file cls-upd.model

# Checkpoint drill: crash rank 1 mid-run (both sides must fail), then
# resume both sides from copies of one checkpoint directory.
run svmtrain -data $D/blobs.train -p 2 -checkpoint-dir ck -checkpoint-every 5 \
	-checkpoint-min-interval 0 -inject-crash-rank 1 -inject-crash-at 116 -model crash.model
rm -rf "$work/new/ck" && cp -r "$work/old/ck" "$work/new/ck"
run svmtrain -data $D/blobs.train -p 2 -checkpoint-dir ck -resume -verify -model resumed.model
same_file resumed.model

# Sharded checkpoint drill: the checkpoint a sharded run writes carries the
# dataset fingerprint, so it must be byte-equal across sides, and a resume
# at another shard count must accept it and train the same model.
run svmtrain -data $D/blobs.train -shards 2 -p 2 -checkpoint-dir cks -checkpoint-every 5 \
	-checkpoint-min-interval 0 -inject-crash-rank 1 -inject-crash-at 116 -model crash-shards.model
if ! cmp -s "$work/old/cks/checkpoint.ckpt" "$work/new/cks/checkpoint.ckpt"; then
	echo "DIFF checkpoint: cks/checkpoint.ckpt" && fail=1
fi
run svmtrain -data $D/blobs.train -shards 3 -p 3 -checkpoint-dir cks -resume -verify -model resumed-shards.model
same_file resumed-shards.model

# Prediction: each side's svmpredict scores that side's models (byte-equal
# above) over held-out rows: labels over several chunks, probabilities,
# decision values of a dense-hyperplane and an SVR model, and labels with
# the packed layout off.
for args in \
	"core-p2|core-p2.model|blobs.test|-chunk 7" \
	"prob|prob.model|blobs.test|-prob" \
	"dcd|dcd.model|blobs.test|-decision-values" \
	"svr|svr.model|svr.test|-decision-values" \
	"core-p2-nopack|core-p2.model|blobs.test|-no-pack"; do
	IFS='|' read -r name model data flags <<<"$args"
	# shellcheck disable=SC2086
	run svmpredict -model "$model" -data "$D/$data" $flags -out "$name.pred"
	same_file "$name.pred"
done

run svmtune -data $D/blobs.train -folds 3 -c-grid 1,10 -sigma2-grid 1,4
run svmtune -data $D/blobs.train -folds 3 -solver linear -c-grid 0.5,1

if [ "$fail" -ne 0 ]; then
	echo "cmp-cli: old ($base) and new CLIs differ"
	exit 1
fi
echo "cmp-cli: $step commands identical against $base (models and predictions byte-equal, stdout timing-normalised)"
