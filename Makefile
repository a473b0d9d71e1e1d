# Convenience targets; everything is plain dune underneath.

.PHONY: all build test sloc lint lint-json lint-fixtures bench-smoke bench-parallel bench-closest bench-counts bench-merge bench-serve bench-net bench clean

all: build

build:
	dune build

test:
	dune runtest

# Line counts the net-lines gates read: production OCaml (lib/ + bin/,
# .ml and .mli) and the test-only reference library (test/reference/),
# whose sum is what a simplicity change must shrink.  Also the size of
# the dead-export audit trail: the [@@histolint.keep "reason"] attributes
# on lib/ interface values (lines that open with the attribute, so the
# lint's own docs that mention it are not counted); the knob count:
# the optional labels ([?name:]) in lib/ interfaces; and the raw GC
# reads: lines in test/*.ml and bench/*.ml that call a GC counter
# themselves instead of going through Refkit.Alloc.measure.  Last, the
# daemon's link footprint: the compilation units in the built
# histotestd.exe (its code_begin symbols, counted with nm), or n/a when
# it is not built.
sloc:
	@lb=$$(cat $$(find lib bin \( -name '*.ml' -o -name '*.mli' \)) | wc -l); \
	rk=$$(cat $$(find test/reference \( -name '*.ml' -o -name '*.mli' \)) | wc -l); \
	keep=$$(cat $$(find lib -name '*.mli') | grep -c '^[[:space:]]*\[@@histolint\.keep'); \
	opts=$$(cat $$(find lib -name '*.mli') | grep -o '?[a-z_0-9]*:' | wc -l); \
	gc=$$(cat test/*.ml bench/*.ml | grep -cE 'Gc\.(counters|quick_stat|minor_words|allocated_bytes) \(\)'); \
	echo "lib+bin $$lb"; echo "test/reference $$rk"; echo "total $$((lb + rk))"; \
	echo "lib keep audits $$keep"; echo "lib optional args $$opts"; \
	echo "raw gc reads $$gc"; \
	d=_build/default/bin/histotestd.exe; \
	if [ -f $$d ]; then echo "daemon units $$(nm $$d | grep -c 'code_begin$$')"; \
	else echo "daemon units n/a"; fi

# Static invariants: histolint scans the compiled typedtrees
# (_build/default/**/*.cmt) for determinism and float-discipline
# violations plus the v2 interprocedural passes — domain-safety of
# closures handed to Parkit.Pool, and [@histolint.hot] allocation
# discipline, and dead/unreferenced-export: every val a lib/ .mli
# exports is referenced by another production unit or carries an audited
# [@@histolint.keep "reason"] (see DESIGN.md "Static invariants").  Per-unit function
# summaries are computed in memory on every run.
# Non-zero exit on any unsuppressed error-severity finding or unknown
# rule id in a suppression.
lint:
	dune build @lint

# The same scan, but emitting the machine-readable report (findings,
# suppressed sites, the full suppression audit trail, per-rule counts)
# to _build/histolint.json — the CI lint artifact.  The `-` keeps the
# artifact flowing even when the scan has findings; `make lint` is the
# gate.
lint-json:
	dune build @default @check
	-dune exec bin/histolint.exe -- --json --lib-prefix test/reference/ _build/default > _build/histolint.json
	@echo "wrote _build/histolint.json"

# Regenerate the lint golden file after changing fixtures or finding
# messages; test_lint.ml fails while GOLDEN.txt is stale.
lint-fixtures:
	dune build @default
	dune exec test/lint_golden_gen.exe > test/lint_fixtures/GOLDEN.txt
	@echo "regenerated test/lint_fixtures/GOLDEN.txt"

# One quick experiment per family (E1 accuracy sweep, E10 ablation, E17
# parallel engine, E20 merge topology, E21 serve-path transcript gate):
# CI-style verification
# that harness changes did not regress behaviour, without a full sweep.
bench-smoke:
	dune build @bench-smoke

# The parallel-engine benchmark alone: appends one machine-readable line
# (cores_recommended, per-job GC deltas, speedups) to BENCH_parallel.json.
bench-parallel:
	dune exec bench/main.exe -- e17

# The checking-DP benchmark alone: dense K^2 reference vs the fast
# path (divide and conquer on zipf rows, the row scan on learned rows),
# appending one machine-readable line (build/query/DP split, speedups,
# exact_match per row) to BENCH_closest.json.  Quick mode sweeps zipf
# K <= 2048 plus learned rows at k = 4 and 16; --full goes to K = 8192
# and adds learned k = 32.
bench-closest:
	dune exec bench/main.exe -- e18

# The counts-path oracle benchmark (E19 quick mode): per-trial time vs m
# for the split-tree binomial-splitting path against the alias stream
# path, plus the chi^2 path-equivalence and verdict-distribution gates.
# Non-zero exit if the counts path fails the equivalence check; appends
# one machine-readable line to BENCH_counts.json.
bench-counts:
	dune exec bench/main.exe -- e19

# The merge-topology gate (E20 quick mode): replays a fixed corpus
# single-process and sharded (round-robin, shard-per-domain), merges
# under fold and tree topologies, and requires the chi^2 statistic and
# verdict to be BIT-IDENTICAL to the single-process run on every row —
# plus the GK sketch-merge epsilon-bound check.  Non-zero exit on any
# divergence; appends one machine-readable line to BENCH_merge.json.
bench-merge:
	dune exec bench/main.exe -- e20

# The serve-path gate (E21 quick mode): the batched, pipelined engine
# (wire fast path + one flush per batch, on one domain) must produce
# response transcripts BYTE-IDENTICAL to the line-at-a-time oracle
# (Refkit.Strict_serve) at every batch size, on both an accepting and a
# rejecting corpus.  Non-zero exit on any divergence; also records
# ingest throughput, the speedup over the oracle at batch >= 64, and
# structure-cache hit rates to BENCH_serve.json.
bench-serve:
	dune exec bench/main.exe -- e21

# The socket-transport gate (E22 quick mode): every client's response
# stream over loopback TCP through the Netio reactor must be
# BYTE-IDENTICAL to stdio serve on that client's request stream, at
# every (clients, batch) grid point, on both an accepting and a
# rejecting corpus; and single-client socket throughput must be within
# 1.3x of stdio serve over real pipes.  Non-zero exit on either gate;
# appends one machine-readable line to BENCH_net.json.
bench-net:
	dune exec bench/main.exe -- e22

bench:
	dune exec bench/main.exe

clean:
	dune clean
