# Local CI: `make check` chains lint -> tier-1 tests -> traced smoke
# (one-shot fig10 plus the continuous figc sweep) -> a fixed-seed
# differential-oracle smoke (faults off and on, plus the continuous
# A/B legs) -> a serving-layer smoke (in-process server, 50 seeded
# queries over the wire, zero sheds/errors, clean shutdown) -> a
# sharded-world smoke (lockstep differential vs single-process plus a
# process-backend figure run) -> the benchmark's own smoke test (all
# four bench/ workloads at 1/20 scale, untraced and traced).
#
# Nothing here gates on a wall-clock number: one run on a shared
# machine cannot resolve one.  Speed claims are A/B'd with the bench/
# harness (README "Measuring performance"):
#
#   make bench-ab BASE=<rev> WORKLOAD=<name>|all [PAIRS=10]
#
# which runs the workload from BASE and from this tree in interleaved
# pairs and writes both sides as bench/spread.py sets for
# bench/compare.py; WORKLOAD=all runs the four in turn and ends with
# bench/compare.py's verdict rows for each.
#
# ruff and mypy are optional (the CI image may not ship them); their
# targets detect absence and skip with a notice instead of failing, so
# `make check` works on a bare python+numpy+pytest toolchain.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test smoke oracle-smoke serve-smoke shard-smoke \
	bench-smoke bench-ab loc reach experiments

check: lint test smoke oracle-smoke serve-smoke shard-smoke bench-smoke

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		echo ">> ruff check"; ruff check src tests; \
	else \
		echo ">> ruff not installed; skipping lint"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		echo ">> mypy"; mypy; \
	else \
		echo ">> mypy not installed; skipping typecheck"; \
	fi
	@echo ">> retired measurement stack stays retired"
	@# (bracket expressions keep this line from matching itself)
	@! grep -rIn 'BENCH_PR[0-9]\|cli[ ]profile\|--worker[-]profile' \
		README.md Makefile src tests benchmarks examples
	@echo ">> the halo payload stays a ShareResponse, the shard seam stays pickle-free"
	@! grep -rIn '\<Share[P]ayload\>\|share[_]payload\|region[_]union=' src
	@! grep -rIn 'OP_CALL[_]PICKLE\|[_]PICKLE\|import[ ]pickle' \
		src/repro/shard src/repro/codec/types.py
	@echo ">> the merged MVR stays a per-query transient, the collector policy has one definition"
	@! grep -rIn 'delta[_]merges\|[_]memo: Ordered[D]ict' src
	@! grep -rIn '__del[_]_\|weak[r]ef' src/repro
	@test "$$(grep -rI 'set[_]threshold' src | wc -l)" -eq 1
	@echo ">> a cache keeps rectangles: no persistent slab core, no second cache mode, no pickle hooks"
	@! grep -rIn 'insert[_]rect\|subtract[_]rect\|subtract[_]point_cut\|region[_]union\|TAG_SLAB[_]UNION\|MIRROR[_]COMPACT\|incremental[=]\|__reduce[_]_' src/repro
	@echo ">> retired world options and capabilities stay out of src/repro"
	@! grep -rIn 'position[_]refresh_interval\|speed[_]range_mph\|pause[_]range_s\|cache[_]gossip\|max[_]responders\|station[_]kwargs\|Random[W]aypoint\|run[_]until_steady\|\<Any[O]f\>\|\<All[O]f\>\|carry[_]generations_from\|[_]pois_memo\|bench[-]quick' src/repro
	@echo ">> two access models, one index, no side kernel: the R-tree, the DES resources and the second seed derivation stay out"
	@! grep -rIn '\<R[T]ree\>\|Counting[R]TreeView\|broadcast[_]process\|request[_]process\|sim[.]resources\|seeds[=]' src/repro examples benchmarks
	@echo ">> one channel read, one pipeline per query kind, one standing-query registry"
	@test "$$(grep -rI 'retrieve_with[_]recovery(' src/repro | grep -v 'broadcast/schedule.py' | wc -l)" -eq 1
	@! grep -rIn '[_]finalize_member\|annotate[=]\|host[^ ]*\.standing\>' src/repro
	@echo ">> one disc read: the closed form is called by the batched kernel and the brute oracle, core prices no piece itself"
	@test "$$(grep -rI 'circle_rect_intersection[_]area(' src/repro | grep -v 'geometry/circle.py' | wc -l)" -eq 2
	@! grep -rIn 'disjoint[_]rects()' src/repro/core
	@echo ">> the clock is a float, a sweep has one door, the world holds the one tracer, the server keeps centre columns: retired names stay out"
	@! grep -rIn 'index[_]center_lists\|[_]index_center_x[_]list\|[_]index_center_y[_]list\|repro[.]sim\|from [.][.]sim\|Sweep[R]unner\|run_knn[_]txrange\|run_knn[_]cache\|run_knn[_]k\>\|run_wq[_]txrange\|run_wq[_]cache\|run_wq[_]size\|use_safe[_]regions\|batch[_]scans=\|[.]cache[.]tracer\|trace[_]limit' src/repro examples benchmarks
	@echo ">> a cache's region upkeep has one piece of state: the moved-region marker, no coalesced flag beside it"
	@! grep -rIn '_regions[_]coalesced' src tests
	@echo ">> a shared result enters a cache in one call; the coordinate mirror stays inside the cache store"
	@! grep -rIn 'for region, pois [i]n' src/repro/experiments src/repro/shard
	@test "$$(grep -rIl '[_]slot[_]' src tests tools examples benchmarks bench | grep -v '^src/repro/cache/store.py$$' | wc -l)" -eq 0
	@echo ">> a union answers the query path's reads; the retired frame, message and knobs stay out"
	@! grep -rIn 'boundary[_]segments\|slab[_]intervals\|union[_]with\|slabs[_]intersects_rect\|event[_]outcome\|MSG[_]UPDATE\|report[_]location\|overload[_]depth\|sim[_]factory' src/repro
	@! grep -n '__getattr[_]_' src/repro/geometry/slabunion.py
	@echo ">> each query reads its peers once: one candidate gather, one d* read, both in core/nnv.py"
	@test "$$(grep -rI 'first_contained(' src/repro | grep -v '^src/repro/core/nnv.py:' | wc -l)" -eq 0
	@! grep -n 'distance_to_boundary(' src/repro/experiments/host.py
	@echo ">> one serializer on the wire: the struct QUERY/ANSWER layouts and the value codec stay out"
	@! grep -rIn 'TAG_SB[_]GENERIC\|TAG_SB[_]QUERY\|TAG_SB[_]ANSWER\|write[_]value\|read[_]value\|codec[.]values\|[_]try_encode[_]' src tests
	@echo ">> one door to Figures 10-15: the FIGURES rows carry the claims, no figure runner beside them"
	@! grep -rIn 'run[_]figure(' benchmarks
	@! grep -rIn 'series[_]payload' src tests benchmarks
	@echo ">> one command reproduces the paper: no bench knobs, no profiles, no timing fixture"
	@! grep -rIn 'REPRO[_]BENCH_\|benchmark[-]only\|benchmark[-]disable\|pytest[-]benchmark\|benchmark[.]pedantic\|def profile[(]' \
		README.md EXPERIMENTS.md Makefile pyproject.toml benchmarks tools
	@echo ">> a shard builds a host on first need, the broadcast file is built from arrays"
	@! grep -n '[_]make_host(gid) for' src/repro/shard/worker.py
	@! grep -n 'value[_]of_point(\|rect[_]of_value(' src/repro/broadcast/server.py
	@echo ">> one position snapshot and one query pipeline: no shard fleet class, no id-to-row dict, one outcome type, no tests-only opcode"
	@! grep -rIn 'ShardFleet[S]oA\|shard[f]leet\|[_]id_to_local\|Relayed[O]utcome\|OP_OWNED[_]COUNT' src
	@test "$$(grep -rI 'def host[_]position' src/repro | wc -l)" -eq 1
	@echo ">> a process holds only what it runs: numpy is the one runtime dependency, a shard's ownership is its snapshot mask"
	@! grep -rIn 'import network[x]\|from network[x]' src/repro
	@! grep -rIn '[_]owned_ids' src
	@echo ">> a query looks its neighbourhood up once: no passive-lookup knob, one ring for the share request and the overhearers"
	@! grep -rIn 'count[_]traffic' src tests benchmarks examples
	@test "$$(grep -rI 'peers[_]of(' src/repro/experiments | wc -l)" -eq 1
	@test "$$(grep -I 'network[.]peers[_]of(' src/repro/experiments/world.py | wc -l)" -eq 1
	@echo ">> a cached POI is one table entry: no per-POI record, no share memo on a host, the clocks stay in their policies"
	@! grep -rIn 'Cache[I]tem\|[_]share_memo\|[_]share_generation' src/repro
	@! grep -rIn 'last[_]used\|inserted[_]at' src/repro \
		| grep -v '^src/repro/cache/policy[.]py:\|^src/repro/codec/types[.]py:'
	@echo ">> the broadcast file is static: a plan reads a value span, one place builds a block's pair, once per server"
	@! grep -rIn '[_]pois_per_region\|values[_]intersecting' src/repro
	@! grep -n 'flatten()\|[.]sort()' src/repro/geometry/hilbert.py
	@test "$$(grep -rI 'block[_]rect(' src/repro | grep -v '^src/repro/geometry/hilbert.py:' | wc -l)" -eq 1
	@test "$$(grep -rI '[_]blocks\[' src/repro | wc -l)" -eq 1

test:
	@echo ">> tier-1 tests"
	$(PYTHON) -m pytest -x -q

smoke:
	@echo ">> traced figure smoke (fig10, two sweep values)"
	$(PYTHON) -m repro.cli figure fig10 --values 50 200 --scale 0.02 \
		--warmup 30 --measure 20 --trace /tmp/repro-smoke.jsonl > /dev/null
	$(PYTHON) -m repro.cli trace-summary /tmp/repro-smoke.jsonl \
		| tail -n 1
	@rm -f /tmp/repro-smoke.jsonl
	@echo ">> traced continuous smoke (figc)"
	$(PYTHON) -m repro.cli figure figc --values 20 60 --scale 0.02 \
		--warmup 40 --measure 60 --trace /tmp/repro-smoke-figc.jsonl \
		> /dev/null
	$(PYTHON) -m repro.cli trace-summary /tmp/repro-smoke-figc.jsonl \
		| tail -n 1
	@rm -f /tmp/repro-smoke-figc.jsonl

oracle-smoke:
	@echo ">> differential-oracle smoke (fixed seed, faults off and on)"
	$(PYTHON) -m repro.cli check --seed 0 --queries 600

serve-smoke:
	@echo ">> serving-layer smoke (ephemeral port, 50 wire queries)"
	$(PYTHON) -m repro.cli load --spawn --count 50 --connections 2 \
		--lockstep --expect-clean

shard-smoke:
	@echo ">> sharded lockstep differential (bit-identity vs single-process)"
	$(PYTHON) -m pytest -x -q tests/test_shard_differential.py
	@echo ">> sharded CLI smoke (fig10 on 4 shards, process backend)"
	$(PYTHON) -m repro.cli figure fig10 --scale 0.05 --warmup 60 \
		--measure 40 --shards 4 --shard-backend process > /dev/null

bench-smoke:
	@echo ">> benchmark smoke (bench/ workloads at 1/20 scale)"
	$(PYTHON) -m pytest bench -q

bench-ab:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || \
		{ echo "usage: make bench-ab BASE=<rev> WORKLOAD=<name>|all [PAIRS=10]"; exit 2; }
	$(PYTHON) tools/bench_ab.py $(BASE) $(WORKLOAD) $(or $(PAIRS),10)

loc:
	@test -n "$(BASE)" || { echo "usage: make loc BASE=<rev>"; exit 2; }
	$(PYTHON) tools/loc_table.py $(BASE)

# Not part of `check` (~7 min on 2 cores): the paper's evaluation at one
# budget.  Figures 10-15 and figc, one CSV each under benchmarks/results/,
# fail if any claim of a FIGURES row reads FAIL; then the table scripts
# under benchmarks/ (plain pytest) write one .txt each there and fail on
# any assert.  A run is "<figure> <seed> <warm-up queries> <values...>".
experiments:
	@failed=0; for run in "fig10 10 2200 10 50 100 200" \
		"fig11 11 2200 6 14 22 30" "fig12 12 2200 3 7 11 15" \
		"fig13 13 3500 10 50 100 200" "fig14 14 3500 6 14 22 30" \
		"fig15 15 3500 1 3 5" "figc 16 2200 25 50 100"; do \
		set -- $$run; name=$$1; seed=$$2; warmup=$$3; shift 3; \
		out=$$($(PYTHON) -m repro.cli figure $$name --values "$$@" \
			--seed $$seed --warmup $$warmup --scale 0.06 --measure 400 \
			--workers 2 --out benchmarks/results/$$name.csv) || exit 1; \
		echo "$$out"; case "$$out" in *"claim FAIL"*) failed=1;; esac; \
	done; test $$failed -eq 0
	$(PYTHON) -m pytest -q -p no:cacheprovider benchmarks

# Not part of `check` (~18 min): which code lines of src/repro does any
# command, check leg, bench pass, example or benchmarks/ script reach?
reach:
	$(PYTHON) tools/reach_table.py
