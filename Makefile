.PHONY: build test bench bench-smoke bench-lp serve-smoke obs-smoke chaos-smoke \
  bench-exec scenarios-smoke bench-scenarios dist-smoke bench-dist \
  reproduce goldens clean

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# One tiny grid cell pushed through the fork-based worker pool end to end:
# generates a workload, runs two policies plus the LP bounds in 2 workers,
# and writes (then type-checks by parsing) the JSON artifact.  Also records
# a span trace (kept on disk for the CI artifact upload) and validates it.
bench-smoke:
	dune exec bin/main.exe -- sweep --kinds poisson -m 4 --rates 2 \
	  --rounds 4 --seeds 1 --policies maxcard,maxweight --lp --jobs 2 \
	  --trace SMOKE_trace.json --out _smoke_sweep.json
	@grep -q '"schema": "flowsched-sweep/1"' _smoke_sweep.json \
	  && echo "bench-smoke: OK (_smoke_sweep.json valid)" \
	  || (echo "bench-smoke: BAD artifact" && exit 1)
	dune exec bin/main.exe -- check-trace SMOKE_trace.json
	@rm -f _smoke_sweep.json

# Metric-merge determinism gate: the same sweep grid through 4 forked
# workers and inline must report byte-identical counter totals (gauges carry
# wall-clock time and pool.* counters only fire in the forked parent, so
# both are excluded from the comparison).
obs-smoke:
	dune exec bin/main.exe -- sweep --kinds poisson,uniform -m 4 --rates 2 \
	  --rounds 4 --seeds 1,2 --policies maxcard,minrtime --lp --jobs 4 \
	  --metrics --out _obs_sweep4.json 2>_obs_metrics4.txt
	dune exec bin/main.exe -- sweep --kinds poisson,uniform -m 4 --rates 2 \
	  --rounds 4 --seeds 1,2 --policies maxcard,minrtime --lp --jobs 1 \
	  --metrics --out _obs_sweep1.json 2>_obs_metrics1.txt
	@grep '^counter ' _obs_metrics4.txt | grep -v '^counter pool\.' > _obs_c4.txt
	@grep '^counter ' _obs_metrics1.txt | grep -v '^counter pool\.' > _obs_c1.txt
	@diff _obs_c1.txt _obs_c4.txt \
	  && echo "obs-smoke: OK (jobs=4 counter totals match jobs=1)" \
	  || (echo "obs-smoke: counter totals diverge between --jobs 1 and --jobs 4" && exit 1)
	@rm -f _obs_sweep1.json _obs_sweep4.json _obs_metrics1.txt _obs_metrics4.txt \
	  _obs_c1.txt _obs_c4.txt

# Resilience gate: the same sweep grid three ways — fault-free, under
# deterministic chaos injection (must converge to the same artifact given a
# retry budget), and SIGKILLed mid-run then resumed from its checkpoint
# (must also match).  Only the timing fields (wall_clock_s, phaseN_seconds)
# legitimately differ, so they are filtered before diffing.
CHAOS_GRID = --kinds poisson,uniform -m 4 --rates 2 --rounds 4,5 --seeds 1,2 \
  --policies maxcard,minrtime --lp --jobs 2
CHAOS_FILTER = grep -v 'wall_clock_s\|phase1_seconds\|phase2_seconds'

chaos-smoke: build
	@rm -f _chaos_ref.json _chaos_run.json _chaos_resume.json _chaos_ckpt.jsonl _chaos_*.f
	_build/default/bin/main.exe sweep $(CHAOS_GRID) --out _chaos_ref.json 2>/dev/null
	_build/default/bin/main.exe sweep $(CHAOS_GRID) --chaos 11 --retries 10 \
	  --timeout 5 --out _chaos_run.json 2>/dev/null
	@$(CHAOS_FILTER) _chaos_ref.json > _chaos_ref.f
	@$(CHAOS_FILTER) _chaos_run.json > _chaos_run.f
	@diff _chaos_ref.f _chaos_run.f >/dev/null \
	  && echo "chaos-smoke: chaos run converged to the fault-free artifact" \
	  || (echo "chaos-smoke: chaos artifact diverges from fault-free run" && exit 1)
	@_build/default/bin/main.exe sweep $(CHAOS_GRID) \
	  --checkpoint _chaos_ckpt.jsonl --out _chaos_resume.json 2>/dev/null & \
	pid=$$!; tries=0; \
	while [ ! -s _chaos_ckpt.jsonl ] && [ $$tries -lt 200 ]; do sleep 0.05; tries=$$((tries+1)); done; \
	kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null; true
	_build/default/bin/main.exe sweep $(CHAOS_GRID) \
	  --checkpoint _chaos_ckpt.jsonl --resume --out _chaos_resume.json 2>/dev/null
	@$(CHAOS_FILTER) _chaos_resume.json > _chaos_resume.f
	@diff _chaos_ref.f _chaos_resume.f >/dev/null \
	  && echo "chaos-smoke: SIGKILL + resume reproduced the artifact" \
	  || (echo "chaos-smoke: resumed artifact diverges" && exit 1)
	@rm -f _chaos_ref.json _chaos_run.json _chaos_resume.json _chaos_ckpt.jsonl _chaos_*.f

# Cold-vs-warm simplex pipeline bench on representative figure-cell LPs,
# plus the large-instance tier (single ART round-LPs at 240 and 600 flows,
# the sparse engine's target regime) in smoke form.  Exits non-zero if any
# warm-started solve disagrees with the cold objective beyond 1e-6; writes
# BENCH_lp.json (per-cell pivots, sparsity counters, wall time) so future
# changes have a perf trajectory to compare against.
bench-lp:
	dune exec bench/main.exe -- lp --json --smoke
	@grep -q '"schema": "flowsched-bench-lp/2"' BENCH_lp.json \
	  && echo "bench-lp: OK (BENCH_lp.json valid)" \
	  || (echo "bench-lp: BAD artifact" && exit 1)

# Serve-loop gate: a 100k-slot bounded-memory run with the incremental
# matching core must be byte-stable across two invocations for a fixed
# seed (the outcome is all-integer, so wall-clock variance cannot leak in),
# and the serve bench's exactness gate must report the incremental matching
# cardinality equal to a from-scratch Hopcroft-Karp on every slot.
serve-smoke:
	dune exec bin/main.exe -- serve --core incremental --workload uniform \
	  -m 8 --rate 6 --slots 100000 --seed 7 --status-every 0 --json \
	  > _serve_a.json 2>/dev/null
	dune exec bin/main.exe -- serve --core incremental --workload uniform \
	  -m 8 --rate 6 --slots 100000 --seed 7 --status-every 0 --json \
	  > _serve_b.json 2>/dev/null
	@diff _serve_a.json _serve_b.json >/dev/null \
	  && echo "serve-smoke: 100k-slot run byte-stable across invocations" \
	  || (echo "serve-smoke: outcome not reproducible for a fixed seed" && exit 1)
	@grep -q '"completed": 0' _serve_a.json \
	  && (echo "serve-smoke: no flows completed" && exit 1) \
	  || echo "serve-smoke: OK ($$(grep -o '"completed": [0-9]*' _serve_a.json | head -1 | grep -o '[0-9]*') flows completed)"
	dune exec bench/main.exe -- serve --json
	@grep -q '"schema": "flowsched-bench-serve/1"' BENCH_serve.json \
	  && grep -q '"disagreements": 0' BENCH_serve.json \
	  && echo "serve-smoke: OK (BENCH_serve.json valid, exactness gate clean)" \
	  || (echo "serve-smoke: BAD artifact or exactness gate failure" && exit 1)
	@rm -f _serve_a.json _serve_b.json

# Executor bench: fork vs inline over the same sweep grid (the artifacts
# must agree byte-for-byte modulo timing).
# Writes BENCH_exec.json; exits non-zero on any disagreement.
bench-exec:
	dune exec bench/main.exe -- exec --json --jobs 4
	@grep -q '"schema": "flowsched-bench-exec/3"' BENCH_exec.json \
	  && grep -q '"disagreements": 0' BENCH_exec.json \
	  && echo "bench-exec: OK (BENCH_exec.json valid, backends agree)" \
	  || (echo "bench-exec: BAD artifact or backend disagreement" && exit 1)

# Scenario-matrix byte-identity gate: the same policy x workload x mode grid
# (8 zoo kinds x 3 problem modes x 2 seeds, LP bounds on) through 1 inline
# worker and 4 forked workers must write byte-for-byte
# identical artifacts — matrix cells deliberately carry no wall-clock or
# worker-count metadata, so cmp(1) is the whole gate.
MATRIX_GRID = --kinds poisson,pareto:1.5,lognormal,bursty,diurnal,flash-crowd,bimodal,staircase \
  --modes flows,endpoint:2:2,coflow:3:4 -m 5 --rates 2.5 --rounds 6 --seeds 1,2 \
  --max-demand 3 --lp

scenarios-smoke: build
	@rm -f _matrix_j1.json _matrix_j4.json
	_build/default/bin/main.exe matrix $(MATRIX_GRID) --jobs 1 --backend inline \
	  --out _matrix_j1.json
	_build/default/bin/main.exe matrix $(MATRIX_GRID) --jobs 4 --backend fork \
	  --out _matrix_j4.json
	@cmp _matrix_j1.json _matrix_j4.json \
	  && echo "scenarios-smoke: matrix artifact byte-identical (inline --jobs 1 vs fork --jobs 4)" \
	  || (echo "scenarios-smoke: matrix artifact diverges across jobs/backends" && exit 1)
	@grep -q '"schema": "flowsched-matrix/1"' _matrix_j1.json \
	  && echo "scenarios-smoke: OK (_matrix_j1.json valid)" \
	  || (echo "scenarios-smoke: BAD artifact" && exit 1)
	@rm -f _matrix_j1.json _matrix_j4.json

# Scenarios bench: the same matrix grid on the inline and fork backends;
# any byte-level artifact disagreement exits non-zero.  Writes the
# schema-checked BENCH_scenarios.json for the CI artifact upload.
bench-scenarios:
	dune exec bench/main.exe -- scenarios --json --jobs 4
	@grep -q '"schema": "flowsched-bench-scenarios/2"' BENCH_scenarios.json \
	  && grep -q '"disagreements": 0' BENCH_scenarios.json \
	  && echo "bench-scenarios: OK (BENCH_scenarios.json valid, backends agree)" \
	  || (echo "bench-scenarios: BAD artifact or backend disagreement" && exit 1)

# Distributed-sweep chaos gate: three shard workers over the chaos grid.
# Worker 0 is killed mid-shard (deterministic fault plan, no retries — the
# first injected fault is fatal), leaving its lease and a partial CRC-sealed
# checkpoint behind.  The merge must refuse the partial grid, a takeover
# worker must claim the stale lease (dead-pid fast path) and finish the
# shard from the crashed worker's prefix, and the final merged artifact —
# DIST_merged.json, kept on disk for the CI upload — must be byte-identical
# to the uninterrupted single-box --jobs 1 run modulo the timing lines.
DIST_GRID = --kinds poisson,uniform -m 4 --rates 2 --rounds 4,5 --seeds 1,2 \
  --policies maxcard,minrtime --lp
DIST_DIR = _dist_ckpt

dist-smoke: build
	@rm -rf $(DIST_DIR) _dist_*.json _dist_*.f _dist_takeover.log DIST_merged.json
	_build/default/bin/main.exe sweep $(DIST_GRID) --jobs 1 --out _dist_ref.json 2>/dev/null
	@_build/default/bin/main.exe sweep $(DIST_GRID) --jobs 1 --shard 0/3 \
	  --checkpoint-dir $(DIST_DIR) --chaos 1 --retries 0 >/dev/null 2>&1; \
	test $$? -ne 0 \
	  && echo "dist-smoke: worker 0 crashed mid-shard (as planned)" \
	  || (echo "dist-smoke: chaos worker unexpectedly survived" && exit 1)
	@test -f $(DIST_DIR)/shard-0-of-3.lease \
	  && test -s $(DIST_DIR)/shard-0-of-3.jsonl \
	  && echo "dist-smoke: crash left lease + partial checkpoint behind" \
	  || (echo "dist-smoke: expected a stale lease and a checkpoint prefix" && exit 1)
	_build/default/bin/main.exe sweep $(DIST_GRID) --jobs 1 --shard 1/3 \
	  --checkpoint-dir $(DIST_DIR) 2>/dev/null
	_build/default/bin/main.exe sweep $(DIST_GRID) --jobs 1 --shard 2/3 \
	  --checkpoint-dir $(DIST_DIR) 2>/dev/null
	@_build/default/bin/main.exe merge $(DIST_GRID) --dir $(DIST_DIR) \
	  --out _dist_partial.json >/dev/null 2>&1; \
	test $$? -ne 0 \
	  && echo "dist-smoke: merge refused the partial grid (missing cells)" \
	  || (echo "dist-smoke: merge accepted a partial grid without --allow-partial" && exit 1)
	_build/default/bin/main.exe sweep $(DIST_GRID) --jobs 1 --shard 0/3 \
	  --checkpoint-dir $(DIST_DIR) 2>_dist_takeover.log
	@grep -q 'takeover: claimed stale lease' _dist_takeover.log \
	  && grep -q 'resuming:' _dist_takeover.log \
	  && echo "dist-smoke: takeover claimed the stale lease and resumed the prefix" \
	  || (echo "dist-smoke: expected a lease takeover + checkpoint resume" && cat _dist_takeover.log && exit 1)
	_build/default/bin/main.exe merge $(DIST_GRID) --dir $(DIST_DIR) --out DIST_merged.json
	@$(CHAOS_FILTER) _dist_ref.json > _dist_ref.f
	@$(CHAOS_FILTER) DIST_merged.json > _dist_merged.f
	@diff _dist_ref.f _dist_merged.f >/dev/null \
	  && echo "dist-smoke: merged artifact byte-identical to single-box --jobs 1 run" \
	  || (echo "dist-smoke: merged artifact diverges from the clean run" && exit 1)
	@rm -rf $(DIST_DIR) _dist_*.json _dist_*.f _dist_takeover.log

# Sharded sweep + verifying merge vs the single-box run; any byte-level
# disagreement (after the timing lines) exits non-zero.  Writes the
# schema-checked BENCH_dist.json for the CI artifact upload.
bench-dist:
	dune exec bench/main.exe -- dist --json --jobs 2
	@grep -q '"schema": "flowsched-bench-dist/1"' BENCH_dist.json \
	  && grep -q '"disagreements": 0' BENCH_dist.json \
	  && echo "bench-dist: OK (BENCH_dist.json valid, merge agrees)" \
	  || (echo "bench-dist: BAD artifact or merge disagreement" && exit 1)

# Artifact-evaluation harness, first slice: rerun the deterministic
# evaluation artifacts and diff them byte-for-byte against the committed
# goldens (goldens/).  The matrix artifact carries no timing metadata at
# all; the sweep artifact is compared after dropping its documented
# wall-clock lines; the serve outcome is all-integer.  Regenerate after an
# intentional change with `make goldens` and commit the diff.
REPRO_SERVE = serve --core incremental --workload uniform -m 8 --rate 6 \
  --slots 20000 --seed 7 --status-every 0 --json

reproduce: build
	@rm -f _repro_*.json _repro_*.f
	_build/default/bin/main.exe matrix $(MATRIX_GRID) --jobs 2 --out _repro_matrix.json 2>/dev/null
	@cmp goldens/matrix.json _repro_matrix.json \
	  && echo "reproduce: matrix artifact matches golden" \
	  || (echo "reproduce: matrix artifact diverges from goldens/matrix.json" && exit 1)
	_build/default/bin/main.exe sweep $(CHAOS_GRID) --out _repro_sweep.json 2>/dev/null
	@$(CHAOS_FILTER) _repro_sweep.json > _repro_sweep.f
	@diff goldens/sweep.filtered.json _repro_sweep.f >/dev/null \
	  && echo "reproduce: sweep artifact matches golden (timing lines excluded)" \
	  || (echo "reproduce: sweep artifact diverges from goldens/sweep.filtered.json" && exit 1)
	_build/default/bin/main.exe $(REPRO_SERVE) > _repro_serve.json 2>/dev/null
	@cmp goldens/serve.json _repro_serve.json \
	  && echo "reproduce: serve outcome matches golden" \
	  || (echo "reproduce: serve outcome diverges from goldens/serve.json" && exit 1)
	@rm -f _repro_*.json _repro_*.f
	@echo "reproduce: OK (all artifacts match the committed goldens)"

# Regenerate the committed goldens (after an intentional behavior change).
goldens: build
	@mkdir -p goldens
	_build/default/bin/main.exe matrix $(MATRIX_GRID) --jobs 2 --out goldens/matrix.json 2>/dev/null
	_build/default/bin/main.exe sweep $(CHAOS_GRID) --out _golden_sweep.json 2>/dev/null
	@$(CHAOS_FILTER) _golden_sweep.json > goldens/sweep.filtered.json
	@rm -f _golden_sweep.json
	_build/default/bin/main.exe $(REPRO_SERVE) > goldens/serve.json 2>/dev/null
	@echo "goldens regenerated — review and commit goldens/"

clean:
	dune clean
