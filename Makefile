# Convenience targets for the reproduction harness.
#
# Every pytest invocation runs with PYTHONPATH=src so the targets work
# from a clean checkout, no `make install` required.

PYTEST = PYTHONPATH=src python -m pytest

.PHONY: install test bench bench-perf perf-check docs-check examples audit-demo reports clean

install:
	python setup.py develop

# Mirrors the tier-1 verify command in ROADMAP.md.
test:
	$(PYTEST) -x -q

bench:
	$(PYTEST) benchmarks/ --benchmark-only

# Substrate micro-benches only; merges results into
# benchmarks/output/BENCH_perf.json, the machine-readable perf trajectory
# PRs are compared against (git_rev + timestamp stamped per flush).
bench-perf:
	$(PYTEST) benchmarks/bench_perf_substrate.py benchmarks/bench_serve_throughput.py benchmarks/bench_serve_worker_scaling.py benchmarks/bench_ecs_cache_cardinality.py benchmarks/bench_push_vs_poll.py --benchmark-only

# The CI perf-smoke gate: fresh bench-perf numbers must stay within 25%
# of the checked-in baseline_perf.json floors.  campaign_large also runs
# the campaign gate (single-worker uplift vs the campaign_throughput
# baseline; 4-worker wall within bounded overhead of serial).
# message_encode/message_decode/serve_throughput_w1_slowpath hold the wire
# codec: the slow path is the serving number no memo hit hides.
# cache_put_get/ecs_cardinality_s1024 hold the cache's maintenance: a heap
# that stops draining or a scoped lookup that scans again shows here first.
perf-check:
	PYTHONPATH=src python benchmarks/check_perf.py warm_resolution campaign_throughput campaign_large serve_throughput_w1 message_encode message_decode serve_throughput_w1_slowpath cache_put_get ecs_cardinality_s1024 --max-regression 0.25

# Docs stay honest: every repro.* package documented in README + API.md,
# every intra-repo markdown link resolves — and the ROADMAP's size gates
# hold: a file that regrows has to raise its ceiling in tools/check_size.py.
# Every definition and module under src/repro is reached from non-test code
# or listed, with a reason, in tools/check_reach_allowlist.txt.
# CI runs this as the docs job.
docs-check:
	python tools/check_docs.py
	python tools/check_size.py
	python tools/check_reach.py

# The full deliverable run: logs captured alongside the repo.
reports:
	$(PYTEST) tests/ 2>&1 | tee test_output.txt
	$(PYTEST) benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

examples:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/ttl_change_latency.py
	PYTHONPATH=src python examples/renumbering_pitfall.py
	PYTHONPATH=src python examples/crawl_ttls.py
	PYTHONPATH=src python examples/ddos_resilience.py
	PYTHONPATH=src python examples/operator_audit.py

clean:
	rm -rf .pytest_cache benchmarks/output build src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
