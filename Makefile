# Development targets. `make ci` is the gate every change must pass:
# vet (go vet plus a gofmt check), build, the full test suite under
# the race detector, a focused race pass over the retrieval path
# (the shared store's statistics and uniqueness verdicts in
# internal/query and the wizards, then the uniqueness verdicts and the
# shared instance index and distinct counter repeated), a repeated race pass over the stepper's answer path, a
# repeated race pass over concurrent reads of one shared
# instance, benchmark smoke
# runs (one iteration; catch bit-rot in the bench harness without
# paying for a full sweep), an observability smoke run (an end-to-end
# wizard session must produce non-zero metrics and a trace), an
# unattended-designer smoke (`muse -auto` on Mondial must auto-answer
# at least one ranked question and still emit refined mappings),
# durable-resume smokes (a WAL-backed server killed mid-dialog must resume
# byte-identically, standalone and under load), the cross-check
# harness (differential oracles over every engine, see DESIGN.md §10),
# a fuzz smoke pass (every fuzz target briefly), the allocation
# guard (serving-path allocs/op within 1.3x of the recorded baseline),
# and a build and self-test of the perfbench benchmark.

GO ?= go

.PHONY: ci vet build test race race-retrieval race-wizard race-instance bench-smoke bench-scaled-smoke obs-smoke auto-smoke server-smoke loadtest-smoke resume-smoke musestat-smoke crosscheck fuzz-smoke bench-guard perfbench-smoke bench loc

ci: vet build race race-retrieval race-wizard race-instance bench-smoke bench-scaled-smoke obs-smoke auto-smoke server-smoke loadtest-smoke resume-smoke musestat-smoke crosscheck fuzz-smoke bench-guard perfbench-smoke

# vet also fails on any tracked Go file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted=$$(git ls-files '*.go' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

race-retrieval:
	$(GO) test -race -count=1 ./internal/query ./internal/core
	$(GO) test -race -count=10 -run 'Unique' ./internal/query
	$(GO) test -race -count=10 -run 'Index|CountDistinct' ./internal/instance

# The stepper's answer path under the race detector, repeated at two
# core counts: an answer under a cancelled context must never report
# success, however the pipeline's end and the cancellation interleave.
race-wizard:
	$(GO) test -race -run TestWizardOracle -count=100 -cpu 2,4 ./internal/crosscheck

# Server sessions read one source instance at once. Values carry no
# caches, so no read writes to the instance; repeat the concurrent-read
# tests under the race detector to keep it that way.
race-instance:
	$(GO) test -race -count=10 -run 'Concurrent|SharedRegistry' ./internal/instance ./internal/chase

# The scaled SF2/SF5 benchmark is excluded here (it builds multi-GB
# instances); bench-scaled-smoke runs its SF2 half on its own.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkChaseFig2$$|BenchmarkChaseScenario$$|BenchmarkProbeRetrieval|BenchmarkProbeQuestion$$' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkProbeTableau|BenchmarkProbeDecide|BenchmarkProbeRefute' -benchtime=1x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkLoadCSV' -benchtime=1x ./internal/load
	$(GO) test -run '^$$' -bench 'BenchmarkWALDialog/fsync=off' -benchtime=1x ./internal/server/walstore
	$(GO) test -run '^$$' -bench 'BenchmarkServerStep$$|BenchmarkServerDialog$$' -benchtime=1x ./internal/server

# Scaled-chase smoke: one SF2 TPCH chase with retained-heap reporting
# (the "scenario firehose" shape). Catches bit-rot in the scaled
# harness without paying for the SF5 sweep; full numbers live in
# BENCH_instance_baseline.json.
bench-scaled-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkChaseScenarioScaled/SF2' -benchtime=1x .

# Cross-check harness: the six differential oracle families (chase,
# query, wizard, resume, server, auto) over every builtin scenario plus
# seeded mutated and random ones, at seeds 1, 2 and 3. A run exits
# non-zero with a minimized repro on any disagreement, and prints it
# here. The harness is deterministic in the seed: seed 1 runs twice,
# and the two outputs must not differ in any byte.
crosscheck:
	@tmp=$$(mktemp -d); st=0; \
	$(GO) build -o $$tmp/musecheck ./cmd/musecheck || st=1; \
	for run in 1 1b 2 3; do \
		[ $$st = 0 ] || break; \
		if $$tmp/musecheck -seed $${run%b} -cases 8 -queries 12 >$$tmp/$$run.txt 2>&1; \
		then tail -n 1 $$tmp/$$run.txt; else cat $$tmp/$$run.txt; st=1; fi; \
	done; \
	if [ $$st = 0 ] && ! cmp -s $$tmp/1.txt $$tmp/1b.txt; then \
		echo "crosscheck: two seed-1 runs printed different output:"; \
		diff $$tmp/1.txt $$tmp/1b.txt | head -n 40; st=1; \
	fi; \
	rm -rf $$tmp; exit $$st

# Brief fuzz pass over every native fuzz target: long enough to replay
# the checked-in corpus and shake the nearby input space, short enough
# for CI. Targets live in internal/load, internal/instance, and
# internal/crosscheck (seeded differential fuzzing).
fuzz-smoke:
	$(GO) test ./internal/load -run '^$$' -fuzz '^FuzzCSV$$' -fuzztime 10s
	$(GO) test ./internal/load -run '^$$' -fuzz '^FuzzXML$$' -fuzztime 10s
	$(GO) test ./internal/instance -run '^$$' -fuzz '^FuzzInsertRow$$' -fuzztime 10s
	$(GO) test ./internal/crosscheck -run '^$$' -fuzz '^FuzzMutatedChase$$' -fuzztime 10s
	$(GO) test ./internal/crosscheck -run '^$$' -fuzz '^FuzzRetrieval$$' -fuzztime 10s

# End-to-end observability check, two halves. First: run a scripted
# Muse-G session on the Fig. 1 scenario with -metrics and -trace, then
# assert the headline counters (questions, refuted probes, chase
# tuples) are non-zero and the trace contains chase spans. Every Fig. 1
# probe is refuted before a scan, so a scripted join-wizard run on the
# same scenario, whose dangling examples are scanned, must count
# retrievals and scanned rows.
# Second: boot musesrv with the flight recorder capturing every step
# (-slow-threshold 0), assert a client-supplied X-Muse-Request-Id
# round-trips into the response header, and that GET /debug/slow
# captured the step with a complete one-trace span tree (the
# server.request root and the core.step span beneath it).
obs-smoke:
	@tmp=$$(mktemp -d); \
	yes 1 | $(GO) run ./cmd/muse -doc testdata/fig1.muse -src CompDB -tgt OrgDB \
		-instance I -mode group -mapping m2 \
		-metrics $$tmp/metrics.txt -trace $$tmp/trace.jsonl >/dev/null && \
	yes 1 | $(GO) run ./cmd/muse -doc testdata/fig1.muse -src CompDB -tgt OrgDB \
		-instance I -mode joins -mapping m2 -metrics $$tmp/joins.txt >/dev/null && \
	grep -q '^muse_museg_questions_total [1-9]' $$tmp/metrics.txt && \
	grep -q '^muse_query_refuted_total [1-9]' $$tmp/metrics.txt && \
	grep -q '^muse_query_evals_total [1-9]' $$tmp/joins.txt && \
	grep -q '^muse_query_rows_scanned_total [1-9]' $$tmp/joins.txt && \
	grep -q '^muse_chase_tuples_total [1-9]' $$tmp/metrics.txt && \
	grep -q '"name":"chase"' $$tmp/trace.jsonl && \
	echo "obs-smoke: metrics and trace OK"; st=$$?; rm -rf $$tmp; exit $$st
	@tmp=$$(mktemp -d); st=1; \
	$(GO) build -o $$tmp/musesrv ./cmd/musesrv && \
	$$tmp/musesrv -addr 127.0.0.1:0 -addr-file $$tmp/addr -slow-threshold 0 & pid=$$!; \
	for i in $$(seq 1 50); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	if [ -s $$tmp/addr ]; then \
		base="http://$$(cat $$tmp/addr)"; \
		curl -fsS -D $$tmp/hdrs -H 'X-Muse-Request-Id: smoke-rid-1' \
			-X POST -d '{"scenario":"fig1"}' "$$base/v1/sessions" >/dev/null && \
		grep -qi '^x-muse-request-id: smoke-rid-1' $$tmp/hdrs && \
		curl -fsS "$$base/debug/slow" >$$tmp/slow.json && \
		jq -e '.steps | map(select(.request_id=="smoke-rid-1")) | .[0] | .trace_id as $$t | ([.spans[].name] | ((index("server.request") != null) and (index("core.step") != null))) and ([.spans[].trace_id] | all(. == $$t))' $$tmp/slow.json >/dev/null && \
		kill -TERM $$pid && wait $$pid && st=$$? && \
		echo "obs-smoke: request-id round-trip and /debug/slow capture OK"; \
	else \
		echo "obs-smoke: server did not come up"; kill $$pid 2>/dev/null; \
	fi; \
	rm -rf $$tmp; exit $$st

# Unattended-designer check: run `muse -auto` end-to-end on Mondial
# (the richest Sec. VI scenario — grouping and disambiguation both
# fire) with evidence ranking on. The piped `yes 1` only feeds the
# escalated questions; the run must still print refined mappings and
# the metrics snapshot must show at least one auto-answered question
# (muse_wizard_auto_answered_total ≥ 1, per ISSUE the bar is ≥50% and
# EXPERIMENTS.md records ~89% at paper scale).
auto-smoke:
	@tmp=$$(mktemp -d); \
	yes 1 | $(GO) run ./cmd/muse -scenario mondial -scale 0.05 -auto \
		-metrics $$tmp/metrics.txt >$$tmp/out.txt && \
	grep -q '=== refined mappings ===' $$tmp/out.txt && \
	grep -q '^muse_wizard_auto_answered_total [1-9]' $$tmp/metrics.txt && \
	echo "auto-smoke: unattended run OK ($$(grep '^muse_wizard_auto_answered_total' $$tmp/metrics.txt | cut -d' ' -f2) auto-answered)"; \
	st=$$?; rm -rf $$tmp; exit $$st

# End-to-end server check, two halves. First: boot musesrv on an
# ephemeral port, run the docs/API.md curl walkthrough (a full Muse-G
# session on the Fig. 1 scenario), assert the session counters
# surfaced on /metrics, then SIGTERM the server and require a clean
# (exit 0) graceful shutdown. Second: boot a WAL-backed server, answer
# three questions, kill it mid-dialog, restart over the same WAL
# directory, and require the restarted replica to serve the pending
# question byte-identically (jq -cS-normalized), finish the dialog via
# the walkthrough's resume form, and report the resume on /metrics.
server-smoke:
	@tmp=$$(mktemp -d); st=1; \
	$(GO) build -o $$tmp/musesrv ./cmd/musesrv && \
	$$tmp/musesrv -addr 127.0.0.1:0 -addr-file $$tmp/addr & pid=$$!; \
	for i in $$(seq 1 50); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	if [ -s $$tmp/addr ]; then \
		base="http://$$(cat $$tmp/addr)"; \
		bash docs/walkthrough.sh "$$base" && \
		curl -fsS "$$base/metrics" >$$tmp/metrics.txt && \
		grep -q '^muse_server_sessions_started_total 1' $$tmp/metrics.txt && \
		grep -q '^muse_server_sessions_finished_total 1' $$tmp/metrics.txt && \
		grep -q '^muse_server_answers_total 11' $$tmp/metrics.txt && \
		kill -TERM $$pid && wait $$pid && st=$$? && \
		echo "server-smoke: session, metrics and graceful shutdown OK"; \
	else \
		echo "server-smoke: server did not come up"; kill $$pid 2>/dev/null; \
	fi; \
	rm -rf $$tmp; exit $$st
	@tmp=$$(mktemp -d); st=1; ok=0; \
	$(GO) build -o $$tmp/musesrv ./cmd/musesrv && \
	$$tmp/musesrv -addr 127.0.0.1:0 -addr-file $$tmp/addr -store wal -wal-dir $$tmp/wal & pid=$$!; \
	for i in $$(seq 1 50); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	if [ -s $$tmp/addr ]; then \
		base="http://$$(cat $$tmp/addr)"; \
		token=$$(curl -fsS -X POST -d '{"scenario":"fig1"}' "$$base/v1/sessions" | jq -r .token) && \
		for a in 2 1 2; do \
			curl -fsS -X POST -d "{\"scenario\": $$a}" "$$base/v1/sessions/$$token/answer" >/dev/null || exit 1; \
		done && \
		curl -fsS "$$base/v1/sessions/$$token" | jq -cS .step >$$tmp/before.json && ok=1; \
		kill -TERM $$pid; wait $$pid; \
	else \
		echo "server-smoke: WAL server did not come up"; kill $$pid 2>/dev/null; \
	fi; \
	if [ $$ok = 1 ]; then \
		$$tmp/musesrv -addr 127.0.0.1:0 -addr-file $$tmp/addr2 -store wal -wal-dir $$tmp/wal & pid=$$!; \
		for i in $$(seq 1 50); do [ -s $$tmp/addr2 ] && break; sleep 0.1; done; \
		if [ -s $$tmp/addr2 ]; then \
			base2="http://$$(cat $$tmp/addr2)"; \
			curl -fsS "$$base2/v1/sessions/$$token" | jq -cS .step >$$tmp/after.json && \
			cmp -s $$tmp/before.json $$tmp/after.json && \
			bash docs/walkthrough.sh "$$base2" "$$token" 3 && \
			curl -fsS "$$base2/metrics" >$$tmp/metrics2.txt && \
			grep -q '^muse_server_resume_total 1' $$tmp/metrics2.txt && \
			kill -TERM $$pid && wait $$pid && st=$$? && \
			echo "server-smoke: WAL kill/restart resume byte-identical OK"; \
		else \
			echo "server-smoke: restarted server did not come up"; kill $$pid 2>/dev/null; \
		fi; \
	fi; \
	rm -rf $$tmp; exit $$st

# Load-test smoke: boot musesrv on an ephemeral port, fire a short
# seeded museload burst (50 dialogs, mixed scenarios), and assert the
# run had zero unexpected errors and produced a well-formed JSON
# report (client and server latency quantiles present). The full-size
# invocation lives in README "Load testing".
loadtest-smoke:
	@tmp=$$(mktemp -d); st=1; \
	$(GO) build -o $$tmp/musesrv ./cmd/musesrv && \
	$(GO) build -o $$tmp/museload ./cmd/museload && \
	$$tmp/musesrv -addr 127.0.0.1:0 -addr-file $$tmp/addr -max-sessions 128 & pid=$$!; \
	for i in $$(seq 1 50); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	if [ -s $$tmp/addr ]; then \
		$$tmp/museload -addr-file $$tmp/addr -seed 1 -concurrency 16 -dialogs 50 \
			-report $$tmp/load.json && \
		jq -e '.errors_total == 0 and .sessions.failed == 0 and .sessions.started == 50 and .steps.total >= 50 and .client_step_seconds.p95 > 0 and .server_step_seconds.p95 > 0 and .server_step_seconds.count >= 50' $$tmp/load.json >/dev/null && \
		kill -TERM $$pid && wait $$pid && st=$$? && \
		echo "loadtest-smoke: $$(jq -r '.steps.total' $$tmp/load.json) steps across 50 dialogs, 0 errors, report OK"; \
	else \
		echo "loadtest-smoke: server did not come up"; kill $$pid 2>/dev/null; \
	fi; \
	rm -rf $$tmp; exit $$st

# Durable-resume smoke under load: boot a WAL-backed musesrv with a
# short 300ms session TTL, then drive seeded museload dialogs that all
# go idle mid-dialog for 700ms (-kill-resume 1 -resume-pause 700ms) —
# long enough for the TTL sweep to evict them — and verify each one
# resumes from the WAL with byte-identical pending-question bytes.
# Asserts zero errors, at least one verified resume round-trip in the
# report, and a non-zero muse_server_resume_total on /metrics.
resume-smoke:
	@tmp=$$(mktemp -d); st=1; \
	$(GO) build -o $$tmp/musesrv ./cmd/musesrv && \
	$(GO) build -o $$tmp/museload ./cmd/museload && \
	$$tmp/musesrv -addr 127.0.0.1:0 -addr-file $$tmp/addr -store wal -wal-dir $$tmp/wal -ttl 300ms & pid=$$!; \
	for i in $$(seq 1 50); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	if [ -s $$tmp/addr ]; then \
		base="http://$$(cat $$tmp/addr)"; \
		$$tmp/museload -addr-file $$tmp/addr -seed 7 -concurrency 4 -dialogs 12 \
			-kill-resume 1 -resume-pause 700ms -report $$tmp/load.json && \
		jq -e '.errors_total == 0 and .resume_checks >= 1' $$tmp/load.json >/dev/null && \
		curl -fsS "$$base/metrics" >$$tmp/metrics.txt && \
		grep -q '^muse_server_resume_total [1-9]' $$tmp/metrics.txt && \
		kill -TERM $$pid && wait $$pid && st=$$? && \
		echo "resume-smoke: $$(jq -r '.resume_checks' $$tmp/load.json) byte-identical WAL resume(s), 0 errors"; \
	else \
		echo "resume-smoke: server did not come up"; kill $$pid 2>/dev/null; \
	fi; \
	rm -rf $$tmp; exit $$st

# Console smoke: boot musesrv, start one session, and require
# cmd/musestat's -once snapshot to report the live session, the served
# requests, and the per-scenario step counter.
musestat-smoke:
	@tmp=$$(mktemp -d); st=1; \
	$(GO) build -o $$tmp/musesrv ./cmd/musesrv && \
	$(GO) build -o $$tmp/musestat ./cmd/musestat && \
	$$tmp/musesrv -addr 127.0.0.1:0 -addr-file $$tmp/addr & pid=$$!; \
	for i in $$(seq 1 50); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	if [ -s $$tmp/addr ]; then \
		base="http://$$(cat $$tmp/addr)"; \
		curl -fsS -X POST -d '{"scenario":"fig4"}' "$$base/v1/sessions" >/dev/null && \
		$$tmp/musestat -once -url "$$base/metrics" >$$tmp/stat.txt && \
		grep -q 'sessions  live 1' $$tmp/stat.txt && \
		grep -q 'requests  2 total' $$tmp/stat.txt && \
		grep -q 'steps     1 total' $$tmp/stat.txt && \
		grep -q 'fig4 1' $$tmp/stat.txt && \
		kill -TERM $$pid && wait $$pid && st=$$? && \
		echo "musestat-smoke: console snapshot OK"; \
	else \
		echo "musestat-smoke: server did not come up"; kill $$pid 2>/dev/null; \
	fi; \
	rm -rf $$tmp; exit $$st

# Instrumentation-overhead guard: with obs disabled, chase and warm
# retrieval allocs/op must stay within the recorded seed baselines
# (see bench_guard_test.go). It runs on 1 and on 4 cores and must pass
# on both: the verdict may not depend on the core count.
bench-guard:
	GOMAXPROCS=1 MUSE_BENCH_GUARD=1 $(GO) test -run TestBenchGuard -count=1 -v .
	GOMAXPROCS=4 MUSE_BENCH_GUARD=1 $(GO) test -run TestBenchGuard -count=1 -v .

# The benchmark's own module: vet it and run its self-tests, so a change
# that breaks its build or a metric name it reads fails here.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Production Go line count, the figure ROADMAP.md tracks: tracked
# non-test .go files outside perfbench/, examples included.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^perfbench/' | xargs cat | wc -l

# Full benchmark sweep with allocation counts; compare against
# BENCH_baseline.json (chase) and BENCH_retrieval_baseline.json
# (retrieval) to track the perf trajectory.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .
