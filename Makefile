# Convenience driver.  `make check` is the tier-1 gate: full build,
# unit + property tests, a short fixed-seed chaos sweep over all
# kernels plus the fault-injection detection check, the sanitizer
# smoke (faults convicted early, clean circuits silent), the bounded
# simulation-throughput smoke bench with its regression gate, and the
# correctness gates of the optimize and simulate benchmark workloads.

DUNE ?= dune

.PHONY: all build test chaos chaos-supervised crash-chaos sanitize-smoke \
  bench-smoke perf-smoke serve-smoke faultfs-smoke fmt check clean

all: build

build:
	$(DUNE) build

test: build
	$(DUNE) runtest

# Short adversarial sweep: 2 chaos trials per kernel at a fixed seed,
# plus the Eq. 1 fault-injection checks (must all be caught, with the
# wrapper in the reported cyclic core).  The full acceptance sweep is
# `dune exec bin/crush_cli.exe -- chaos --trials 25 --seed 42`.
chaos: build
	$(DUNE) exec bin/crush_cli.exe -- chaos --trials 2 --seed 1

# Supervised sweep with the three Eq. 1 faults injected as tasks: each
# must classify as a deadlock in the failure taxonomy (not a crash or
# timeout) and the command must exit 0 — one misclassified fault or
# failed trial is a hard failure.  Exercises the --keep-going paths
# (taxonomy, summary table, per-class exit codes) end to end.
chaos-supervised: build
	$(DUNE) exec bin/crush_cli.exe -- chaos --keep-going --inject-faults \
	  --trials 2 --seed 1 --kernel atax --jobs 2

# Crash-chaos acceptance: a sharded sweep across 3 worker processes
# with 2 seeded SIGKILLs delivered mid-campaign and one injected hard
# hang that only the supervisor's heartbeat watchdog can end.  The
# sweep must complete every task, then the CLI re-runs the same tasks
# serially (--jobs 1) and byte-compares the merged shard journal
# against the serial one — any divergence, missed kill or unpreempted
# hang exits nonzero.  Journals land under _build/crash-chaos/ (never
# the source tree) and are left in place for CI artifacts.
crash-chaos: build
	rm -rf _build/crash-chaos
	mkdir -p _build/crash-chaos
	$(DUNE) exec bin/crush_cli.exe -- chaos --kernel atax --trials 4 \
	  --shards 3 --crash-workers 2 --seed 1 --timeout-s 30 --retries 1 \
	  --heartbeat-s 2 --fsync --journal _build/crash-chaos/crash-chaos.jsonl

# Elastic-protocol sanitizer smoke: the three Eq. 1 fault circuits must
# each be convicted strictly earlier than quiescence deadlock detection,
# and every kernel x both codegen strategies x {unperturbed, 2 chaos
# seeds} must run to a correct result with zero violations.  Any
# violation on a clean circuit or a late/missed conviction exits 1.
sanitize-smoke: build
	$(DUNE) exec bin/crush_cli.exe -- sanitize --trials 2 --seed 1

# Bounded (<60s) perf smoke: every kernel x 2 seeds, serial vs
# parallel campaign, written to BENCH_sim.json.  Refuses to overwrite
# the baseline on a >20% serial cycles/sec regression; export
# BENCH_ALLOW_REGRESSION=1 to accept a new, slower baseline on purpose
# (e.g. after moving to different hardware).
bench-smoke: build
	$(DUNE) exec bench/main.exe -- smoke --jobs 4

# Correctness gates of the repository benchmark on its optimize and
# simulate workloads (held-out seed 2, short windows, traced): exits 1
# if a shared circuit computes a wrong result, a group count changes
# between rounds, or a sanitized run takes a different number of cycles
# than the unmonitored run of the same image.  Timings (stage profile,
# sanitizer overhead, cycles/s, minor words) are printed, never gated.
perf-smoke: build
	bash bench/perf/run.sh --workload optimize --seed 2 --seconds 2 --trace 1
	bash bench/perf/run.sh --workload simulate --seed 2 --seconds 2 --trace 1

# Serving-layer smoke: boot a private `crush serve` daemon, drive it
# with concurrent clients over a mixed workload (cache hits/misses,
# malformed bodies, zero deadlines), protocol-chaos clients
# (slow-loris, oversized payloads, mid-request disconnects) and one
# mid-run worker SIGKILL, then a high-concurrency scale leg (8
# connections, alternating batch-tier and worker-tier cache-warm jobs),
# then SIGTERM it and gate on a clean drain: zero leaked fds, zero
# surviving workers, correct API codes, a nonzero cache hit rate,
# batch-tier p50 strictly below worker-tier p50, and a nonzero
# image-cache hit rate.  Metrics land in BENCH_serve.json.
serve-smoke: build
	$(DUNE) exec bin/crush_cli.exe -- bench-serve --clients 4 --requests 8 \
	  --chaos-clients 2 --kill-workers 1 --connections 8 --duration 5 \
	  --out BENCH_serve.json

# I/O fault-schedule exploration: every durability scenario (journal
# append, atomic replace, shard merge, supervised campaign) re-run once
# per (I/O op, fault class) — EIO, ENOSPC, short write, EINTR,
# crash-after-op — gating on zero recovery-invariant violations, zero
# .tmp residue and zero leaked fds.  The per-injection-point verdict
# table lands in _build/faultfs/verdicts.jsonl for CI artifacts.  A
# second leg boots the serve daemon with the injector armed against its
# request journal and gates on 503 journal-lost classification,
# degraded-mode survival and a clean drain.
faultfs-smoke: build
	rm -rf _build/faultfs
	mkdir -p _build/faultfs
	$(DUNE) exec bin/crush_cli.exe -- faultfs --root _build/faultfs/scratch \
	  --out _build/faultfs/verdicts.jsonl
	$(DUNE) exec bin/crush_cli.exe -- bench-serve --clients 2 --requests 6 \
	  --faultfs --out _build/faultfs/BENCH_serve_faultfs.json

# Reformat the tree with the ocamlformat version pinned in .ocamlformat.
# Requires `opam install ocamlformat.0.27.0`; CI runs the check-only
# variant (`dune build @fmt`) as an advisory job.
fmt:
	$(DUNE) build @fmt --auto-promote

check: build test chaos chaos-supervised crash-chaos sanitize-smoke \
  bench-smoke perf-smoke serve-smoke faultfs-smoke

clean:
	$(DUNE) clean
