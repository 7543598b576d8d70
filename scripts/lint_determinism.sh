#!/bin/sh
# lint_determinism.sh — fail if nondeterminism sneaks into the
# simulation packages. The paper-reproduction path (internal/population,
# internal/canvas) must be a pure function of the seed, and the forest
# trainer (internal/mlearn) must stay worker-count invariant — a pure
# function of (data, config): any call to time.Now, the global
# math/rand functions (which draw from a shared, unseeded source), or a
# stray JS-style Date.now breaks replayability of every figure, golden
# file and trained model. The external sorter (internal/extsort) backs
# the streaming pipeline's spill/merge path and is held to the same
# rule: the merged stream must be a pure function of the pushed items.
# The script-trace simulator (internal/scriptsim) carries the same
# contract as the population: worker-count-invariant corpora pinned by
# golden digests.
#
# Test files are exempt: they may time things or exercise randomness.
set -u

fail=0
for dir in internal/population internal/canvas internal/mlearn internal/extsort internal/scriptsim; do
    for f in "$dir"/*.go; do
        case "$f" in
        *_test.go) continue ;;
        esac
        # time.Now() — wall-clock reads.
        if grep -n 'time\.Now(' "$f"; then
            echo "determinism lint: $f calls time.Now — simulations must derive time from the seed/config" >&2
            fail=1
        fi
        # Global math/rand draws (rand.Intn etc. on the shared source).
        # Seeded instances (rng := rand.New(rand.NewSource(seed)); rng.Intn)
        # are fine and are the idiom these packages use.
        if grep -En '(^|[^.[:alnum:]_])rand\.(Seed|Int|Intn|Int31n?|Int63n?|Uint32|Uint64|Float32|Float64|NormFloat64|ExpFloat64|Perm|Shuffle|Read)\(' "$f"; then
            echo "determinism lint: $f uses the global math/rand source — use a seeded rand.New(rand.NewSource(...))" >&2
            fail=1
        fi
        # Date.now — guards generated/embedded JS snippets too.
        if grep -n 'Date\.now' "$f"; then
            echo "determinism lint: $f references Date.now" >&2
            fail=1
        fi
    done
done

# The population's streams come from newRNG (rng.go): math/rand's
# stream with the register filled lazily, pooled. A rand.NewSource in
# any other non-test population file would bring back the 607-word
# seeding per stream. rng.go itself reads the standard source once at
# init to recover its cooked table.
for f in internal/population/*.go; do
    case "$f" in
    *_test.go | internal/population/rng.go) continue ;;
    esac
    if grep -n 'rand\.NewSource(' "$f"; then
        echo "determinism lint: $f calls rand.NewSource — draw population streams from newRNG" >&2
        fail=1
    fi
done

# Snapshot writers (internal/storage): equal store state must
# serialize to byte-identical output — the golden digests, the
# repeated-compaction test and the cross-shard-count chaos comparisons
# all hash the serialized bytes. Go randomizes map iteration order, so
# any non-test file that emits store state (a JSONL WriteTo or the
# compaction snapshot writer) must route map-derived keys through a
# sorted helper. time.Now is legitimate here (WAL latency metrics);
# the global-rand and Date.now rules still apply.
for f in internal/storage/*.go; do
    case "$f" in
    *_test.go) continue ;;
    esac
    if grep -Eq 'json\.NewEncoder|func writeSnapshot' "$f" \
        && ! grep -Eq 'sort\.Strings|sortedValueHashesLocked' "$f"; then
        echo "determinism lint: $f serializes store state without sorting map-derived keys" >&2
        fail=1
    fi
    if grep -En '(^|[^.[:alnum:]_])rand\.(Seed|Int|Intn|Int31n?|Int63n?|Uint32|Uint64|Float32|Float64|NormFloat64|ExpFloat64|Perm|Shuffle|Read)\(' "$f"; then
        echo "determinism lint: $f uses the global math/rand source — use a seeded rand.New(rand.NewSource(...))" >&2
        fail=1
    fi
    if grep -n 'Date\.now' "$f"; then
        echo "determinism lint: $f references Date.now" >&2
        fail=1
    fi
done

# Matching-engine storage (internal/fpstalker): the interned SoA entry
# store and both linkers must be pure functions of the add/remove
# history — IndexDigest equality across crash recovery, replay and
# swap-delete churn is how the chaos suites prove state integrity, so
# wall-clock reads or global-rand draws in the storage/scoring files
# would poison every digest comparison. evaluate.go is exempt: it
# legitimately times match latency (the paper's Figure 9 measurement);
# learning.go's seeded rand.New sampling passes the global-rand rule.
for f in internal/fpstalker/intern.go internal/fpstalker/store.go \
    internal/fpstalker/engine.go internal/fpstalker/fpstalker.go \
    internal/fpstalker/rules.go internal/fpstalker/learning.go; do
    [ -f "$f" ] || { echo "determinism lint: missing $f (store layout moved?)" >&2; fail=1; continue; }
    if grep -n 'time\.Now(\|time\.Since(' "$f"; then
        echo "determinism lint: $f reads the wall clock — entry state must derive from record timestamps" >&2
        fail=1
    fi
    if grep -En '(^|[^.[:alnum:]_])rand\.(Seed|Int|Intn|Int31n?|Int63n?|Uint32|Uint64|Float32|Float64|NormFloat64|ExpFloat64|Perm|Shuffle|Read)\(' "$f"; then
        echo "determinism lint: $f uses the global math/rand source — use a seeded rand.New(rand.NewSource(...))" >&2
        fail=1
    fi
    if grep -n 'Date\.now' "$f"; then
        echo "determinism lint: $f references Date.now" >&2
        fail=1
    fi
done

# Linking service (internal/linkd): eviction cutoffs and chaos-test
# replay are deterministic only because every wall-clock read funnels
# through Options.Clock or the package's single `wallClock` variable
# (an alias of time.Now — the bare identifier, never a call). A direct
# time.Now()/time.Since() in a non-test file would let real time leak
# into eviction decisions and break the recovered-state digest
# comparisons. The global-rand and Date.now rules apply unchanged.
for f in internal/linkd/*.go; do
    case "$f" in
    *_test.go) continue ;;
    esac
    if grep -n 'time\.Now(' "$f"; then
        echo "determinism lint: $f calls time.Now() — route it through Options.Clock or wallClock" >&2
        fail=1
    fi
    if grep -n 'time\.Since(' "$f"; then
        echo "determinism lint: $f calls time.Since — compute deltas from the injected clock" >&2
        fail=1
    fi
    if grep -En '(^|[^.[:alnum:]_])rand\.(Seed|Int|Intn|Int31n?|Int63n?|Uint32|Uint64|Float32|Float64|NormFloat64|ExpFloat64|Perm|Shuffle|Read)\(' "$f"; then
        echo "determinism lint: $f uses the global math/rand source — use a seeded rand.New(rand.NewSource(...))" >&2
        fail=1
    fi
    if grep -n 'Date\.now' "$f"; then
        echo "determinism lint: $f references Date.now" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "determinism lint FAILED" >&2
    exit 1
fi
echo "determinism lint OK"
