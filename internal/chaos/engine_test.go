package chaos

import (
	"reflect"
	"testing"
)

// runClean executes one canned timeline and requires zero violations.
func runClean(t *testing.T, name string, seed int64) *Result {
	t.Helper()
	tl, ok := FindTimeline(name)
	if !ok {
		t.Fatalf("no timeline %q", name)
	}
	res, err := Run(Config{Seed: seed, Logf: t.Logf}, tl)
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.AckedWrites == 0 {
		t.Error("no writes were ever acknowledged")
	}
	return res
}

func TestTimelinePartitionRolling(t *testing.T) {
	res := runClean(t, "partition-rolling", 1)
	if res.Trips == 0 {
		t.Error("rolling partitions tripped no breaker")
	}
	if res.Readmits == 0 {
		t.Error("healed partitions re-admitted no replica")
	}
}

func TestTimelinePartitionSplit(t *testing.T) {
	res := runClean(t, "partition-split", 2)
	if res.ExclRaces == 0 {
		t.Error("no exclusive-create races ran")
	}
}

func TestTimelineFlap(t *testing.T) {
	res := runClean(t, "flap", 3)
	if res.Trips == 0 {
		t.Error("flapping replica tripped no breaker")
	}
}

func TestTimelineCorruptOne(t *testing.T) {
	res := runClean(t, "corrupt-one", 4)
	if res.Flips == 0 {
		t.Error("corruption window flipped no bits — the fault never bit")
	}
}

func TestTimelineCorruptCorrelated(t *testing.T) {
	res := runClean(t, "corrupt-correlated", 5)
	if res.Flips == 0 {
		t.Error("correlated corruption flipped no bits")
	}
}

func TestTimelineTornWrites(t *testing.T) {
	res := runClean(t, "torn-writes", 6)
	if res.ScrubRepair == 0 {
		t.Error("torn writes left nothing for scrub to repair")
	}
}

func TestTimelineCrashRestart(t *testing.T) {
	runClean(t, "crash-restart", 7)
}

func TestTimelineKitchenSink(t *testing.T) {
	runClean(t, "kitchen-sink", 8)
}

// TestTimelineStaleLease runs the lease consistency scenario: a
// partitioned cache holder must never serve the old bytes past one
// lease TTL after the conflicting write, and must converge on the new
// bytes after heal.
func TestTimelineStaleLease(t *testing.T) {
	res := runClean(t, "stale-lease", 9)
	if res.Ops == 0 {
		t.Error("no cached read ever succeeded")
	}
	if res.OpErrors == 0 {
		t.Error("no read was ever refused — the partition never bit or the horizon never lapsed")
	}
	if res.AckedWrites < 2 {
		t.Error("the conflicting write was never acknowledged")
	}
}

// dedicated lists the timelines that have their own TestTimelineX with
// extra assertions; TestTimelineRest runs every other one.
var dedicated = map[string]bool{
	"partition-rolling": true, "partition-split": true, "flap": true,
	"corrupt-one": true, "corrupt-correlated": true, "torn-writes": true,
	"crash-restart": true, "kitchen-sink": true, staleLeaseName: true,
	overloadName: true, retryStormName: true,
}

// TestTimelineRest runs each canned timeline without a dedicated test
// clean, so a newly added timeline is exercised with no further test.
func TestTimelineRest(t *testing.T) {
	for i, tl := range Timelines() {
		if dedicated[tl.Name] {
			continue
		}
		seed := int64(i + 1)
		t.Run(tl.Name, func(t *testing.T) { runClean(t, tl.Name, seed) })
	}
}

// TestSplitBrainViolationReplays is the deliberate-violation test: with
// quorum writes disabled (the mirror's historical semantics), a
// disjoint partition lets both clients win the same exclusive create —
// and the engine must (a) catch it, (b) report the seed and step that
// reproduce it, and (c) reproduce it identically on a second run with
// the same seed. This is the replay workflow DESIGN.md §12 documents.
func TestSplitBrainViolationReplays(t *testing.T) {
	tl, _ := FindTimeline("partition-split")
	// Violations at steps inside the partition window are structural:
	// the partition alone decides who each client can reach, so they
	// replay exactly. At the heal boundary the split brain lingers for
	// however long breaker re-admission takes, which is wall-clock
	// timing — those edge violations are real but not part of the
	// deterministic replay set.
	run := func() []Violation {
		res, err := Run(Config{Seed: 99, NoQuorum: true}, tl)
		if err != nil {
			t.Fatalf("harness error: %v", err)
		}
		var excl []Violation
		for _, v := range res.Violations {
			if v.Invariant == "exclusive-create" && v.Step < 18 {
				excl = append(excl, v)
			}
		}
		return excl
	}
	first := run()
	if len(first) < 4 {
		t.Fatalf("no-quorum split brain produced %d in-window exclusive-create violations, want one per race (4)", len(first))
	}
	for _, v := range first {
		if v.Seed != 99 || v.Timeline != "partition-split" {
			t.Errorf("violation lacks replay coordinates: %+v", v)
		}
		if v.Step < 4 {
			t.Errorf("violation before the partition began: %+v", v)
		}
	}
	second := run()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("replay diverged:\n first: %v\nsecond: %v", first, second)
	}
}

// TestQuorumClosesSplitBrain is the counterpart: the same timeline and
// seed with quorum writes (the default) must race cleanly.
func TestQuorumClosesSplitBrain(t *testing.T) {
	tl, _ := FindTimeline("partition-split")
	res, err := Run(Config{Seed: 99}, tl)
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation with quorum enabled: %s", v)
	}
}

// TestTimelineOverload runs the 4x-capacity admission scenario: the
// server must shed, goodput must hold, control-plane latency must stay
// bounded, and the graceful drain must complete under fire.
func TestTimelineOverload(t *testing.T) {
	res := runClean(t, "overload", 10)
	if res.OpErrors == 0 {
		t.Error("no op was ever refused — the fleet never overloaded the server")
	}
}

// TestTimelineRetryStorm runs the budget-capped storm scenario: the
// shared retry budget must exhaust, cap aggregate retry volume by
// token conservation, and let goodput return after the hog finishes.
func TestTimelineRetryStorm(t *testing.T) {
	res := runClean(t, "retry-storm", 11)
	if res.OpErrors == 0 {
		t.Error("no op was ever refused — the slot was never contended")
	}
}
