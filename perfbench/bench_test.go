package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

func streamDigest(t *testing.T, name string, seed int64) string {
	t.Helper()
	w, err := buildWorkload(name, seed, toySizes())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, f := range w.frames {
		h.Write(f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSameSeedSameStream pins the inputs: a seed always generates the
// byte-identical encoded stream, another seed a different one.
func TestSameSeedSameStream(t *testing.T) {
	for _, name := range workloadNames {
		a, b := streamDigest(t, name, 7), streamDigest(t, name, 7)
		if a != b {
			t.Errorf("%s: seed 7 generated two different streams", name)
		}
		if c := streamDigest(t, name, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", name)
		}
	}
}

// toyDigests are the seed-1 toy streams. A change to the generators
// the benchmark draws on (internal/scenario, internal/netsim,
// internal/stats, snapio framing) changes them, and with them the
// inputs every later measurement compares against.
var toyDigests = map[string]string{
	"quiet-1m":  "582560f1191b1970491acc173ae11ab9707dc9751d0daf1cf786cccf159bd754",
	"mass-250k": "1e163faae3cb6ecf4adb07878a5eea4c95ae5f715522757f534a013f16d909e2",
	"wire-10k":  "4946374b9a9714d0a9ac12bfb21fe3479bcdf0b1b19c9ab9ad4d8c977ff72871",
}

func TestStreamsPinned(t *testing.T) {
	for _, name := range workloadNames {
		if got := streamDigest(t, name, 1); got != toyDigests[name] {
			t.Errorf("%s: seed 1 stream digest %s, pinned %s", name, got, toyDigests[name])
		}
	}
}

// TestSmoke runs every workload at toy size in both modes and checks
// correctness and the printed metric names against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if err := runSmoke("../BENCHMARK.json", io.Discard); err != nil {
		t.Fatal(err)
	}
}
