package dirnet

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"anomalia/internal/core"
	"anomalia/internal/dist"
)

// checkWire drives one byte stream through the decoders a peer's bytes
// reach: readFrame, then decodeStatus on the payload (a response),
// decodeDecision on an OK body, and decodeWindow on the payload past
// its type byte (a request). None may panic; readFrame may take
// exactly one frame off the reader; no cursor may end past its buffer;
// and every message a decoder accepts must re-encode to the very bytes
// it came from (the encodings are canonical). It reports how many
// decoders accepted the stream.
func checkWire(t *testing.T, data []byte) int {
	r := bytes.NewReader(data)
	payload, rcvd, err := readFrame(r, nil)
	if err != nil {
		return 0
	}
	if consumed := len(data) - r.Len(); consumed != rcvd || rcvd != 4+len(payload) {
		t.Fatalf("readFrame took %d bytes for a %d-byte payload, reported %d", consumed, len(payload), rcvd)
	}
	if !bytes.Equal(payload, data[4:rcvd]) {
		t.Fatal("readFrame payload differs from the frame's bytes")
	}
	accepted := 0
	body, err := decodeStatus(payload)
	var se *serverError
	switch {
	case err == nil:
		c := &cursor{b: body}
		dec := decodeDecision(c)
		if c.off > len(c.b) {
			t.Fatalf("decodeDecision cursor at %d of %d", c.off, len(c.b))
		}
		if c.err() == nil {
			accepted++
			if got := appendDecision([]byte{statusOK}, dec); !bytes.Equal(got, payload) {
				t.Fatalf("decision round trip:\n got %x\nwant %x", got, payload)
			}
		}
	case errors.As(err, &se):
		accepted++
		if got := appendErr(nil, errors.New(se.msg)); !bytes.Equal(got, payload) {
			t.Fatalf("error status round trip:\n got %x\nwant %x", got, payload)
		}
	}
	if len(payload) > 0 {
		c := &cursor{b: payload, off: 1}
		w, err := decodeWindow(c)
		if c.off > len(c.b) {
			t.Fatalf("decodeWindow cursor at %d of %d", c.off, len(c.b))
		}
		if err == nil {
			accepted++
			if got := appendWindow(nil, payload[0], w); !bytes.Equal(got, payload) {
				t.Fatalf("window round trip:\n got %x\nwant %x", got, payload)
			}
		}
	}
	return accepted
}

// frameOf wraps a payload in its length prefix.
func frameOf(payload []byte) []byte {
	return append(appendU32(nil, uint32(len(payload))), payload...)
}

// wireSeeds are well-formed frames built by the encoders a real client
// and server exchange: window requests and decision and error
// responses.
func wireSeeds() [][]byte {
	dec := dist.Decision{
		Result: core.Result{
			Device: 17, Class: core.ClassMassive, Rule: core.RuleTheorem6,
			Dense: [][]int{{3, 17, 21}, {17, 40}},
			Cost:  core.Cost{MaximalMotions: 4, DenseMotions: 2, NeighborsScanned: 7, CollectionsTested: 123},
		},
		Stats: dist.Stats{Messages: 5, Trajectories: 9, ViewSize: 10},
	}
	return [][]byte{
		frameOf(appendWindow(nil, msgInit, windowMsg{seq: 1, r: 0.07, n: 10, d: 2})),
		frameOf(appendWindow(nil, msgAdvance, windowMsg{
			seq: 42, prevSeq: 41, r: 0.07, n: 1000, d: 3,
			ids:   []int{3, 17, 999},
			prev:  []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, math.NaN()},
			cur:   []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, math.Inf(-1)},
			moved: []int{17},
		})),
		frameOf(appendDecision([]byte{statusOK}, dec)),
		frameOf(appendDecision([]byte{statusOK}, dist.Decision{Result: core.Result{Device: 3}})),
		frameOf(appendErr(nil, errors.New("window 7 unknown"))),
	}
}

// FuzzWireDecode feeds arbitrary bytes to the directory wire decoders
// (see checkWire), seeded with wireSeeds and a few malformed frames.
func FuzzWireDecode(f *testing.F) {
	seeds := wireSeeds()
	for _, s := range seeds {
		f.Add(s)
	}
	// A truncated frame, an oversized length prefix, an unknown status
	// byte and a bare need-init status.
	f.Add(seeds[1][:len(seeds[1])-3])
	f.Add(appendU32(nil, MaxFrame+1))
	f.Add(frameOf([]byte{0x7f, 1, 2, 3}))
	f.Add(frameOf([]byte{statusNeedInit}))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkWire(t, data)
	})
}

// TestWireSeedsRoundTrip: every well-formed seed of FuzzWireDecode is
// accepted by a decoder, so the seeds exercise the round-trip check.
func TestWireSeedsRoundTrip(t *testing.T) {
	t.Parallel()

	for i, s := range wireSeeds() {
		if checkWire(t, s) == 0 {
			t.Errorf("seed %d: no decoder accepted it", i)
		}
	}
}
